package transport

import (
	"bufio"
	"net"
	"sync"
	"sync/atomic"

	"repro/internal/wire"
)

// Process-wide write-side counters for the TCP transport. The broadcast
// benchmark reads them to report wire bytes and flushes per operation;
// they are monotone, so callers measure with deltas.
var (
	tcpBytesSent atomic.Uint64
	tcpFlushes   atomic.Uint64
)

// TCPBytesSent returns the total frame bytes written by all TCP conns.
func TCPBytesSent() uint64 { return tcpBytesSent.Load() }

// TCPFlushes returns the total write rounds (one per Send or SendFrame)
// performed by all TCP conns.
func TCPFlushes() uint64 { return tcpFlushes.Load() }

// AccountTCPWrite adds one write round of n frame bytes to the TCP write
// counters. tcpConn and the platform poller's connections (netpoll, raw
// fds) both account through it, which keeps tcp.bytes_sent / tcp.flushes
// meaning "frame bytes toward TCP peers" regardless of which write path
// ran.
func AccountTCPWrite(n int) {
	tcpBytesSent.Add(uint64(n))
	tcpFlushes.Add(1)
}

// DefaultBufferSize is the bufio read size of a TCP conn. A frame that fits
// in it is decoded straight out of the reader's buffer (wire.ReadFrame), so
// it is also the largest frame that arrives without a one-off allocation.
// It is the one transport buffer a conn keeps for its whole life: a
// goroutine parked in a blocking Read must own the buffer it reads into.
const DefaultBufferSize = 32 << 10

// tcpConn frames wire messages over a TCP stream. TCP's in-order delivery
// provides the FIFO property the clock scheme depends on (§2.2).
type tcpConn struct {
	c net.Conn
	r *bufio.Reader

	wmu sync.Mutex
}

// NewTCPConn wraps an established net.Conn. Nagle's algorithm is disabled
// explicitly so batching policy lives in one place — the senders' drain
// coalescing decides when bytes leave, not the kernel's delayed-ACK timer.
func NewTCPConn(c net.Conn) Conn {
	if tc, ok := c.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true)
	}
	return &tcpConn{c: c, r: bufio.NewReaderSize(c, DefaultBufferSize)}
}

// DialTCP connects to a notifier at addr.
func DialTCP(addr string) (Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewTCPConn(c), nil
}

// Send implements Conn: the frame is staged in a pooled buffer and written
// like a one-frame SendFrame. The coalescing path is SendFrame.
func (t *tcpConn) Send(m wire.Msg) error { return SendMsg(t, m) }

// SendFrame implements FrameConn: the blob already holds complete frames,
// so it goes to the socket in one Write — no staging copy, no buffer kept.
func (t *tcpConn) SendFrame(frames []byte) error {
	t.wmu.Lock()
	defer t.wmu.Unlock()
	if _, err := t.c.Write(frames); err != nil {
		return err
	}
	AccountTCPWrite(len(frames))
	return nil
}

// Recv implements Conn.
func (t *tcpConn) Recv() (wire.Msg, error) { return wire.ReadFrame(t.r) }

// Close implements Conn.
func (t *tcpConn) Close() error { return t.c.Close() }

// tcpListener adapts net.Listener.
type tcpListener struct{ l net.Listener }

// ListenTCP starts a TCP listener on addr (e.g. "127.0.0.1:0").
func ListenTCP(addr string) (Listener, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &tcpListener{l: l}, nil
}

// Accept implements Listener.
func (t *tcpListener) Accept() (Conn, error) {
	c, err := t.l.Accept()
	if err != nil {
		return nil, err
	}
	return NewTCPConn(c), nil
}

// Close implements Listener.
func (t *tcpListener) Close() error { return t.l.Close() }

// Addr implements Listener.
func (t *tcpListener) Addr() string { return t.l.Addr().String() }
