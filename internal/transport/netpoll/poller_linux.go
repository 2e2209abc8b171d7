//go:build linux

package netpoll

import (
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"

	"repro/internal/obs/span"
	"repro/internal/transport"
	"repro/internal/wire"
)

// epollET requests edge-triggered delivery. syscall.EPOLLET is declared as a
// negative int (bit 31 of the events word); routing it through a uint32
// constant avoids the sign trap.
const epollET = uint32(1) << 31

// readEvents is the resting interest set: inbound data, peer half-close, and
// the error conditions epoll reports unconditionally. writeEvents adds
// EPOLLOUT while a short write is parked.
const (
	readEvents  = uint32(syscall.EPOLLIN|syscall.EPOLLRDHUP) | epollET
	writeEvents = readEvents | uint32(syscall.EPOLLOUT)
)

// spinRounds is how many zero-timeout re-polls (each followed by a Gosched)
// a shard loop runs after a wakeup that carried events before parking back
// into the runtime netpoller. Parking is cheap but waking is not: on a
// saturated GOMAXPROCS=1 box the runtime skips netpoll while its run queue
// is non-empty, and only sysmon forces one every ~10ms — so a parked poller
// under load sees readiness at sysmon latency, quantizing every TCP hop at
// ~10ms (the poll_wake tail E14 measured). A recently-busy shard therefore
// stays runnable for a bounded number of scheduler round-trips, discovering
// new events at run-queue latency; a genuinely idle shard exhausts the
// budget and parks, costing zero CPU.
const spinRounds = 64

// Available reports whether this platform has a readiness poller.
func Available() bool { return true }

// Poller owns N epoll instances ("shards"), each drained by its own
// goroutine. Registered connections cost no goroutines: their read-side
// edges are forwarded to the readable callback (feeding a
// transport.Dispatcher's ready ring) and their write-side edges to the
// pending-flush path. Everything is raw syscall — no cgo, no dependencies —
// and edge-triggered, so the kernel notifies once per readiness transition
// and the wait set stays O(1) per event regardless of how many tens of
// thousands of idle connections are registered.
//
// Sharding (DESIGN.md §18) bounds the batch a single hot edge can queue
// behind: with one instance, 128 simultaneously-readable connections are
// serviced by one goroutine in one pass; with N instances, connections are
// assigned round-robin at registration and N loops forward their shares
// independently.
type Poller struct {
	shards []*pollShard
	// next hands out shard assignments round-robin as conns register.
	next atomic.Uint32
}

// pollShard is one epoll instance and the goroutine that drains it.
type pollShard struct {
	idx  int
	epfd int
	// epf wraps epfd so the loop can park in the runtime netpoller instead
	// of blocking an OS thread inside epoll_wait. A raw blocking wait holds
	// its P in _Psyscall until sysmon retakes it — up to 10ms on a quiet
	// box — which on GOMAXPROCS=1 stalls every goroutine once per wakeup.
	// Registering the (nonblocking) epoll fd itself with the runtime poller
	// and waiting for IT to become readable turns each wakeup into an
	// ordinary gopark/goready pair. epoll instances nest one level, so the
	// runtime's own epoll can watch ours.
	epf  *os.File
	eprc syscall.RawConn
	wake [2]int // self-pipe; [1] written by Close to unblock the wait

	mu     sync.Mutex
	conns  map[int32]*pollConn
	closed bool

	done chan struct{}
}

// DefaultPollerShards is the default epoll shard count:
// min(GOMAXPROCS, 4). More shards than CPUs cannot run concurrently, and
// beyond 4 the per-shard goroutine overhead outgrows the batching win.
func DefaultPollerShards() int {
	n := runtime.GOMAXPROCS(0)
	if n > 4 {
		n = 4
	}
	if n < 1 {
		n = 1
	}
	return n
}

// NewPoller creates a poller with its own epoll shard set and event loops
// (shard count from WithPollerShards, default DefaultPollerShards). Most
// callers want the shared Default instead; tests create private pollers so
// Close tears the loops down deterministically.
func NewPoller(opts ...Option) (*Poller, error) {
	cfg := buildConfig(opts)
	shards := cfg.shards
	if shards <= 0 {
		shards = DefaultPollerShards()
	}
	p := &Poller{shards: make([]*pollShard, 0, shards)}
	for i := 0; i < shards; i++ {
		sh, err := newPollShard(i)
		if err != nil {
			_ = p.Close()
			return nil, err
		}
		p.shards = append(p.shards, sh)
	}
	return p, nil
}

// Shards returns the number of epoll instances this poller runs.
func (p *Poller) Shards() int { return len(p.shards) }

// pick assigns the next connection's shard (round-robin).
func (p *Poller) pick() *pollShard {
	return p.shards[int(p.next.Add(1)-1)%len(p.shards)]
}

func newPollShard(idx int) (*pollShard, error) {
	epfd, err := syscall.EpollCreate1(syscall.EPOLL_CLOEXEC)
	if err != nil {
		return nil, os.NewSyscallError("epoll_create1", err)
	}
	sh := &pollShard{idx: idx, epfd: epfd, conns: make(map[int32]*pollConn), done: make(chan struct{})}
	if err := syscall.Pipe2(sh.wake[:], syscall.O_NONBLOCK|syscall.O_CLOEXEC); err != nil {
		_ = syscall.Close(epfd)
		return nil, os.NewSyscallError("pipe2", err)
	}
	// The wake pipe stays level-triggered: it only ever carries the close
	// signal and must not be lost to an edge raced by a spurious wakeup.
	ev := syscall.EpollEvent{Events: uint32(syscall.EPOLLIN), Fd: int32(sh.wake[0])}
	if err := syscall.EpollCtl(epfd, syscall.EPOLL_CTL_ADD, sh.wake[0], &ev); err != nil {
		_ = syscall.Close(epfd)
		_ = syscall.Close(sh.wake[0])
		_ = syscall.Close(sh.wake[1])
		return nil, os.NewSyscallError("epoll_ctl", err)
	}
	// Nonblocking BEFORE os.NewFile: that is what makes the runtime register
	// the fd with its own netpoller (see newFile's pollable check).
	if err := syscall.SetNonblock(epfd, true); err != nil {
		_ = syscall.Close(epfd)
		_ = syscall.Close(sh.wake[0])
		_ = syscall.Close(sh.wake[1])
		return nil, os.NewSyscallError("setnonblock", err)
	}
	sh.epf = os.NewFile(uintptr(epfd), "epoll")
	rc, err := sh.epf.SyscallConn()
	if err != nil {
		_ = sh.epf.Close() // owns epfd now
		_ = syscall.Close(sh.wake[0])
		_ = syscall.Close(sh.wake[1])
		return nil, err
	}
	sh.eprc = rc
	go sh.loop()
	return sh, nil
}

var (
	defaultOnce sync.Once
	defaultP    *Poller
	defaultErr  error
)

// Default returns the process-wide poller, created on first use and never
// closed — the epoll fds and their goroutines are process-lifetime fixtures,
// like the runtime's own netpoller.
func Default() (*Poller, error) {
	defaultOnce.Do(func() { defaultP, defaultErr = NewPoller() })
	return defaultP, defaultErr
}

// loop is one shard's goroutine: wait, then forward each event to its
// connection. It holds no locks across callbacks beyond the conn-table
// lookup, and the event slice is its only allocation, made once.
//
// The wait is three-level. While the shard was recently busy it re-polls
// with a zero-timeout epoll_wait between Gosched yields (see spinRounds) —
// readiness then surfaces at run-queue latency even when the runtime
// netpoller is starved by a saturated run queue. After the spin budget, the
// RawConn.Read parks this goroutine in the runtime netpoller until the
// epoll fd itself reports readable, and the callback drains it with the
// same zero-timeout wait. The callback always polls before parking, so a
// batch larger than the events slice is picked up on the next iteration
// without needing a fresh readiness edge.
func (sh *pollShard) loop() {
	defer close(sh.done)
	// The wait closures are built once: they, the event slice, and n are
	// the loop's only allocations, paid per shard rather than per wakeup.
	events := make([]syscall.EpollEvent, 128)
	n := 0
	poll := func(fd uintptr) bool {
		for {
			var err error
			n, err = syscall.EpollWait(int(fd), events, 0)
			if err == syscall.EINTR {
				continue
			}
			if err != nil {
				n = -1 // terminal: epoll fd gone
				return true
			}
			return n > 0 // no events: park until the epoll fd is readable
		}
	}
	epfd := uintptr(sh.epfd)
	spin := 0
	for {
		if spin > 0 {
			spin--
			if poll(epfd); n < 0 {
				return
			}
			if n == 0 {
				runtime.Gosched()
				continue
			}
		} else if sh.eprc.Read(poll) != nil || n < 0 {
			return
		}
		wakeups.Add(1)
		shardWakeup(sh.idx)
		if h := eventsHist.Load(); h != nil {
			h.RecordInt(n)
		}
		// Read-side edges first, pending-flush second: inbound ops start
		// their dispatch before this batch's outbound backlog is drained,
		// so a stalled writer never adds to arrival latency.
		for i := 0; i < n; i++ {
			fd, evs := events[i].Fd, events[i].Events
			if int(fd) == sh.wake[0] {
				if sh.drainWake() {
					return
				}
				continue
			}
			if evs&(uint32(syscall.EPOLLIN|syscall.EPOLLRDHUP|syscall.EPOLLERR|syscall.EPOLLHUP)) == 0 {
				continue
			}
			if pc := sh.lookup(fd); pc != nil {
				pc.onReadable()
			}
		}
		for i := 0; i < n; i++ {
			if events[i].Events&uint32(syscall.EPOLLOUT) == 0 {
				continue
			}
			if pc := sh.lookup(events[i].Fd); pc != nil {
				pc.flushPending()
			}
		}
		spin = spinRounds
	}
}

// lookup resolves an event's fd to its connection (nil when it was
// deregistered while the event was in flight).
func (sh *pollShard) lookup(fd int32) *pollConn {
	sh.mu.Lock()
	pc := sh.conns[fd]
	sh.mu.Unlock()
	return pc
}

// drainWake empties the self-pipe and reports whether Close asked the loop
// to exit.
func (sh *pollShard) drainWake() bool {
	var buf [16]byte
	for {
		if n, err := syscall.Read(sh.wake[0], buf[:]); n <= 0 || err != nil {
			break
		}
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.closed
}

// Close stops every shard's event loop and closes every registered
// connection, which surfaces transport.ErrClosed through their Recv/TryRecv
// paths and so retires them from any dispatcher. Only test-owned pollers are
// closed; see Default.
func (p *Poller) Close() error {
	for _, sh := range p.shards {
		if sh != nil {
			sh.close()
		}
	}
	return nil
}

func (sh *pollShard) close() {
	sh.mu.Lock()
	if sh.closed {
		sh.mu.Unlock()
		return
	}
	sh.closed = true
	sh.mu.Unlock()
	one := [1]byte{1}
	_, _ = syscall.Write(sh.wake[1], one[:])
	<-sh.done
	sh.mu.Lock()
	conns := make([]*pollConn, 0, len(sh.conns))
	for _, pc := range sh.conns {
		conns = append(conns, pc)
	}
	sh.mu.Unlock()
	for _, pc := range conns {
		_ = pc.Close()
	}
	_ = sh.epf.Close() // owns epfd
	_ = syscall.Close(sh.wake[0])
	_ = syscall.Close(sh.wake[1])
}

// add registers pc's fd with the shard's epoll instance under the read
// interest set.
func (sh *pollShard) add(pc *pollConn) error {
	sh.mu.Lock()
	if sh.closed {
		sh.mu.Unlock()
		return transport.ErrClosed
	}
	sh.conns[int32(pc.fd)] = pc
	sh.mu.Unlock()
	ev := syscall.EpollEvent{Events: readEvents, Fd: int32(pc.fd)}
	if err := syscall.EpollCtl(sh.epfd, syscall.EPOLL_CTL_ADD, pc.fd, &ev); err != nil {
		sh.mu.Lock()
		delete(sh.conns, int32(pc.fd))
		sh.mu.Unlock()
		return os.NewSyscallError("epoll_ctl", err)
	}
	return nil
}

// deregister removes pc from the interest set and the conn table. It MUST
// complete before pc's fd is closed: the kernel reuses fd numbers, and a
// stale table entry would route a future connection's events to this dead
// one.
func (sh *pollShard) deregister(pc *pollConn) {
	sh.mu.Lock()
	delete(sh.conns, int32(pc.fd))
	sh.mu.Unlock()
	_ = syscall.EpollCtl(sh.epfd, syscall.EPOLL_CTL_DEL, pc.fd, nil)
}

// mod swaps pc's interest set (read-only ↔ read+write). With edge
// triggering, EPOLL_CTL_MOD also re-checks readiness: if the socket is
// already writable when EPOLLOUT is armed, an event fires immediately, so
// the arm-after-EAGAIN window loses no edge.
func (sh *pollShard) mod(pc *pollConn, events uint32) error {
	ev := syscall.EpollEvent{Events: events, Fd: int32(pc.fd)}
	if err := syscall.EpollCtl(sh.epfd, syscall.EPOLL_CTL_MOD, pc.fd, &ev); err != nil {
		return os.NewSyscallError("epoll_ctl", err)
	}
	return nil
}

// pollConn is a poller-owned TCP connection: transport.EventConn on the read
// side (non-blocking reads through a frameBuf), transport.FrameConn on the
// write side (short writes park on wpend and re-arm EPOLLOUT). It holds zero
// goroutines; the shard goroutine and the caller's dispatcher/writer-pool
// workers do all the work.
type pollConn struct {
	sh    *pollShard
	f     *os.File // keeps the dup'd descriptor alive against the finalizer
	fd    int
	chunk int

	rmu   sync.Mutex
	rcond *sync.Cond // wakes blocking Recv on the fallback (no-dispatcher) path
	fb    frameBuf
	rcb   func()
	rerr  error // sticky: EOF, reset, corrupt stream, or local close

	wmu   sync.Mutex
	wpend []byte // unwritten tail after a short write, draining via EPOLLOUT
	warm  bool   // EPOLLOUT currently armed
	werr  error  // sticky write-side error

	// wakeNs is the span clock reading of the latest read-side readiness
	// edge, captured only while a tracer is active (span.Active gate: one
	// atomic load per edge, one store when tracing). The span pipeline
	// reads it through TraceWakeNs to stamp the poll_wake stage.
	wakeNs atomic.Int64

	closed atomic.Bool
}

var (
	_ transport.EventConn = (*pollConn)(nil)
	_ transport.FrameConn = (*pollConn)(nil)
)

// newPollConn takes ownership of tc: dup the fd out of the runtime's
// netpoller, close the original, and register the dup with one of p's
// shards (round-robin).
func newPollConn(tc *net.TCPConn, p *Poller, cfg config) (*pollConn, error) {
	_ = tc.SetNoDelay(true)
	f, err := tc.File() // dup sharing the file description
	_ = tc.Close()
	if err != nil {
		return nil, err
	}
	fd := int(f.Fd())
	// File() may have switched the description to blocking mode; every read
	// and write below depends on it being non-blocking, so set it
	// explicitly rather than trusting the dup's inherited state.
	if err := syscall.SetNonblock(fd, true); err != nil {
		_ = f.Close()
		return nil, os.NewSyscallError("setnonblock", err)
	}
	if cfg.sockBuf > 0 {
		_ = syscall.SetsockoptInt(fd, syscall.SOL_SOCKET, syscall.SO_RCVBUF, cfg.sockBuf)
		_ = syscall.SetsockoptInt(fd, syscall.SOL_SOCKET, syscall.SO_SNDBUF, cfg.sockBuf)
	}
	pc := &pollConn{sh: p.pick(), f: f, fd: fd, chunk: cfg.readChunk}
	pc.rcond = sync.NewCond(&pc.rmu)
	if err := pc.sh.add(pc); err != nil {
		_ = f.Close()
		return nil, err
	}
	return pc, nil
}

// SetReadable implements transport.EventConn. Per the contract fn also fires
// once immediately: bytes may have arrived between accept and registration,
// and with edge triggering that edge has already come and gone.
func (pc *pollConn) SetReadable(fn func()) {
	pc.rmu.Lock()
	pc.rcb = fn
	pc.rmu.Unlock()
	if fn != nil {
		fn()
	}
}

// onReadable runs on the shard goroutine for every read-side edge (data,
// half-close, error) and on local close. It must not block: wake a parked
// Recv and push the conn onto the dispatcher's ready ring via the callback.
func (pc *pollConn) onReadable() {
	if span.Active() {
		pc.wakeNs.Store(span.Now())
	}
	pc.rmu.Lock()
	fn := pc.rcb
	pc.rcond.Broadcast()
	pc.rmu.Unlock()
	if fn != nil {
		fn()
	}
}

// TraceWakeNs returns the span clock reading of the latest readiness edge
// (0 when tracing is off or no edge has fired). The arrival path uses it to
// stamp the poll_wake stage of sampled ops decoded from this connection.
func (pc *pollConn) TraceWakeNs() int64 { return pc.wakeNs.Load() }

// TryRecv implements transport.EventConn. The edge-triggered invariant lives
// here: (false, nil) is returned only after the kernel buffer was read to
// EAGAIN with no complete frame assembled, so any later byte raises a fresh
// edge → onReadable → ready ring, and no wakeup is ever lost. Returning a
// frame while more bytes wait (buffered or in the kernel) is safe because
// the dispatcher keeps the conn scheduled until TryRecv reports empty.
func (pc *pollConn) TryRecv() (wire.Msg, bool, error) {
	pc.rmu.Lock()
	defer pc.rmu.Unlock()
	return pc.tryRecvLocked()
}

func (pc *pollConn) tryRecvLocked() (wire.Msg, bool, error) {
	for {
		m, ok, err := pc.fb.next()
		if err != nil {
			// A framing error poisons the stream; no resynchronization.
			pc.rerr = err
			return nil, false, err
		}
		if ok {
			return m, true, nil
		}
		if pc.rerr != nil {
			return nil, false, pc.rerr
		}
		n, err := syscall.Read(pc.fd, pc.fb.space(pc.chunk))
		if n > 0 {
			pc.fb.advance(n)
			continue
		}
		// The read brought nothing: an empty buffer goes back to the pool
		// rather than waiting out the idle spell on this connection.
		pc.fb.release()
		switch err {
		case syscall.EINTR:
			continue
		case syscall.EAGAIN:
			if pc.fb.pending() > 0 {
				partialReads.Add(1)
			}
			return nil, false, nil
		case nil: // n == 0: orderly peer close
			pc.rerr = io.EOF
		default:
			if pc.closed.Load() {
				pc.rerr = transport.ErrClosed
			} else {
				pc.rerr = os.NewSyscallError("read", err)
			}
		}
		return nil, false, pc.rerr
	}
}

// Recv implements transport.Conn for the no-dispatcher fallback: park on the
// condition variable until an edge delivers bytes. Wait atomically releases
// rmu, and onReadable broadcasts under rmu, so an edge arriving between the
// empty read and the Wait cannot be lost.
func (pc *pollConn) Recv() (wire.Msg, error) {
	pc.rmu.Lock()
	defer pc.rmu.Unlock()
	for {
		m, ok, err := pc.tryRecvLocked()
		if err != nil {
			return nil, err
		}
		if ok {
			return m, nil
		}
		pc.rcond.Wait()
	}
}

// Send implements transport.Conn (compatibility path; the pooled writers use
// SendFrame). The frame is staged in a pooled buffer.
func (pc *pollConn) Send(m wire.Msg) error { return transport.SendMsg(pc, m) }

// SendFrame implements transport.FrameConn. The blob goes straight to the
// non-blocking fd; when the socket buffer fills mid-blob the remainder is
// copied to wpend (the contract forbids retaining the blob) and EPOLLOUT is
// armed for the poller to finish the drain — a slow peer therefore never
// blocks a writer-pool worker, it just accumulates pending bytes.
func (pc *pollConn) SendFrame(frames []byte) error {
	pc.wmu.Lock()
	defer pc.wmu.Unlock()
	if pc.werr != nil {
		return pc.werr
	}
	transport.AccountTCPWrite(len(frames))
	if len(pc.wpend) > 0 {
		// An earlier short write is still draining; queue behind it to
		// preserve FIFO bytes on the wire.
		pc.wpend = append(pc.wpend, frames...)
		return nil
	}
	return pc.writeLocked(frames)
}

// writeLocked writes blob until done or EAGAIN; on EAGAIN the remainder
// parks on wpend and EPOLLOUT is armed. Called with wmu held.
func (pc *pollConn) writeLocked(blob []byte) error {
	for len(blob) > 0 {
		n, err := syscall.Write(pc.fd, blob)
		if n > 0 {
			blob = blob[n:]
		}
		switch err {
		case nil:
		case syscall.EINTR:
		case syscall.EAGAIN:
			pc.wpend = append(pc.wpend, blob...)
			return pc.armWrite()
		default:
			pc.werr = os.NewSyscallError("write", err)
			return pc.werr
		}
	}
	return nil
}

// armWrite adds EPOLLOUT to the interest set. Called with wmu held.
func (pc *pollConn) armWrite() error {
	if pc.warm {
		return nil
	}
	if err := pc.sh.mod(pc, writeEvents); err != nil {
		pc.werr = err
		return err
	}
	pc.warm = true
	rearms.Add(1)
	return nil
}

// flushPending runs on the shard goroutine when EPOLLOUT reports the socket
// writable again: drain wpend, then drop back to the read-only interest set.
// An EAGAIN mid-drain simply returns — the interest set still has EPOLLOUT,
// so the next writability edge resumes.
func (pc *pollConn) flushPending() {
	pc.wmu.Lock()
	defer pc.wmu.Unlock()
	if pc.werr != nil || !pc.warm {
		return
	}
	for len(pc.wpend) > 0 {
		n, err := syscall.Write(pc.fd, pc.wpend)
		if n > 0 {
			pc.wpend = pc.wpend[n:]
		}
		switch err {
		case nil:
		case syscall.EINTR:
		case syscall.EAGAIN:
			return
		default:
			// The write side is dead; the matching reset/EOF surfaces on
			// the read side as its own edge, which retires the conn.
			pc.werr = os.NewSyscallError("write", err)
			return
		}
	}
	pc.wpend = nil // release the drained backing array
	if err := pc.sh.mod(pc, readEvents); err == nil {
		pc.warm = false
	}
}

// Close implements transport.Conn, idempotently. Ordering matters twice
// over: deregister before closing the fd (fd-number reuse, see deregister),
// and set the sticky errors under their mutexes before closing so no reader
// or writer can issue a syscall on a closed — possibly reused — fd: both
// paths re-check their sticky error under the mutex before every syscall,
// and the fd is closed while holding wmu after rerr is already published.
func (pc *pollConn) Close() error {
	if !pc.closed.CompareAndSwap(false, true) {
		return nil
	}
	pc.sh.deregister(pc)
	pc.rmu.Lock()
	if pc.rerr == nil {
		pc.rerr = transport.ErrClosed
	}
	fn := pc.rcb
	pc.rcond.Broadcast()
	pc.rmu.Unlock()
	pc.wmu.Lock()
	if pc.werr == nil {
		pc.werr = transport.ErrClosed
	}
	err := pc.f.Close()
	pc.wmu.Unlock()
	// Fire the readable callback per the EventConn close contract, so a
	// dispatcher drains to the error and retires the conn.
	if fn != nil {
		fn()
	}
	return err
}

// pollListener accepts TCP connections and registers each with the poller.
type pollListener struct {
	l   net.Listener
	p   *Poller
	cfg config
}

// ListenTCP starts a poller-backed TCP listener on addr: every accepted
// connection implements transport.EventConn (and FrameConn) with zero
// dedicated goroutines, registered with the process Default poller unless
// WithPoller overrides it.
func ListenTCP(addr string, opts ...Option) (transport.Listener, error) {
	cfg := buildConfig(opts)
	p := cfg.poller
	if p == nil {
		var err error
		if p, err = Default(); err != nil {
			return nil, err
		}
	}
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &pollListener{l: l, p: p, cfg: cfg}, nil
}

// DialTCP connects to addr and hands the connection to the poller: the
// returned conn is a transport.EventConn/FrameConn identical to an accepted
// one, with its blocking Recv woken by a shard loop instead of the runtime
// netpoller. Clients driving many connections from one process (benchmarks,
// load generators) use it so their reads share the poller's spin-then-park
// wakeup path rather than each parking in the runtime poller.
func DialTCP(addr string, opts ...Option) (transport.Conn, error) {
	cfg := buildConfig(opts)
	p := cfg.poller
	if p == nil {
		var err error
		if p, err = Default(); err != nil {
			return nil, err
		}
	}
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	tc, ok := c.(*net.TCPConn)
	if !ok {
		_ = c.Close()
		return nil, fmt.Errorf("netpoll: non-TCP connection %T", c)
	}
	return newPollConn(tc, p, cfg)
}

// Accept implements transport.Listener.
func (pl *pollListener) Accept() (transport.Conn, error) {
	c, err := pl.l.Accept()
	if err != nil {
		return nil, err
	}
	tc, ok := c.(*net.TCPConn)
	if !ok {
		_ = c.Close()
		return nil, fmt.Errorf("netpoll: non-TCP connection %T", c)
	}
	return newPollConn(tc, pl.p, pl.cfg)
}

// Close implements transport.Listener.
func (pl *pollListener) Close() error { return pl.l.Close() }

// Addr implements transport.Listener.
func (pl *pollListener) Addr() string { return pl.l.Addr().String() }

// init advertises the capability: transport.ListenEventTCP resolves to the
// poller-backed listener on Linux and to the dedicated-reader path
// elsewhere.
func init() {
	transport.RegisterPoller(func(addr string) (transport.Listener, error) {
		return ListenTCP(addr)
	})
}
