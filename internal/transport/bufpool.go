package transport

import (
	"math/bits"
	"sync"

	"repro/internal/wire"
)

// Transport scratch is taken when bytes move and given back once they have
// moved, so a connection with nothing in flight holds no buffer: a sender's
// frame blob lives for one SendFrame, a poller connection's reassembly
// buffer until it drains. The pool is size-classed by powers of two from
// 4 KiB (minBufShift) to 64 KiB (maxBufShift); a buffer that grew past the
// top class — a snapshot frame — goes to the collector instead, so one large
// frame never parks its allocation in the pool.
const (
	minBufShift = 12
	maxBufShift = 16
)

// bufClasses[c] holds buffers whose capacity is at least 1<<(minBufShift+c).
var bufClasses [maxBufShift - minBufShift + 1]sync.Pool

func init() {
	for c := range bufClasses {
		size := 1 << (minBufShift + c)
		bufClasses[c].New = func() any { return &Buf{B: make([]byte, 0, size)} }
	}
}

// Buf is a pooled scratch buffer. Holders append into B and may replace it
// when it grows; PutBuf files whatever B then holds under its capacity.
type Buf struct {
	B []byte
	// items is Sender.write's broadcast-run scratch, pooled with the blob
	// it is encoded into.
	items []wire.FrameItem
}

// bufClass returns the smallest class whose buffers fit n bytes
// (len(bufClasses) when none does).
func bufClass(n int) int {
	if n <= 1<<minBufShift {
		return 0
	}
	return bits.Len(uint(n-1)) - minBufShift
}

// GetBuf returns an empty buffer with capacity at least n. Requests past the
// largest class get a one-off allocation that PutBuf will drop.
func GetBuf(n int) *Buf {
	c := bufClass(n)
	if c >= len(bufClasses) {
		return &Buf{B: make([]byte, 0, n)}
	}
	return bufClasses[c].Get().(*Buf)
}

// PutBuf returns pb to the class its capacity fills. The caller must not
// touch pb afterwards.
func PutBuf(pb *Buf) {
	n := cap(pb.B)
	if n < 1<<minBufShift || n > 1<<maxBufShift {
		return
	}
	pb.B = pb.B[:0]
	bufClasses[bits.Len(uint(n))-1-minBufShift].Put(pb)
}

// SendMsg encodes m into a pooled buffer and hands it to fc as one
// SendFrame: the Conn.Send of every FrameConn in the tree.
func SendMsg(fc FrameConn, m wire.Msg) error {
	pb := GetBuf(0)
	frame, err := wire.AppendFrame(pb.B, m)
	if err == nil {
		err = fc.SendFrame(frame)
	}
	pb.B = frame
	PutBuf(pb)
	return err
}
