package netpoll

import (
	"encoding/binary"
	"fmt"

	"repro/internal/transport"
	"repro/internal/wire"
)

// frameBuf reassembles length-prefixed wire frames from arbitrary read
// chunks. A non-blocking socket delivers whatever the kernel has — half a
// length prefix, a frame and a half — so the buffer accumulates bytes until
// a complete frame is decodable and hands back one message at a time,
// producing exactly the decode sequence wire.ReadFrame would on the same
// stream (FuzzPartialRead holds us to that).
//
// Ownership: the buffer belongs to the connection's read side and is only
// touched with the read mutex held — space/advance fill it from the socket,
// next consumes from the front. It is held only while bytes are: space takes
// one from the transport Buf pool, and release hands it back once every
// byte is consumed — next calls it after each frame, the read path after a
// read that brought nothing — so an idle connection holds no buffer. A
// partial frame keeps its bytes. It is not a ring: consumed bytes are
// reclaimed by compaction when space runs out, which stays cheap because
// steady-state frames are far smaller than a read chunk.
type frameBuf struct {
	pb *transport.Buf // pb.B[r:] holds the unconsumed bytes; nil when empty
	r  int
}

// pending returns how many unconsumed bytes are buffered.
func (fb *frameBuf) pending() int {
	if fb.pb == nil {
		return 0
	}
	return len(fb.pb.B) - fb.r
}

// release hands an empty buffer back to the pool; a no-op while bytes are
// pending.
func (fb *frameBuf) release() {
	if fb.pb != nil && fb.r == len(fb.pb.B) {
		transport.PutBuf(fb.pb)
		fb.pb, fb.r = nil, 0
	}
}

// next decodes the next complete frame from the buffered bytes. ok=false
// with a nil error means the buffer ends mid-frame (read more); a non-nil
// error means the stream is corrupt and the connection must treat it as
// terminal — after a framing error the length prefixes downstream are
// meaningless.
func (fb *frameBuf) next() (wire.Msg, bool, error) {
	if fb.pb == nil {
		return nil, false, nil
	}
	b := fb.pb.B[fb.r:]
	size, n := binary.Uvarint(b)
	if n == 0 {
		if len(b) >= binary.MaxVarintLen64 {
			// 10 bytes without a terminating byte can never become a
			// valid length prefix, however much more arrives.
			return nil, false, fmt.Errorf("netpoll: unterminated frame length: %w", wire.ErrCorrupt)
		}
		return nil, false, nil // partial length prefix
	}
	if n < 0 {
		return nil, false, fmt.Errorf("netpoll: frame length overflow: %w", wire.ErrCorrupt)
	}
	if size > wire.MaxFrame {
		return nil, false, fmt.Errorf("netpoll: %d bytes: %w", size, wire.ErrFrameTooLarge)
	}
	if uint64(len(b)-n) < size {
		return nil, false, nil // partial body
	}
	m, err := wire.Decode(b[n : n+int(size)])
	if err != nil {
		return nil, false, err
	}
	fb.r += n + int(size)
	fb.release()
	return m, true, nil
}

// space returns a writable tail of at least min bytes for the next read,
// taking a buffer from the pool when none is held, compacting consumed bytes
// first and growing the backing array only when compaction is not enough.
// Bytes read into it become visible via advance.
func (fb *frameBuf) space(min int) []byte {
	if fb.pb == nil {
		fb.pb = transport.GetBuf(min)
	}
	buf := fb.pb.B
	if cap(buf)-len(buf) < min {
		keep := len(buf) - fb.r
		if fb.r > 0 {
			copy(buf, buf[fb.r:])
			buf, fb.r = buf[:keep], 0
		}
		if cap(buf)-len(buf) < min {
			grown := make([]byte, keep, cap(buf)*2+min)
			copy(grown, buf)
			buf = grown
		}
		fb.pb.B = buf
	}
	return buf[len(buf):cap(buf)]
}

// advance accounts n bytes just read into the slice space returned.
func (fb *frameBuf) advance(n int) { fb.pb.B = fb.pb.B[:len(fb.pb.B)+n] }
