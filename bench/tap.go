package main

import (
	"encoding/binary"
	"sync/atomic"

	"repro/internal/causal"
	"repro/internal/transport"
	"repro/internal/wire"
)

// tap wraps an editor's TCP connection and times the program from outside:
// Recv returning is "arrived", and because Editor.readLoop is
// Recv → integrate → Recv, the editor's next call into Recv is "integrated".
// Operations are identified by the (site, seq) dot the protocol already
// ships in ServerOp.OrigRef. Nothing inside the program is touched.
//
// Recv is single-goroutine by the Conn contract and SendFrame is called only
// by the editor's one Sender goroutine, so each side's fields have one owner;
// the tables are read after the editor has been closed.
type tap struct {
	transport.FrameConn

	// Observer side: sites maps a site id to the writer that edits through
	// it (nil for idle sites); pending holds the writer ops returned by the
	// last Recv, integrated when Recv is entered again.
	sites      []*writer
	pending    []causal.OpRef
	integrated *atomic.Int64 // the rig's count of integrated edits

	// hideEvery, when > 0, makes the tap lose sight of every hideEvery-th
	// operation it sees (the op is still delivered to the editor). It exists
	// so a test can show that an unobserved op is reported failed.
	hideEvery, seen int

	// Traced runs only. wr is the writer whose outbound frames this tap
	// times; counts receives the coalescing counters of every connection.
	wr     *writer
	counts *tapCounts
}

// tapCounts aggregates frame-level counters over all taps of a traced run.
type tapCounts struct {
	writes, writeOps atomic.Int64 // SendFrame calls carrying ClientOps, and the ops in them
	recvs, recvOps   atomic.Int64 // Recv returns carrying ServerOps, and the ops in them
}

func (t *tap) Recv() (wire.Msg, error) {
	if len(t.pending) > 0 {
		at := now()
		t.integrated.Add(int64(len(t.pending)))
		for _, ref := range t.pending {
			wr := t.sites[ref.Site]
			wr.integrated[ref.Seq-1] = at
			wr.drv.tokens <- struct{}{}
		}
		t.pending = t.pending[:0]
	}
	m, err := t.FrameConn.Recv()
	if err != nil {
		return m, err
	}
	at := now()
	ops := 0
	switch v := m.(type) {
	case wire.ServerOp:
		t.arrived(v.OrigRef, at)
		ops = 1
	case wire.OpBatch:
		for i := range v.Ops {
			t.arrived(v.Ops[i].OrigRef, at)
		}
		ops = len(v.Ops)
	}
	if t.counts != nil && ops > 0 {
		t.counts.recvs.Add(1)
		t.counts.recvOps.Add(int64(ops))
	}
	return m, nil
}

func (t *tap) arrived(ref causal.OpRef, at int64) {
	if ref.Site < 0 || ref.Site >= len(t.sites) || t.sites[ref.Site] == nil {
		return
	}
	wr := t.sites[ref.Site]
	if ref.Seq < 1 || ref.Seq > uint64(len(wr.arrived)) {
		return
	}
	if t.seen++; t.hideEvery > 0 && t.seen%t.hideEvery == 0 {
		return
	}
	wr.arrived[ref.Seq-1] = at
	t.pending = append(t.pending, ref)
}

func (t *tap) SendFrame(frames []byte) error {
	if t.wr == nil {
		return t.FrameConn.SendFrame(frames)
	}
	n := countClientOps(frames)
	enter := now()
	err := t.FrameConn.SendFrame(frames)
	exit := now()
	// A writer's ops leave in generation order (the FIFO the clocks rely
	// on), so the k-th ClientOp frame on this connection is seq k.
	for i := 0; i < n && t.wr.sent < len(t.wr.sendEnter); i++ {
		t.wr.sendEnter[t.wr.sent] = enter
		t.wr.sendExit[t.wr.sent] = exit
		t.wr.sent++
	}
	if n > 0 {
		t.counts.writes.Add(1)
		t.counts.writeOps.Add(int64(n))
	}
	return err
}

// countClientOps walks the length prefixes of a blob of frames and counts
// the TClientOp ones without decoding their bodies.
func countClientOps(frames []byte) int {
	n := 0
	for len(frames) > 0 {
		size, k := binary.Uvarint(frames)
		if k <= 0 || size == 0 || uint64(len(frames)-k) < size {
			return n
		}
		if wire.MsgType(frames[k]&0x7f) == wire.TClientOp { // high bit: trace trailer present
			n++
		}
		frames = frames[k+int(size):]
	}
	return n
}
