package core

import (
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/causal"
	"repro/internal/doc"
	"repro/internal/op"
	"repro/internal/vclock"
)

// Checkpoint serializes the engine's durable state into a compact byte
// checkpoint that RestoreServer turns back into a live, equivalent engine —
// the storage format behind idle-session dehydration (DESIGN.md §15): a
// parked session keeps only these bytes in memory, not the engine, its
// caches, or its goroutine.
//
// What is captured: mode, the generation counter, the full state vector
// SV_0, the document text, the history buffer (dropped count, tail vector,
// entries), and every client record (join state, baseline, sent/acked
// counters, and — behind a flag, only for a site caught mid-transformation —
// its materialised bridge; a derived bridge is already in the history
// entries and costs one byte). What is deliberately not: the
// composed-suffix caches (comp/unfolded/compHold) — Checkpoint first settles
// any deferred folds, so the individual bridge entries are current and the
// caches can be dropped and rebuilt cold after restore — and the derived
// history-buffer state (counts, byOrigin, tailSum), recomputed on restore
// from the entries and tail. Settling mutates the engine, but only into an
// equivalent state the pairwise path would have reached anyway.
//
// The encoding is deterministic (clients sorted by site, canonical op
// forms), so Checkpoint∘RestoreServer is byte-identical — the property
// TestCheckpointByteIdentity locks.
func (s *Server) Checkpoint() ([]byte, error) {
	for site, st := range s.clients {
		if len(st.unfolded) > 0 {
			if _, err := foldBridge(st.bridge, st.unfolded); err != nil {
				return nil, fmt.Errorf("core: checkpoint site %d: settle folds: %w", site, err)
			}
		}
		clearFolds(&st.unfolded)
		st.comp = nil
		st.compHold = false
	}

	b := make([]byte, 0, 256+s.buf.Len())
	b = append(b, ckptMagic...)
	b = binary.AppendUvarint(b, ckptVersion)
	b = binary.AppendUvarint(b, uint64(s.mode))
	b = binary.AppendUvarint(b, s.serverSeq)
	// The compaction phase travels too: a restored engine compacts on the
	// same schedule as the original, so differential continuation sees
	// identical history-buffer lengths, not just identical verdicts.
	b = binary.AppendUvarint(b, uint64(s.sinceCompact))
	b = appendVC(b, s.sv.v)
	b = appendString(b, s.buf.String())

	b = binary.AppendUvarint(b, uint64(s.hb.dropped))
	b = appendVC(b, s.hb.tail)
	b = binary.AppendUvarint(b, uint64(len(s.hb.entries)))
	for i := range s.hb.entries {
		e := &s.hb.entries[i]
		b = binary.AppendUvarint(b, uint64(e.Origin))
		b = appendRef(b, e.Ref)
		b = appendOp(b, e.Op)
	}

	sites := make([]int, 0, len(s.clients))
	for site := range s.clients {
		sites = append(sites, site)
	}
	sort.Ints(sites)
	b = binary.AppendUvarint(b, uint64(len(sites)))
	for _, site := range sites {
		st := s.clients[site]
		b = binary.AppendUvarint(b, uint64(site))
		if st.joined {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
		b = binary.AppendUvarint(b, st.baseline)
		b = binary.AppendUvarint(b, st.sent)
		b = binary.AppendUvarint(b, st.acked)
		// A materialised bridge is entries acked+1 … sent, so neither a
		// count nor the indices travel.
		if len(st.bridge) == 0 {
			b = append(b, 0)
			continue
		}
		b = append(b, 1)
		for i := range st.bridge {
			b = appendRef(b, st.bridge[i].ref)
			b = appendOp(b, st.bridge[i].op)
		}
	}
	return b, nil
}

// RestoreServer rebuilds a live engine from a Checkpoint. Engine options
// that configure behavior (compaction cadence, compose depth, metrics,
// decision ring, check trace) apply as usual; the document comes from the
// checkpoint, loaded into a fresh rope.
// The restored engine is observably equivalent to the one checkpointed: same
// verdicts, same broadcasts, same invariants (TestCheckpointContinuation
// runs the two side by side).
func RestoreServer(data []byte, opts ...ServerOption) (*Server, error) {
	d := &ckptReader{b: data}
	if !d.magic() {
		return nil, fmt.Errorf("core: restore: %w", ErrBadCheckpoint)
	}
	if v := d.uvarint(); v != ckptVersion {
		return nil, fmt.Errorf("core: restore: version %d: %w", v, ErrBadCheckpoint)
	}
	s := &Server{
		clients:      make(map[int]*clientState),
		compactEvery: 64,
		composeDepth: defaultComposeDepth,
	}
	for _, o := range opts {
		o(s)
	}
	s.mode = Mode(d.uvarint())
	s.serverSeq = d.uvarint()
	s.sinceCompact = int(d.uvarint())
	sv := d.vc()
	s.sv = &ServerSV{v: sv, sum: sv.Sum()}
	s.buf = doc.NewRope(d.str())

	s.hb.dropped = int(d.uvarint())
	s.hb.tail = d.vc()
	nEntries := int(d.uvarint())
	if d.err == nil && nEntries > len(d.b) {
		return nil, fmt.Errorf("core: restore: %d history entries in %d bytes: %w", nEntries, len(d.b), ErrBadCheckpoint)
	}
	s.hb.entries = make([]ServerEntry, 0, nEntries)
	for i := 0; i < nEntries && d.err == nil; i++ {
		e := ServerEntry{Origin: int(d.uvarint())}
		e.Ref = d.ref()
		e.Op = d.op()
		s.hb.entries = append(s.hb.entries, e)
	}
	// Recompute the derived history state from the entries and tail: counts
	// and byOrigin fall out of one forward pass, tailSum from the tail.
	s.hb.counts = vclock.New(len(s.hb.tail))
	s.hb.byOrigin = make([][]int, len(s.hb.tail))
	s.hb.tailSum = s.hb.tail.Sum()
	for i := range s.hb.entries {
		o := s.hb.entries[i].Origin
		s.hb.grow(o)
		s.hb.counts[o]++
		s.hb.byOrigin[o] = append(s.hb.byOrigin[o], s.hb.dropped+i)
	}

	nClients := int(d.uvarint())
	if d.err == nil && nClients > len(d.b) {
		return nil, fmt.Errorf("core: restore: %d clients in %d bytes: %w", nClients, len(d.b), ErrBadCheckpoint)
	}
	for i := 0; i < nClients && d.err == nil; i++ {
		site := int(d.uvarint())
		st := &clientState{joined: d.byte() == 1}
		st.baseline = d.uvarint()
		st.sent = d.uvarint()
		st.acked = d.uvarint()
		switch d.byte() {
		case 0: // derived: the pending set is read off the history entries
		case 1:
			nBridge := st.sent - st.acked
			if d.err == nil && (nBridge == 0 || nBridge > uint64(len(d.b))) {
				return nil, fmt.Errorf("core: restore: %d bridge ops in %d bytes: %w", nBridge, len(d.b), ErrBadCheckpoint)
			}
			for seq := st.acked + 1; seq <= st.sent && d.err == nil; seq++ {
				st.bridge = append(st.bridge, bridgeOp{seq: seq, ref: d.ref(), op: d.op()})
			}
		default:
			d.fail()
		}
		s.clients[site] = st
	}
	if d.err != nil {
		return nil, fmt.Errorf("core: restore: %w", d.err)
	}
	if len(d.b) != 0 {
		return nil, fmt.Errorf("core: restore: %d trailing bytes: %w", len(d.b), ErrBadCheckpoint)
	}
	s.warmCounters()
	return s, nil
}

// ErrBadCheckpoint reports a checkpoint RestoreServer cannot parse.
var ErrBadCheckpoint = fmt.Errorf("core: bad checkpoint")

// ckptMagic guards against feeding arbitrary bytes to RestoreServer;
// ckptVersion allows the format to evolve.
const (
	ckptMagic   = "cvckpt"
	ckptVersion = 2
)

func appendVC(b []byte, v vclock.VC) []byte {
	b = binary.AppendUvarint(b, uint64(len(v)))
	for _, x := range v {
		b = binary.AppendUvarint(b, x)
	}
	return b
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendRef(b []byte, r causal.OpRef) []byte {
	b = binary.AppendUvarint(b, uint64(r.Site))
	return binary.AppendUvarint(b, r.Seq)
}

// appendOp encodes an operation as its canonical component sequence: kind,
// then the inserted text for inserts or the rune count otherwise. Builder
// ops are always canonical, and restore rebuilds through the same builder
// (op.FromComps), so re-encoding a restored op is byte-identical.
func appendOp(b []byte, o *op.Op) []byte {
	comps := o.Comps()
	b = binary.AppendUvarint(b, uint64(len(comps)))
	for _, c := range comps {
		b = append(b, byte(c.Kind))
		if c.Kind == op.KInsert {
			b = appendString(b, c.S)
		} else {
			b = binary.AppendUvarint(b, uint64(c.N))
		}
	}
	return b
}

// ckptReader is a sticky-error cursor over checkpoint bytes: after the first
// malformed field every later read returns zero values and the error
// surfaces once at the end, keeping the decode loops linear instead of
// error-checked per field.
type ckptReader struct {
	b   []byte
	err error
}

func (d *ckptReader) fail() {
	if d.err == nil {
		d.err = ErrBadCheckpoint
	}
}

func (d *ckptReader) magic() bool {
	if len(d.b) < len(ckptMagic) || string(d.b[:len(ckptMagic)]) != ckptMagic {
		return false
	}
	d.b = d.b[len(ckptMagic):]
	return true
}

func (d *ckptReader) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *ckptReader) byte() byte {
	if d.err != nil {
		return 0
	}
	if len(d.b) == 0 {
		d.fail()
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

func (d *ckptReader) str() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.b)) {
		d.fail()
		return ""
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

func (d *ckptReader) vc() vclock.VC {
	n := d.uvarint()
	if d.err != nil || n > uint64(len(d.b)) {
		d.fail()
		return nil
	}
	v := vclock.New(int(n))
	for i := range v {
		v[i] = d.uvarint()
	}
	return v
}

func (d *ckptReader) ref() causal.OpRef {
	return causal.OpRef{Site: int(d.uvarint()), Seq: d.uvarint()}
}

func (d *ckptReader) op() *op.Op {
	n := d.uvarint()
	if d.err != nil || n > uint64(len(d.b)) {
		d.fail()
		return nil
	}
	comps := make([]op.Comp, 0, n)
	for i := uint64(0); i < n && d.err == nil; i++ {
		c := op.Comp{Kind: op.Kind(d.byte())}
		if c.Kind == op.KInsert {
			c.S = d.str()
		} else {
			c.N = int(d.uvarint())
		}
		comps = append(comps, c)
	}
	if d.err != nil {
		return nil
	}
	o, err := op.FromComps(comps)
	if err != nil {
		d.err = fmt.Errorf("%w: %v", ErrBadCheckpoint, err)
		return nil
	}
	return o
}
