package core

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/causal"
	"repro/internal/op"
)

// ckptHarness couples a server to lagging clients: broadcasts park in
// per-site FIFO inboxes and each step delivers only a random prefix, so
// bridges, deferred folds, and a non-trivial history buffer all exist at
// checkpoint time without ever violating the per-link FIFO the paper
// assumes.
type ckptHarness struct {
	clients map[int]*Client
	inbox   map[int][]ServerMsg
	acks    *rand.Rand // ackSome's own source
}

func (h *ckptHarness) enqueue(msgs []ServerMsg) {
	for _, sm := range msgs {
		h.inbox[sm.To] = append(h.inbox[sm.To], sm)
	}
}

func (h *ckptHarness) deliverSome(t *testing.T, rng *rand.Rand) {
	t.Helper()
	// Ascending site order, not map order: a seed names one schedule.
	for site := 1; site <= len(h.clients); site++ {
		c, q := h.clients[site], h.inbox[site]
		for len(q) > 0 && rng.Intn(3) != 0 {
			if _, err := c.Integrate(q[0]); err != nil {
				t.Fatal(err)
			}
			q = q[1:]
		}
		h.inbox[site] = q
	}
}

// ackSome has each site, one time in two, report how far it has read to every
// engine given — the same bare acknowledgement to each, so engines that agreed
// before still must. Operations reach the notifier the moment they are
// generated here, so the upstream links are empty and an acknowledgement
// overtakes nothing. Draws come from the harness's own source: the scripted
// schedule is the same with acknowledgements and without.
func (h *ckptHarness) ackSome(t *testing.T, engines ...*Server) {
	t.Helper()
	for site := 1; site <= len(h.clients); site++ {
		if h.acks.Intn(2) != 0 {
			continue
		}
		t1 := h.clients[site].SV().FromServer
		for _, s := range engines {
			if err := s.Ack(site, t1); err != nil {
				t.Fatalf("ack %d from site %d: %v", t1, site, err)
			}
			if err := s.checkInvariants(); err != nil {
				t.Fatalf("after ack %d from site %d: %v", t1, site, err)
			}
		}
	}
}

// ckptScriptServer drives a server through a deterministic multi-site
// workload with lagging acknowledgements and returns it mid-session. Sites
// 1–4 write; 5 and 6 only read, so a checkpoint sees both forms of bridge:
// writers caught mid-transformation hold a materialised copy, the silent
// sites' pending broadcasts exist only as history entries.
func ckptScriptServer(t *testing.T, seed int64, steps int, opts ...ServerOption) (*Server, *ckptHarness) {
	t.Helper()
	return ckptScript(t, seed, steps, false, opts...)
}

// ckptScript is ckptScriptServer, optionally with bare acknowledgements from
// writers and readers landing between the steps.
func ckptScript(t *testing.T, seed int64, steps int, acking bool, opts ...ServerOption) (*Server, *ckptHarness) {
	t.Helper()
	s := NewServer("the quick brown fox", opts...)
	rng := rand.New(rand.NewSource(seed))
	h := &ckptHarness{clients: make(map[int]*Client), inbox: make(map[int][]ServerMsg),
		acks: rand.New(rand.NewSource(seed ^ 0xacc))}
	for site := 1; site <= 6; site++ {
		snap, err := s.Join(site)
		if err != nil {
			t.Fatal(err)
		}
		h.clients[site] = NewClient(snap.Site, snap.Text)
	}
	alphabet := []rune("abcdefgh ")
	for i := 0; i < steps; i++ {
		site := 1 + rng.Intn(4)
		c := h.clients[site]
		var o *op.Op
		dl := c.DocLen()
		switch {
		case dl > 0 && rng.Intn(3) == 0:
			at := rng.Intn(dl)
			n := 1 + rng.Intn(minCk(3, dl-at))
			o = op.New().Retain(at).Delete(n).Retain(dl - at - n)
		default:
			at := rng.Intn(dl + 1)
			o = op.New().Retain(at).Insert(string(alphabet[rng.Intn(len(alphabet))])).Retain(dl - at)
		}
		cm, err := c.Generate(o)
		if err != nil {
			t.Fatal(err)
		}
		msgs, _, err := s.Receive(cm)
		if err != nil {
			t.Fatal(err)
		}
		h.enqueue(msgs)
		h.deliverSome(t, rng)
		if acking {
			h.ackSome(t, s)
		}
	}
	// Leave a writer mid-transformation: site 1 edits and nobody reads it, so
	// site 2's next edit races at least that one broadcast.
	for site := 1; site <= 2; site++ {
		cm, err := h.clients[site].Insert(0, "!")
		if err != nil {
			t.Fatal(err)
		}
		msgs, _, err := s.Receive(cm)
		if err != nil {
			t.Fatal(err)
		}
		h.enqueue(msgs)
	}
	return s, h
}

// bridgeForms counts the joined sites whose bridge is materialised and those
// with pending broadcasts held only in derived form.
func bridgeForms(s *Server) (materialised, derived int) {
	for _, st := range s.clients {
		switch {
		case !st.joined:
		case len(st.bridge) > 0:
			materialised++
		case st.sent > st.acked:
			derived++
		}
	}
	return materialised, derived
}

func minCk(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// TestCheckpointByteIdentity locks the determinism contract:
// Checkpoint(RestoreServer(cp)) == cp, for engines in assorted mid-session
// states.
func TestCheckpointByteIdentity(t *testing.T) {
	for _, acking := range []bool{false, true} {
		for seed := int64(1); seed <= 5; seed++ {
			s, h := ckptScript(t, seed, 120, acking)
			if m, d := bridgeForms(s); m == 0 || d == 0 {
				t.Fatalf("seed %d: %d materialised and %d derived bridges at checkpoint, want both", seed, m, d)
			}
			cp, err := s.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			r, err := RestoreServer(cp)
			if err != nil {
				t.Fatal(err)
			}
			if m, d := bridgeForms(s); m == 0 || d == 0 {
				t.Fatalf("seed %d: checkpointing left %d materialised and %d derived bridges", seed, m, d)
			}
			if err := r.checkInvariants(); err != nil {
				t.Fatalf("seed %d: restored engine: %v", seed, err)
			}
			cp2, err := r.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(cp, cp2) {
				t.Fatalf("seed %d: re-checkpoint differs: %d vs %d bytes", seed, len(cp), len(cp2))
			}
			if !acking {
				continue
			}
			// Acknowledgements landing after the checkpoint move the original
			// and the restored engine to the same bytes again.
			h.ackSome(t, s, r)
			cp, err = s.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			if cp2, err = r.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(cp, cp2) {
				t.Fatalf("seed %d: checkpoints differ after the same acknowledgements: %d vs %d bytes", seed, len(cp), len(cp2))
			}
		}
	}
}

// TestCheckpointContinuation is the differential guarantee dehydration rests
// on: freeze an engine mid-session, restore it, and drive the restored copy
// and the original through the same remaining workload — every broadcast,
// timestamp, and final document must match.
func TestCheckpointContinuation(t *testing.T) {
	for seed := int64(10); seed <= 17; seed++ {
		// The second four seeds run with bare acknowledgements landing before
		// the checkpoint and, identically on both engines, after it.
		acking := seed > 13
		s, h := ckptScript(t, seed, 150, acking)
		if m, d := bridgeForms(s); m == 0 || d == 0 {
			t.Fatalf("seed %d: %d materialised and %d derived bridges at checkpoint, want both", seed, m, d)
		}
		cp, err := s.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		r, err := RestoreServer(cp)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := r.Text(), s.Text(); got != want {
			t.Fatalf("seed %d: restored text %q, want %q", seed, got, want)
		}
		if got, want := r.History().Len(), s.History().Len(); got != want {
			t.Fatalf("seed %d: restored HB len %d, want %d", seed, got, want)
		}

		// Same post-checkpoint workload against both engines.
		rng := rand.New(rand.NewSource(seed * 77))
		// The restored engine serves the same clients: clone their outgoing
		// streams by generating each op once and feeding both engines.
		for i := 0; i < 100; i++ {
			site := 1 + rng.Intn(4)
			c := h.clients[site]
			dl := c.DocLen()
			at := rng.Intn(dl + 1)
			o := op.New().Retain(at).Insert(string(rune('a' + rng.Intn(26)))).Retain(dl - at)
			cm, err := c.Generate(o)
			if err != nil {
				t.Fatal(err)
			}
			m1, res1, err1 := s.Receive(cm)
			m2, res2, err2 := r.Receive(cm)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("seed %d step %d: errs diverge: %v vs %v", seed, i, err1, err2)
			}
			if err1 != nil {
				t.Fatal(err1)
			}
			if res1.ConcurrentCount != res2.ConcurrentCount || res1.CheckCount != res2.CheckCount {
				t.Fatalf("seed %d step %d: verdicts diverge: %d/%d vs %d/%d",
					seed, i, res1.ConcurrentCount, res1.CheckCount, res2.ConcurrentCount, res2.CheckCount)
			}
			if len(m1) != len(m2) {
				t.Fatalf("seed %d step %d: %d vs %d broadcasts", seed, i, len(m1), len(m2))
			}
			for j := range m1 {
				if m1[j].To != m2[j].To || m1[j].TS != m2[j].TS || !m1[j].Op.Equal(m2[j].Op) {
					t.Fatalf("seed %d step %d: broadcast %d diverges:\n  %v %v %v\n  %v %v %v",
						seed, i, j, m1[j].To, m1[j].TS, m1[j].Op, m2[j].To, m2[j].TS, m2[j].Op)
				}
			}
			// Deliver the original engine's broadcasts (identical to the
			// restored one's) so the shared clients advance, still FIFO.
			h.enqueue(m1)
			h.deliverSome(t, rng)
			if acking {
				h.ackSome(t, s, r)
				if got, want := r.History().Len(), s.History().Len(); got != want {
					t.Fatalf("seed %d step %d: restored HB len %d, original %d", seed, i, got, want)
				}
			}
		}
		if s.Text() != r.Text() {
			t.Fatalf("seed %d: final texts diverge", seed)
		}
		if err := r.checkInvariants(); err != nil {
			t.Fatalf("seed %d: restored engine: %v", seed, err)
		}
	}
}

// TestCheckpointAfterLeave: departed sites survive the round trip (their
// counters stay in SV_0) and can rejoin the restored engine.
func TestCheckpointAfterLeave(t *testing.T) {
	s, _ := ckptScriptServer(t, 42, 80)
	if err := s.Leave(3); err != nil {
		t.Fatal(err)
	}
	cp, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	r, err := RestoreServer(cp)
	if err != nil {
		t.Fatal(err)
	}
	for _, site := range s.Sites() {
		if got, want := r.SentTo(site), s.SentTo(site); got != want {
			t.Fatalf("site %d: sent %d, want %d", site, got, want)
		}
	}
	snap1, err1 := s.Join(3)
	snap2, err2 := r.Join(3)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if snap1 != snap2 {
		t.Fatalf("rejoin snapshots diverge: %+v vs %+v", snap1, snap2)
	}
}

// TestRestoreRejectsCorrupt: truncations and bit flips fail cleanly instead
// of producing a quietly wrong engine.
func TestRestoreRejectsCorrupt(t *testing.T) {
	s, _ := ckptScriptServer(t, 7, 60)
	cp, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreServer(nil); err == nil {
		t.Fatal("restore of nil succeeded")
	}
	if _, err := RestoreServer([]byte("not a checkpoint")); err == nil {
		t.Fatal("restore of garbage succeeded")
	}
	for _, cut := range []int{1, len(cp) / 4, len(cp) / 2, len(cp) - 1} {
		if _, err := RestoreServer(cp[:cut]); err == nil {
			t.Fatalf("restore of %d-byte truncation succeeded", cut)
		}
	}
	if _, err := RestoreServer(append(append([]byte{}, cp...), 0)); err == nil {
		t.Fatal("restore with trailing bytes succeeded")
	}
}

// TestCheckpointRelayMode: the §6 ablation engine round-trips too (mode is
// part of the format).
func TestCheckpointRelayMode(t *testing.T) {
	s := NewServer("abc", WithServerMode(ModeRelay))
	if _, err := s.Join(1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Join(2); err != nil {
		t.Fatal(err)
	}
	o := op.New().Retain(3).Insert("!")
	if _, _, err := s.Receive(ClientMsg{From: 1, Op: o, TS: Timestamp{T1: 0, T2: 1}, Ref: causal.OpRef{Site: 1, Seq: 1}}); err != nil {
		t.Fatal(err)
	}
	cp, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	r, err := RestoreServer(cp)
	if err != nil {
		t.Fatal(err)
	}
	if r.Mode() != ModeRelay {
		t.Fatalf("restored mode %v, want relay", r.Mode())
	}
	if r.Text() != "abc!" {
		t.Fatalf("restored text %q", r.Text())
	}
}

// TestCheckpointSizeIsCompact sanity-checks the dehydration win: a parked
// session's bytes are on the order of the document plus the history buffer
// plus the bridges caught materialised — not the engine's in-memory
// footprint, and not one copy of the history per lagging site.
func TestCheckpointSizeIsCompact(t *testing.T) {
	s, _ := ckptScriptServer(t, 99, 200)
	cp, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	pending, stored := 0, 0
	for site, st := range s.clients {
		pending += s.BridgeLen(site)
		stored += len(st.bridge)
	}
	if stored == 0 || stored*2 > pending {
		t.Fatalf("%d of %d pending broadcasts are materialised; the script should leave most of them derived", stored, pending)
	}
	// Loose ceiling: doc bytes + ~64 bytes per stored op (HB + materialised
	// bridges) + a fixed header. Tightening it is fine; regressing past it
	// means the format grew something per-entry it should not have.
	limit := len(s.Text()) + 64*(s.History().Len()+stored) + 256
	if len(cp) > limit {
		t.Fatalf("checkpoint %d bytes exceeds ceiling %d (doc=%d hb=%d materialised=%d)",
			len(cp), limit, len(s.Text()), s.History().Len(), stored)
	}
	t.Logf("checkpoint: %d bytes (doc=%d, hb=%d entries, %d of %d pending broadcasts materialised)",
		len(cp), len(s.Text()), s.History().Len(), stored, pending)
}
