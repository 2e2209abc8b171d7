package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/causal"
	"repro/internal/op"
)

// harness wires a notifier and a set of clients through per-link FIFO
// queues (the "TCP links" of the paper), recording every event into the
// ground-truth oracle and every concurrency decision for later validation.
type harness struct {
	t        *testing.T
	srv      *Server
	clients  map[int]*Client
	toServer map[int][]ClientMsg
	toClient map[int][]ServerMsg
	oracle   *causal.Oracle
	checks   []Check
	relay    bool

	// checkBridgeInvariant enables the concurrent-set ≡ pending/bridge-set
	// cross-validation on every delivery.
	checkBridgeInvariant bool
}

func newHarness(t *testing.T, nClients int, initial string, mode Mode, compactEvery int) *harness {
	return newHarnessDepth(t, nClients, initial, mode, compactEvery, defaultComposeDepth)
}

// newHarnessDepth builds a harness with an explicit composed-cache threshold:
// depth 1 forces the compose path onto every multi-entry walk (the adversarial
// setting for the cache bookkeeping), depth <= 0 disables composition (the
// pairwise reference the differential fuzz target compares against).
func newHarnessDepth(t *testing.T, nClients int, initial string, mode Mode, compactEvery, composeDepth int) *harness {
	h := &harness{
		t: t,
		srv: NewServer(initial, WithServerMode(mode), WithServerCompaction(compactEvery),
			WithServerCheckTrace(), WithServerComposeDepth(composeDepth)),
		clients:  make(map[int]*Client),
		toServer: make(map[int][]ClientMsg),
		toClient: make(map[int][]ServerMsg),
		oracle:   causal.NewOracle(),
		relay:    mode == ModeRelay,
	}
	for site := 1; site <= nClients; site++ {
		snap, err := h.srv.Join(site)
		if err != nil {
			t.Fatal(err)
		}
		h.clients[site] = NewClient(site, snap.Text,
			WithClientMode(mode), WithClientCompaction(compactEvery),
			WithClientCheckTrace(), WithClientComposeDepth(composeDepth))
	}
	return h
}

// generate produces one random local operation at site and queues it toward
// the server.
func (h *harness) generate(r *rand.Rand, site int, text string) {
	c := h.clients[site]
	n := c.DocLen()
	var o *op.Op
	var err error
	if n == 0 || r.Intn(100) < 70 {
		pos := 0
		if n > 0 {
			pos = r.Intn(n + 1)
		}
		o, err = op.NewInsert(n, pos, text)
	} else {
		pos := r.Intn(n)
		count := 1 + r.Intn(min(3, n-pos))
		o, err = op.NewDelete(n, pos, count)
	}
	if err != nil {
		h.t.Fatal(err)
	}
	m, err := c.Generate(o)
	if err != nil {
		h.t.Fatal(err)
	}
	h.oracle.Generate(site, m.Ref)
	h.toServer[site] = append(h.toServer[site], m)
}

// deliverToServer pops the head of site's upstream queue into the notifier.
func (h *harness) deliverToServer(site int) bool {
	q := h.toServer[site]
	if len(q) == 0 {
		return false
	}
	m := q[0]
	h.toServer[site] = q[1:]
	bcast, res, err := h.srv.Receive(m)
	if err != nil {
		h.t.Fatalf("server receive from %d: %v", site, err)
	}
	h.checks = append(h.checks, res.Checks...)
	h.oracle.Execute(0, m.Ref)
	if !h.relay {
		// The transformed op is a new operation generated at site 0,
		// derived from the client's original (paper §3.1, §5).
		newRef := causal.OpRef{Site: 0, Seq: h.serverSeq()}
		if len(bcast) > 0 {
			newRef = bcast[0].Ref
		}
		h.oracle.GenerateDerived(0, newRef, m.Ref)
	}
	if h.checkBridgeInvariant && !h.relay {
		// Formula (7)'s concurrent set must equal the unacked bridge
		// toward the originator (excluding entries GC'd from the HB).
		bridge := map[causal.OpRef]bool{}
		for _, ref := range h.srv.BridgeRefs(m.From) {
			bridge[ref] = true
		}
		for _, ch := range res.Checks {
			if ch.Concurrent && !bridge[ch.Buffered] {
				h.t.Fatalf("op %v: formula(7) says concurrent with %v but it is not in the bridge",
					m.Ref, ch.Buffered)
			}
		}
		concurrent := map[causal.OpRef]bool{}
		for _, ch := range res.Checks {
			if ch.Concurrent {
				concurrent[ch.Buffered] = true
			}
		}
		hbRefs := map[causal.OpRef]bool{}
		for _, e := range h.srv.History().Entries() {
			hbRefs[e.Ref] = true
		}
		for ref := range bridge {
			if hbRefs[ref] && !concurrent[ref] {
				h.t.Fatalf("op %v: bridge entry %v (still in HB) not flagged concurrent by formula(7)",
					m.Ref, ref)
			}
		}
	}
	if err := h.srv.CheckInvariants(); err != nil {
		h.t.Fatal(err)
	}
	for _, bm := range bcast {
		h.toClient[bm.To] = append(h.toClient[bm.To], bm)
	}
	return true
}

func (h *harness) serverSeq() uint64 {
	return uint64(h.srv.History().Len() + h.srv.History().Dropped())
}

// deliverToClient pops the head of site's downstream queue into its client.
func (h *harness) deliverToClient(site int) bool {
	q := h.toClient[site]
	if len(q) == 0 {
		return false
	}
	m := q[0]
	h.toClient[site] = q[1:]
	c := h.clients[site]
	res, err := c.Integrate(m)
	if err != nil {
		h.t.Fatalf("client %d integrate: %v", site, err)
	}
	if err := c.CheckInvariants(); err != nil {
		h.t.Fatal(err)
	}
	h.checks = append(h.checks, res.Checks...)
	h.oracle.Execute(site, m.Ref)
	if h.checkBridgeInvariant && !h.relay {
		// Formula (5)'s concurrent local entries must equal the pending
		// set after acknowledgement pruning.
		pending := map[uint64]bool{}
		for _, seq := range c.PendingSeqs() {
			pending[seq] = true
		}
		concLocal := map[uint64]bool{}
		for _, ch := range res.Checks {
			if ch.Concurrent && ch.Buffered.Site == site {
				concLocal[ch.Buffered.Seq] = true
			}
			if ch.Concurrent && ch.Buffered.Site != site {
				h.t.Fatalf("client %d: formula(5) flagged server-origin %v as concurrent — impossible under FIFO star",
					site, ch.Buffered)
			}
		}
		for seq := range concLocal {
			if !pending[seq] {
				h.t.Fatalf("client %d: concurrent local op seq %d not pending", site, seq)
			}
		}
		// Pending ops may exceed the concurrent set only by entries GC'd
		// out of the HB; with compaction disabled they must match exactly.
		for seq := range pending {
			if !concLocal[seq] {
				h.t.Fatalf("client %d: pending op seq %d not flagged concurrent by formula(5)", site, seq)
			}
		}
	}
	return true
}

// drain delivers every queued message (upstream first, then all downstream,
// repeating until quiescent).
func (h *harness) drain() {
	for {
		moved := false
		for site := range h.clients {
			for h.deliverToServer(site) {
				moved = true
			}
		}
		for site := range h.clients {
			for h.deliverToClient(site) {
				moved = true
			}
		}
		if !moved {
			return
		}
	}
}

// converged asserts all replicas (including site 0) hold identical text and
// returns it.
func (h *harness) converged() string {
	want := h.srv.Text()
	for site, c := range h.clients {
		if c.Text() != want {
			h.t.Fatalf("divergence: site %d %q, site 0 %q", site, c.Text(), want)
		}
	}
	return want
}

// validateChecks seals the oracle and compares every recorded concurrency
// decision with ground truth, returning the number of mismatches.
func (h *harness) validateChecks() int {
	h.oracle.Seal()
	mismatches := 0
	for _, ch := range h.checks {
		if ch.Concurrent != h.oracle.Concurrent(ch.Arriving, ch.Buffered) {
			mismatches++
		}
	}
	return mismatches
}

// run executes a random session: steps interleaved generations and
// deliveries, then a final drain.
func (h *harness) run(r *rand.Rand, steps int) {
	sites := make([]int, 0, len(h.clients))
	for s := range h.clients {
		sites = append(sites, s)
	}
	opID := 0
	for i := 0; i < steps; i++ {
		site := sites[r.Intn(len(sites))]
		switch r.Intn(4) {
		case 0, 1:
			opID++
			h.generate(r, site, fmt.Sprintf("<%d>", opID))
		case 2:
			h.deliverToServer(site)
		default:
			h.deliverToClient(site)
		}
	}
	h.drain()
}

// TestRandomSessionsConverge: many seeds, several cluster sizes, both with
// and without history compaction — replicas must converge and every
// compressed-clock verdict must match the Definition-1 oracle (experiment
// E5 in miniature).
func TestRandomSessionsConverge(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8} {
		for seed := int64(0); seed < 6; seed++ {
			for _, compact := range []int{0, 4} {
				// Depth 1 forces the composed cache onto every walk; the
				// default threshold exercises the threshold crossover.
				for _, depth := range []int{defaultComposeDepth, 1} {
					name := fmt.Sprintf("n=%d/seed=%d/compact=%d/depth=%d", n, seed, compact, depth)
					t.Run(name, func(t *testing.T) {
						h := newHarnessDepth(t, n, "seed text", ModeTransform, compact, depth)
						h.checkBridgeInvariant = compact == 0
						h.run(rand.New(rand.NewSource(seed)), 400)
						h.converged()
						if mm := h.validateChecks(); mm != 0 {
							t.Fatalf("%d concurrency verdicts disagree with the oracle", mm)
						}
					})
				}
			}
		}
	}
}

// pickBoundary returns a random rune offset that does not fall inside a
// "<...>" marker.
func pickBoundary(r *rand.Rand, text string) int {
	var boundaries []int
	depth := 0
	i := 0
	for _, ch := range text {
		if depth == 0 {
			boundaries = append(boundaries, i)
		}
		switch ch {
		case '<':
			depth++
		case '>':
			depth--
		}
		i++
	}
	boundaries = append(boundaries, i)
	return boundaries[r.Intn(len(boundaries))]
}

// TestInsertOnlyIntentionPreservation: with an insert-only workload every
// inserted marker must appear in the converged document exactly once —
// concurrent inserts may interleave but never destroy each other
// (intention preservation, paper §2.2).
func TestInsertOnlyIntentionPreservation(t *testing.T) {
	r := rand.New(rand.NewSource(4242))
	h := newHarness(t, 4, "", ModeTransform, 0)
	h.checkBridgeInvariant = true
	var markers []string
	sites := []int{1, 2, 3, 4}
	for i := 0; i < 250; i++ {
		site := sites[r.Intn(len(sites))]
		switch r.Intn(3) {
		case 0:
			marker := fmt.Sprintf("<%d>", i)
			markers = append(markers, marker)
			c := h.clients[site]
			// Insert only at marker boundaries: splitting someone else's
			// marker on purpose is a legitimate edit, not an intention
			// violation, so the exactly-once assertion needs edits that
			// keep markers atomic.
			pos := pickBoundary(r, c.Text())
			o, err := op.NewInsert(c.DocLen(), pos, marker)
			if err != nil {
				t.Fatal(err)
			}
			m, err := c.Generate(o)
			if err != nil {
				t.Fatal(err)
			}
			h.oracle.Generate(site, m.Ref)
			h.toServer[site] = append(h.toServer[site], m)
		case 1:
			h.deliverToServer(site)
		default:
			h.deliverToClient(site)
		}
	}
	h.drain()
	final := h.converged()
	for _, m := range markers {
		if got := strings.Count(final, m); got != 1 {
			t.Fatalf("marker %q appears %d times in %q — intention violated", m, got, final)
		}
	}
	if mm := h.validateChecks(); mm != 0 {
		t.Fatalf("%d verdict mismatches", mm)
	}
}

// TestRelayModeBreaks reproduces the paper's §6 claim as a *negative* test:
// with the notifier relaying original operations, either replicas diverge or
// the 2-element verdicts disagree with ground truth (usually both) on
// workloads with real concurrency.
func TestRelayModeBreaks(t *testing.T) {
	broken := 0
	const trials = 12
	for seed := int64(0); seed < trials; seed++ {
		h := newHarness(t, 4, "the quick brown fox", ModeRelay, 0)
		h.run(rand.New(rand.NewSource(seed)), 300)
		diverged := false
		want := h.srv.Text()
		for _, c := range h.clients {
			if c.Text() != want {
				diverged = true
			}
		}
		if diverged || h.validateChecks() > 0 {
			broken++
		}
	}
	if broken == 0 {
		t.Fatalf("relay mode behaved correctly across %d random sessions — the ablation should break", trials)
	}
}

// TestSingleClientSessionIsTrivial: with one client there is no concurrency;
// everything must flow through unchanged.
func TestSingleClientSessionIsTrivial(t *testing.T) {
	h := newHarness(t, 1, "", ModeTransform, 0)
	c := h.clients[1]
	for i := 0; i < 20; i++ {
		m, err := c.Insert(c.DocLen(), fmt.Sprintf("%d,", i))
		if err != nil {
			t.Fatal(err)
		}
		h.oracle.Generate(1, m.Ref)
		h.toServer[1] = append(h.toServer[1], m)
	}
	h.drain()
	if h.srv.Text() != c.Text() {
		t.Fatalf("server %q != client %q", h.srv.Text(), c.Text())
	}
	if c.SV().FromServer != 0 {
		t.Fatalf("sole client must receive nothing, got %d", c.SV().FromServer)
	}
}
