package core

import (
	"fmt"
	"sort"

	"repro/internal/causal"
	"repro/internal/doc"
	"repro/internal/obs"
	"repro/internal/obs/span"
	"repro/internal/op"
)

// Server is the engine of the notifier (site 0, the center of the star in
// paper Fig. 1). It maintains a full copy of the shared document, the full
// N-element state vector SV_0 and the history buffer with full-vector
// timestamps. Each executed operation is stored once, there: a client's
// outgoing bridge is a view of the buffer, copied out per client only while
// that client has operations in transformation (clientState.bridge).
//
// For every operation received from site x it:
//
//  1. detects concurrent buffered operations with formula (7);
//  2. transforms the operation into its own context and executes it — the
//     transformed operation is a *new* operation generated at site 0;
//  3. re-timestamps it per destination with formulas (1)–(2) and returns
//     the broadcast messages (everyone but x).
//
// Like Client, the engine is synchronous; transports serialize calls.
type Server struct {
	mode Mode
	sv   *ServerSV
	buf  *doc.Rope
	hb   ServerHB

	serverSeq uint64 // operations executed at site 0 (its generation counter)

	clients map[int]*clientState

	// dests caches the joined destinations in ascending site order so
	// Receive neither rebuilds nor re-sorts the broadcast list per
	// operation; Join/Leave invalidate it (nil = dirty).
	dests []destRef

	compactEvery int
	sinceCompact int

	// composeDepth is the bridge depth at which Receive builds the
	// composed-suffix cache (defaultComposeDepth unless overridden; <= 0
	// disables composition, restoring the pairwise walk unconditionally).
	composeDepth int

	// checkTrace records per-entry Check verdicts into IntegrationResult
	// (WithServerCheckTrace); off by default so the hot path performs zero
	// per-check allocations.
	checkTrace bool

	// metrics, when non-nil, receives engine counters (counters.go names).
	metrics *obs.Registry

	// decisions, when non-nil and enabled, records every formula-(7)
	// verdict and a per-Receive summary (WithServerDecisionRing). Disabled
	// rings cost one atomic load per Receive.
	decisions     *obs.DecisionRing
	decisionLabel string

	// spans, when non-nil, receives per-stage lifecycle stamps for sampled
	// operations (WithServerSpans). A nil or disabled tracer costs one
	// atomic load per stamp point.
	spans *span.Tracer
}

// destRef pairs a joined site with its state so the broadcast loop does no
// map lookups.
type destRef struct {
	site int
	st   *clientState
}

// clientState is the per-client bookkeeping at the notifier.
type clientState struct {
	joined bool
	// baseline is Σ SV_0 at join time: operations already folded into the
	// joiner's snapshot (zero for founding members).
	baseline uint64
	// sent counts broadcasts to this client; equals SumExcept(site) −
	// baseline at all times (asserted in tests).
	sent uint64
	// acked is the highest T1 received from this client — on an operation, a
	// presence report or a bare acknowledgement (Server.Ack).
	acked uint64
	// bridge is the materialised form of the site's pending broadcasts
	// (index acked+1 … sent). By DESIGN.md §4 that set is the history
	// buffer's entries from other sites above baseline+acked, and a site
	// with nothing in transformation keeps it only in that derived form
	// (ServerHB.Pending): bridge is nil. The first arrival that finds the
	// set non-empty must rebase its members against the site's own
	// operations, which the shared buffer entries cannot absorb, so
	// bridgeWalk copies them here; Receive appends while the copy exists,
	// and ack drops it the moment an acknowledgement empties it.
	bridge []bridgeOp

	// comp, when non-nil, is the composition of the entire bridge (oldest →
	// newest): one Transform against comp brings an incoming operation into
	// server context in O(1) instead of len(bridge) pairwise transforms.
	// Receive keeps it covering the whole bridge by composing every new
	// broadcast onto it (compose-on-append) and drops it whenever an
	// acknowledgement prunes the bridge.
	comp *op.Op
	// unfolded records the operations integrated through comp whose
	// pairwise rebase of the individual bridge entries is still owed;
	// settling is deferred until the next acknowledgement forces a prune —
	// and skipped entirely when the acknowledgement covers the whole
	// bridge, which is where a lagged site's catch-up burst wins.
	unfolded []deferredFold
	// compHold suspends composition until the next acknowledgement
	// advances the frontier: an arrival failed op.ComposedTransformSafe
	// against this bridge, so rebuilding the cache every operation would
	// pay the compose cost without ever taking the fast path.
	compHold bool
}

// deferredFold is one incoming operation integrated via the composed cache
// whose rebase of the individual bridge/pending entries was deferred. maxSeq
// bounds the entries it owes: entries appended later already embed its
// effect (they were executed on the post-integration document).
type deferredFold struct {
	op     *op.Op // the operation as received, pre-transform
	maxSeq uint64 // newest bridge/pending seq at integration time
}

// ack records that the site has received the first t1 broadcasts toward it:
// it advances acked and, for a materialised bridge, drops the covered prefix
// — entries with seq <= t1 are causally before whatever the site sent and
// leave the concurrent suffix. The frontier moved, so the composed cache no
// longer matches the suffix: deferred folds are settled first if any entry
// survives (a full prune skips the replay — those entries are never consulted
// again) and the cache is dropped. Survivors are copied down and the vacated
// tail zeroed so acknowledged operations are not pinned by the backing array;
// a bridge emptied outright returns to the derived form. It reports the
// Transform calls spent settling.
func (st *clientState) ack(t1 uint64) (int, error) {
	if t1 <= st.acked {
		return 0, nil
	}
	i := 0
	for i < len(st.bridge) && st.bridge[i].seq <= t1 {
		i++
	}
	transforms := 0
	if i > 0 {
		if len(st.unfolded) > 0 && i < len(st.bridge) {
			var err error
			if transforms, err = foldBridge(st.bridge, st.unfolded); err != nil {
				return transforms, err
			}
		}
		clearFolds(&st.unfolded)
		st.comp = nil
		st.compHold = false
		if i == len(st.bridge) {
			st.bridge = nil
		} else {
			n := copy(st.bridge, st.bridge[i:])
			clear(st.bridge[n:])
			st.bridge = st.bridge[:n]
		}
	}
	st.acked = t1
	return transforms, nil
}

// dropBridge discards the materialised bridge and its composed cache: the
// site left, or rejoined from a fresh snapshot.
func (st *clientState) dropBridge() {
	st.bridge = nil
	st.comp = nil
	st.unfolded = nil
	st.compHold = false
}

// clearFolds empties a fold list, zeroing entries so the dropped *op.Op
// values are not pinned against the GC by the reused backing array.
func clearFolds(list *[]deferredFold) {
	for i := range *list {
		(*list)[i] = deferredFold{}
	}
	*list = (*list)[:0]
}

// defaultComposeDepth is the bridge/pending depth at which the engines stop
// walking entries pairwise and build the composed-suffix cache instead. A
// build costs depth−1 Compose calls and pays off from the second operation
// integrated at the same causal frontier, so the threshold keeps shallow
// interactive sessions — where the pairwise walk is already cheap — off the
// compose path and reserves it for genuinely lagged bridges.
const defaultComposeDepth = 16

type bridgeOp struct {
	seq uint64 // broadcast index toward this client (1-based)
	op  *op.Op
	ref causal.OpRef
}

// ServerOption configures a Server.
type ServerOption func(*Server)

// WithServerMode sets the operating mode (default: ModeTransform).
func WithServerMode(m Mode) ServerOption {
	return func(s *Server) { s.mode = m }
}

// WithServerCompaction enables automatic history compaction every n
// received operations (default 64; 0 disables).
func WithServerCompaction(n int) ServerOption {
	return func(s *Server) { s.compactEvery = n }
}

// WithServerComposeDepth sets the bridge depth at which Receive switches
// from the pairwise transform walk to the composed-suffix cache (default
// defaultComposeDepth). n <= 0 disables composition entirely — the naive
// reference path the differential fuzz target compares against.
func WithServerComposeDepth(n int) ServerOption {
	return func(s *Server) { s.composeDepth = n }
}

// WithServerMetrics counts received operations, concurrency checks,
// transformations, cache use, compactions and acknowledgements into reg.
func WithServerMetrics(reg *obs.Registry) ServerOption {
	return func(s *Server) { s.metrics = reg }
}

// WithServerDecisionRing streams every formula-(7) concurrency verdict and a
// per-Receive integration summary into ring, labeled with session (the
// /tracez source). Unlike WithServerCheckTrace this shares one bounded ring
// across engines and can be toggled at runtime; while the ring is disabled
// the engine skips record construction entirely.
func WithServerDecisionRing(ring *obs.DecisionRing, session string) ServerOption {
	return func(s *Server) {
		s.decisions = ring
		s.decisionLabel = session
	}
}

// WithServerSpans attaches the op-lifecycle tracer: Receive stamps the
// formula-(7) check, transform, and execute stages of sampled operations
// and propagates their trace context into every broadcast message.
func WithServerSpans(tr *span.Tracer) ServerOption {
	return func(s *Server) { s.spans = tr }
}

// WithServerCheckTrace records every per-entry concurrency verdict into
// IntegrationResult.Checks. Validation harnesses need the trace to replay
// verdicts against the ground-truth oracle; production servers should leave
// it off — the default path only counts (ConcurrentCount/CheckCount) and
// allocates nothing per check.
func WithServerCheckTrace() ServerOption {
	return func(s *Server) { s.checkTrace = true }
}

// count increments a counter when a registry is attached.
func (s *Server) count(name string, delta int64) {
	if s.metrics != nil {
		s.metrics.Counter(name).Add(delta)
	}
}

// NewServer returns a notifier initialized with the given document.
func NewServer(initial string, opts ...ServerOption) *Server {
	s := &Server{
		sv:           NewServerSV(0),
		clients:      make(map[int]*clientState),
		compactEvery: 64,
		composeDepth: defaultComposeDepth,
	}
	for _, o := range opts {
		o(s)
	}
	s.buf = doc.NewRope(initial)
	s.warmCounters()
	return s
}

// warmCounters pre-creates the counters that only some sessions ever bump, so
// an attached registry exposes the full catalogue deterministically — not only
// after the first deep bridge or the first bare acknowledgement
// (TestMetricsCatalog locks the exact name set).
func (s *Server) warmCounters() {
	for _, name := range [...]string{CCacheHits, CCacheMisses, CComposes, CAcksReceived, CAcksStale} {
		s.count(name, 0)
	}
}

// Mode returns the operating mode.
func (s *Server) Mode() Mode { return s.mode }

// Text returns the notifier's copy of the document.
func (s *Server) Text() string { return s.buf.String() }

// DocLen returns the current document length in runes.
func (s *Server) DocLen() int { return s.buf.Len() }

// SV returns a copy-backed view of the full state vector.
func (s *Server) SV() *ServerSV { return s.sv }

// History exposes the notifier's history buffer.
func (s *Server) History() *ServerHB { return &s.hb }

// Sites returns the ids of all joined sites, in no particular order.
func (s *Server) Sites() []int {
	out := make([]int, 0, len(s.clients))
	for id, st := range s.clients {
		if st.joined {
			out = append(out, id)
		}
	}
	return out
}

// SentTo returns the number of broadcasts sent to site since it joined.
func (s *Server) SentTo(site int) uint64 {
	if st, ok := s.clients[site]; ok && st.joined {
		return st.sent
	}
	return 0
}

// BridgeLen returns the number of unacknowledged broadcasts toward site —
// the logical bridge depth, whether or not the bridge is materialised.
func (s *Server) BridgeLen(site int) int {
	if st, ok := s.clients[site]; ok && st.joined {
		return int(st.sent - st.acked)
	}
	return 0
}

// Join registers site and returns the snapshot it must initialize from. A
// founding member joining before any operation flows has baseline zero; a
// late joiner's snapshot carries the current document, and its compressed
// clock starts fresh relative to that snapshot.
func (s *Server) Join(site int) (Snapshot, error) {
	if site < 1 {
		return Snapshot{}, fmt.Errorf("%w: site ids start at 1", ErrBadMessage)
	}
	if st, ok := s.clients[site]; ok && st.joined {
		return Snapshot{}, fmt.Errorf("%w: site %d already joined", ErrBadMessage, site)
	}
	if st, ok := s.clients[site]; ok && !st.joined {
		// Rejoining after a leave: the site id keeps its operation counts
		// (SV_0 is monotone) but restarts from a fresh snapshot. The
		// baseline excludes the site's own counter — T1 counts broadcasts
		// toward it, which its own operations never contribute to.
		st.joined = true
		st.baseline = s.sv.SumExcept(site)
		st.sent = 0
		st.acked = 0
		st.dropBridge()
		s.dests = nil
		return Snapshot{Site: site, Text: s.buf.String(), LocalOps: s.sv.Of(site)}, nil
	}
	s.sv.Grow(site)
	s.hb.Grow(site)
	s.clients[site] = &clientState{joined: true, baseline: s.sv.SumExcept(site)}
	s.dests = nil
	return Snapshot{Site: site, Text: s.buf.String(), LocalOps: s.sv.Of(site)}, nil
}

// Leave deregisters a site. Its counters remain in SV_0 — the compression
// sums must keep counting its past operations.
func (s *Server) Leave(site int) error {
	st, ok := s.clients[site]
	if !ok || !st.joined {
		return fmt.Errorf("%w: site %d not joined", ErrBadMessage, site)
	}
	st.joined = false
	st.dropBridge()
	s.dests = nil
	return nil
}

// destinations returns the joined sites in ascending order, rebuilding the
// cache after a Join/Leave invalidated it.
func (s *Server) destinations() []destRef {
	if s.dests == nil {
		s.dests = make([]destRef, 0, len(s.clients))
		for site, st := range s.clients {
			if st.joined {
				s.dests = append(s.dests, destRef{site: site, st: st})
			}
		}
		sort.Slice(s.dests, func(i, j int) bool { return s.dests[i].site < s.dests[j].site })
	}
	return s.dests
}

// Precheck validates an incoming operation against the engine's state
// without applying it: the site must be joined and the timestamps must
// respect the FIFO discipline. A message that passes Precheck will be
// accepted by Receive (absent engine bugs) — persistence layers use this to
// write-ahead-log only acceptable operations.
func (s *Server) Precheck(m ClientMsg) error {
	if _, err := s.acker(m.From, m.TS.T1, "operation"); err != nil {
		return err
	}
	if m.Op == nil {
		return fmt.Errorf("%w: nil op from site %d", ErrBadMessage, m.From)
	}
	if m.TS.T2 != s.sv.Of(m.From)+1 {
		return fmt.Errorf("%w: site %d op T2=%d but SV_0[%d]=%d (FIFO violated?)",
			ErrBadMessage, m.From, m.TS.T2, m.From, s.sv.Of(m.From))
	}
	return nil
}

// acker returns the state of a site that may acknowledge t1 broadcasts: it
// must be joined, and it cannot have received more than it was sent. Every
// carrier of a T1 — operation, presence report, bare acknowledgement — passes
// through here; what names the carrier in the error.
func (s *Server) acker(site int, t1 uint64, what string) (*clientState, error) {
	st, ok := s.clients[site]
	if !ok || !st.joined {
		return nil, fmt.Errorf("%w: %s from unknown site %d", ErrBadMessage, what, site)
	}
	if t1 > st.sent {
		return nil, fmt.Errorf("%w: site %d %s acknowledges %d broadcasts, only %d sent",
			ErrBadMessage, site, what, t1, st.sent)
	}
	return st, nil
}

// Ack records a bare acknowledgement: site has integrated the first t1
// broadcasts sent to it and has nothing else to say. It is validated like the
// T1 of an operation and advances the same frontier through the same entry
// point, only earlier than the site's next operation would have — so it
// changes what the next Compact may drop, never what is executed or
// broadcast. An acknowledgement at or below the known frontier is ignored.
func (s *Server) Ack(site int, t1 uint64) error {
	st, err := s.acker(site, t1, "acknowledgement")
	if err != nil {
		return err
	}
	if t1 <= st.acked {
		s.count(CAcksStale, 1)
		return nil
	}
	if _, err := st.ack(t1); err != nil {
		return fmt.Errorf("core: ack transform: %w", err)
	}
	s.count(CAcksReceived, 1)
	return nil
}

// Receive processes one operation from a client and returns the broadcast
// messages for every other joined client, plus the integration report.
func (s *Server) Receive(m ClientMsg) ([]ServerMsg, IntegrationResult, error) {
	if err := s.Precheck(m); err != nil {
		return nil, IntegrationResult{}, err
	}
	st := s.clients[m.From]

	// Formula (7) against every buffered operation (O(1) per entry via the
	// delta-encoded Σ TS and TS[x]); the scan allocates nothing unless the
	// check trace is on.
	res := IntegrationResult{CheckCount: s.hb.Len()}
	tracing := s.decisions.Enabled()
	if s.checkTrace || tracing {
		checks, visit := s.tracedVisit(m, tracing)
		res.ConcurrentCount = s.hb.checkArrival(m.TS, m.From, st.baseline, visit)
		res.Checks = *checks
	} else {
		res.ConcurrentCount = s.hb.checkArrival(m.TS, m.From, st.baseline, nil)
	}
	s.spans.Stamp(m.Trace, span.StageCheck)

	// T1 acknowledges broadcasts in either mode; what it leaves pending is
	// the concurrent set the operation must be transformed across.
	transforms, err := st.ack(m.TS.T1)
	if err != nil {
		return nil, IntegrationResult{}, fmt.Errorf("core: server transform: %w", err)
	}
	exec := m.Op
	if s.mode == ModeTransform {
		var walked int
		exec, walked, err = s.bridgeWalk(st, m)
		if err != nil {
			return nil, IntegrationResult{}, err
		}
		transforms += walked
		s.count(CTransforms, int64(transforms))
		s.spans.Stamp(m.Trace, span.StageTransform)
		if err := doc.Apply(s.buf, exec); err != nil {
			return nil, IntegrationResult{}, fmt.Errorf("core: server apply: %w", err)
		}
	} else {
		doc.ApplyPositional(s.buf, op.Positionals(exec)...)
	}
	s.spans.Stamp(m.Trace, span.StageExecute)
	res.Transforms = transforms

	// Execution complete: count the operation (§3.2) and buffer the
	// executed form with the full state vector (§3.3).
	s.sv.Inc(m.From)
	s.serverSeq++
	ref := causal.OpRef{Site: 0, Seq: s.serverSeq}
	if s.mode == ModeRelay {
		// Without transformation the relayed operation keeps its original
		// causal identity — nothing new is generated at site 0.
		ref = m.Ref
	}
	s.hb.Add(ServerEntry{Op: exec, Origin: m.From, Ref: ref})
	res.Executed = exec
	s.count(COpsIntegrated, 1)
	s.count(CConcurrencyChecks, int64(res.CheckCount))
	s.count(CConcurrentPairs, int64(res.ConcurrentCount))
	if tracing {
		s.recordIntegrate(m, res.CheckCount, res.ConcurrentCount, transforms)
	}

	// Broadcast to everyone except the originator, each with its own
	// compressed timestamp (formulas 1–2) — the operation itself is
	// identical for all destinations, only the two integers differ (§3.3).
	// Destinations come pre-sorted from the join cache so simulations are
	// deterministic.
	dests := s.destinations()
	out := make([]ServerMsg, 0, len(dests)-1)
	for _, d := range dests {
		if d.site == m.From {
			continue
		}
		d.st.sent++
		// A derived bridge gains the operation through the history buffer
		// alone; only a site mid-transformation holds its own copy. Safe to
		// share exec across those copies, the buffer and the broadcast:
		// engine code never mutates a built operation (Transform returns
		// fresh ops).
		if len(d.st.bridge) > 0 {
			d.st.bridge = append(d.st.bridge, bridgeOp{seq: d.st.sent, op: exec, ref: ref})
		}
		if d.st.comp != nil {
			// Compose-on-append keeps a warm cache covering the whole
			// bridge: exec's base is the pre-exec document, which is
			// exactly comp's target.
			var err error
			if d.st.comp, err = op.Compose(d.st.comp, exec); err != nil {
				return nil, IntegrationResult{}, fmt.Errorf("core: server compose: %w", err)
			}
			s.count(CComposes, 1)
		}
		out = append(out, ServerMsg{
			To:      d.site,
			Op:      exec,
			TS:      s.sv.Compress(d.site, d.st.baseline),
			Ref:     ref,
			OrigRef: m.Ref,
			Trace:   m.Trace,
		})
	}

	if s.compactEvery > 0 {
		s.sinceCompact++
		if s.sinceCompact >= s.compactEvery {
			s.sinceCompact = 0
			s.Compact()
		}
	}
	return out, res, nil
}

// bridgeWalk brings one incoming client operation into server context, after
// Receive applied its acknowledgement: it materialises the site's bridge if
// the pending set is non-empty and still derived, and transforms the
// operation across it — through the composed cache when it is warm or deep
// enough to build, pairwise otherwise. It returns the executed form and the
// number of op.Transform calls spent.
//
// Correctness of the composed path rests on transform/compose
// compatibility: transforming against Compose(b₁,…,b_k) yields the same
// executed form as the sequential walk (DESIGN.md §13; enforced by
// FuzzIntegrateEquivalence against the pairwise reference). The individual
// bridge entries are left stale after a composed integration — the owed
// rebase is recorded in st.unfolded and replayed only when a later partial
// acknowledgement actually needs the individuals again, so the deferred
// work never exceeds what the pairwise path would have spent up front.
func (s *Server) bridgeWalk(st *clientState, m ClientMsg) (*op.Op, int, error) {
	exec := m.Op
	if st.sent == st.acked {
		// Nothing concurrent; the operation executes as-is.
		return exec, 0, nil
	}
	if len(st.bridge) == 0 {
		s.materialise(m.From, st)
	}
	transforms := 0
	k := len(st.bridge)
	if st.comp != nil {
		if op.ComposedTransformSafe(st.comp, exec) {
			// Warm cache: comp covers the whole bridge (compose-on-append
			// maintains this), so one Transform does the entire walk.
			var err error
			st.comp, exec, err = op.Transform(st.comp, exec)
			if err != nil {
				return nil, 0, fmt.Errorf("core: server transform: %w", err)
			}
			transforms++
			st.unfolded = append(st.unfolded, deferredFold{op: m.Op, maxSeq: st.bridge[k-1].seq})
			s.count(CCacheHits, 1)
			return exec, transforms, nil
		}
		// The arrival's inserts collide with a deleted region where the
		// composed form no longer pins insert order (DESIGN.md §13): the
		// fast path could diverge from the pairwise walk. Settle what the
		// cache deferred, drop it, and take the reference path below.
		if len(st.unfolded) > 0 {
			t, err := foldBridge(st.bridge, st.unfolded)
			transforms += t
			if err != nil {
				return nil, 0, fmt.Errorf("core: server transform: %w", err)
			}
		}
		clearFolds(&st.unfolded)
		st.comp = nil
		st.compHold = true
	}
	if !st.compHold && s.composeDepth > 0 && k >= s.composeDepth {
		// Cold cache over a deep bridge: fold the suffix into one composed
		// operation, then integrate through it. The build is valid because
		// no folds are outstanding here (unfolded non-empty implies comp
		// non-nil), so the individual entries are current.
		comp, err := composeBridge(st.bridge)
		if err != nil {
			return nil, 0, fmt.Errorf("core: server compose: %w", err)
		}
		s.count(CComposes, int64(k-1))
		if op.ComposedTransformSafe(comp, exec) {
			st.comp, exec, err = op.Transform(comp, exec)
			if err != nil {
				return nil, 0, fmt.Errorf("core: server transform: %w", err)
			}
			transforms++
			st.unfolded = append(st.unfolded, deferredFold{op: m.Op, maxSeq: st.bridge[k-1].seq})
			s.count(CCacheMisses, 1)
			return exec, transforms, nil
		}
		st.compHold = true
	}
	// Shallow bridge (or composition on hold): the pairwise reference walk.
	var err error
	for j := range st.bridge {
		st.bridge[j].op, exec, err = op.Transform(st.bridge[j].op, exec)
		if err != nil {
			return nil, 0, fmt.Errorf("core: server transform: %w", err)
		}
	}
	transforms += k
	s.count(CCacheMisses, 1)
	return exec, transforms, nil
}

// foldBridge settles deferred folds: each operation integrated through the
// composed cache is replayed pairwise across the bridge entries it still
// owes (seq <= maxSeq), in arrival order, bringing every individual entry up
// to date; the rebased operation itself is discarded — the server already
// executed its composed equivalent. This is exactly the work the pairwise
// path would have done at arrival time, so deferring never costs more than
// the cache saved. Returns the Transform calls spent.
func foldBridge(bridge []bridgeOp, unfolded []deferredFold) (int, error) {
	transforms := 0
	for _, u := range unfolded {
		uop := u.op
		var err error
		for j := range bridge {
			if bridge[j].seq > u.maxSeq {
				break
			}
			bridge[j].op, uop, err = op.Transform(bridge[j].op, uop)
			if err != nil {
				return transforms, err
			}
			transforms++
		}
	}
	return transforms, nil
}

// composeBridge folds the bridge into a single operation, oldest first.
func composeBridge(bridge []bridgeOp) (*op.Op, error) {
	comp := bridge[0].op
	for j := 1; j < len(bridge); j++ {
		var err error
		comp, err = op.Compose(comp, bridge[j].op)
		if err != nil {
			return nil, err
		}
	}
	return comp, nil
}

// materialise copies the site's pending broadcasts out of the history buffer
// into st.bridge, so the walk can rebase them against the site's own
// operations without touching the entries every other site still derives
// from. Only the *op.Op pointers are copied; Transform replaces them in the
// copy with fresh operations.
func (s *Server) materialise(site int, st *clientState) {
	s.hb.Pending(site, st.acked, st.baseline, func(seq uint64, e *ServerEntry) {
		st.bridge = append(st.bridge, bridgeOp{seq: seq, op: e.Op, ref: e.Ref})
	})
}

// tracedVisit builds the per-entry callback for the cold tracing paths and
// the Checks slice it fills (nil unless the check trace is on). Kept out of
// Receive — and not inlined, taking no pointers into Receive's locals — so
// the closure machinery and Decision literals never enlarge the hot path's
// frame or force its result to escape; reverting this costs ~4% and one
// alloc/op on BenchmarkServerReceive with tracing off.
//
//go:noinline
func (s *Server) tracedVisit(m ClientMsg, tracing bool) (*[]Check, func(i int, e *ServerEntry, conc bool)) {
	checks := new([]Check)
	if s.checkTrace {
		*checks = make([]Check, 0, s.hb.Len())
	}
	return checks, func(i int, e *ServerEntry, conc bool) {
		if s.checkTrace {
			*checks = append(*checks, Check{Arriving: m.Ref, Buffered: e.Ref, Concurrent: conc})
		}
		if tracing {
			s.decisions.Record(obs.Decision{
				Kind: obs.DServerCheck, Session: s.decisionLabel,
				Site: m.From, T1: m.TS.T1, T2: m.TS.T2,
				Index: i, Concurrent: conc,
			})
		}
	}
}

// recordIntegrate emits the per-Receive summary trace record; see
// tracedVisit for why it is not inlined.
//
//go:noinline
func (s *Server) recordIntegrate(m ClientMsg, checkCount, concCount, transforms int) {
	s.decisions.Record(obs.Decision{
		Kind: obs.DServerIntegrate, Session: s.decisionLabel,
		Site: m.From, T1: m.TS.T1, T2: m.TS.T2, Index: -1,
		Checks: checkCount, NConc: concCount, Transforms: transforms,
	})
}

// Compact garbage-collects the history buffer using the latest
// acknowledgements from all joined sites; returns entries removed.
func (s *Server) Compact() int {
	removed := s.hb.Compact(s.destinations())
	s.count(CCompactions, 1)
	s.count(CCompacted, int64(removed))
	return removed
}

// checkInvariants verifies internal bookkeeping identities; test-only (via
// export_test.go) but kept on the engine so integration tests can call it
// after every step. Every operation the engine built and still holds —
// executed and broadcast (the history buffer), rebased (a materialised
// bridge) or composed (a cache) — must pass op.Validate.
func (s *Server) checkInvariants() error {
	for i, e := range s.hb.Entries() {
		if err := e.Op.Validate(); err != nil {
			return fmt.Errorf("core: history entry %d (%v): %w", i, e.Ref, err)
		}
	}
	for id, st := range s.clients {
		if !st.joined {
			continue
		}
		want := s.sv.SumExcept(id) - st.baseline
		if st.sent != want {
			return fmt.Errorf("core: site %d: sent=%d but SumExcept-baseline=%d", id, st.sent, want)
		}
		if st.acked > st.sent {
			return fmt.Errorf("core: site %d: acked %d > sent %d", id, st.acked, st.sent)
		}
		// The representation invariant (DESIGN.md §4): the history buffer
		// holds exactly the sent−acked pending broadcasts, with consecutive
		// indices from acked+1, and a materialised bridge is a non-empty,
		// entry-for-entry copy of them (its operations rebased, so only seq
		// and ref are comparable).
		var pending []bridgeOp
		s.hb.Pending(id, st.acked, st.baseline, func(seq uint64, e *ServerEntry) {
			pending = append(pending, bridgeOp{seq: seq, ref: e.Ref})
		})
		if uint64(len(pending)) != st.sent-st.acked {
			return fmt.Errorf("core: site %d: history buffer holds %d pending broadcasts, sent−acked=%d", id, len(pending), st.sent-st.acked)
		}
		for i, p := range pending {
			if p.seq != st.acked+1+uint64(i) {
				return fmt.Errorf("core: site %d: pending entry %d has index %d, want %d", id, i, p.seq, st.acked+1+uint64(i))
			}
		}
		if st.bridge != nil {
			if len(st.bridge) == 0 || len(st.bridge) != len(pending) {
				return fmt.Errorf("core: site %d: materialised bridge holds %d entries, %d pending", id, len(st.bridge), len(pending))
			}
			for i, b := range st.bridge {
				if b.seq != pending[i].seq || b.ref != pending[i].ref {
					return fmt.Errorf("core: site %d: bridge[%d] is (%d, %v), history buffer has (%d, %v)",
						id, i, b.seq, b.ref, pending[i].seq, pending[i].ref)
				}
				if err := b.op.Validate(); err != nil {
					return fmt.Errorf("core: site %d: bridge[%d]: %w", id, i, err)
				}
			}
		}
		if st.comp == nil && len(st.unfolded) > 0 {
			return fmt.Errorf("core: site %d: %d unsettled folds without a composed cache", id, len(st.unfolded))
		}
		if st.comp != nil && len(st.bridge) == 0 {
			return fmt.Errorf("core: site %d: composed cache over an empty bridge", id)
		}
		if st.comp != nil {
			if st.comp.TargetLen() != s.buf.Len() {
				return fmt.Errorf("core: site %d: composed cache targets %d runes, document has %d (stale cache?)",
					id, st.comp.TargetLen(), s.buf.Len())
			}
			if err := st.comp.Validate(); err != nil {
				return fmt.Errorf("core: site %d: composed cache: %w", id, err)
			}
		}
	}
	return nil
}
