package core

import (
	"errors"
	"fmt"

	"repro/internal/causal"
	"repro/internal/doc"
	"repro/internal/op"
)

// Client engine errors.
var (
	// ErrStaleOp indicates a locally generated operation whose base length
	// does not match the current document (the caller built it against an
	// outdated snapshot).
	ErrStaleOp = errors.New("core: operation does not fit current document")
	// ErrBadMessage indicates a structurally inconsistent incoming message.
	ErrBadMessage = errors.New("core: malformed message")
)

// Client is the engine of a collaborating site i ≠ 0 (paper Fig. 1: a
// REDUCE applet). It maintains the replicated document, the 2-element state
// vector, the history buffer, and — in ModeTransform — the bridge of
// unacknowledged local operations used to bring arriving notifier operations
// into local context.
//
// The engine is deliberately synchronous and single-goroutine: transports
// own the concurrency (one goroutine per connection) and feed the engine
// from a single loop, mirroring the event-loop structure of the original
// applets.
type Client struct {
	site int
	mode Mode
	sv   ClientSV
	buf  *doc.Rope
	hb   ClientHB

	// pending holds local operations the notifier has not yet incorporated
	// (TS.T2 acknowledgements prune it), each rebased so the list forms a
	// path from the notifier-known state to the local state. This is the
	// context bridge described in DESIGN.md §4.
	pending []pendingLocal

	// pcomp, when non-nil, is the composition of the entire pending list:
	// one Transform against pcomp brings an arriving notifier operation
	// into local context in O(1) instead of len(pending) pairwise
	// transforms (DESIGN.md §13). Generate extends it per local operation
	// (compose-on-append); an acknowledgement pruning pending drops it.
	pcomp *op.Op
	// punfolded records arrivals integrated through pcomp whose pairwise
	// rebase of the individual pending entries is still owed; settled on
	// the next pruning acknowledgement, skipped when the prune is total.
	punfolded []deferredFold
	// pcompHold suspends composition until the next acknowledgement
	// advances the frontier: an arrival failed op.ComposedTransformSafe
	// against this pending list, so rebuilding the cache every arrival
	// would pay the compose cost without ever taking the fast path.
	pcompHold bool

	// composeDepth is the pending depth at which Integrate builds pcomp
	// (defaultComposeDepth unless overridden; <= 0 disables composition).
	composeDepth int

	// compactEvery triggers history-buffer garbage collection after this
	// many integrations; 0 disables automatic compaction.
	compactEvery int
	sinceCompact int

	// checkTrace records per-entry Check verdicts into IntegrationResult
	// (WithClientCheckTrace); off by default so integration performs zero
	// per-check allocations.
	checkTrace bool

	// silent counts the integrations since this site last put a T1 on its
	// link — the broadcasts the notifier cannot yet know it has (TakeAck).
	silent int

	// undo, when non-nil, tracks inverses of local operations (see
	// undo.go). Mutually exclusive with compaction.
	undo *undoStack
}

type pendingLocal struct {
	seq uint64 // this op's SV_i[2] value
	op  *op.Op
}

// ClientOption configures a Client.
type ClientOption func(*Client)

// WithClientMode sets the operating mode (default: ModeTransform).
func WithClientMode(m Mode) ClientOption {
	return func(c *Client) { c.mode = m }
}

// WithClientCompaction enables automatic history compaction every n
// integrations (default 64; 0 disables).
func WithClientCompaction(n int) ClientOption {
	return func(c *Client) { c.compactEvery = n }
}

// WithClientComposeDepth sets the pending depth at which Integrate switches
// from the pairwise transform walk to the composed-suffix cache (default
// defaultComposeDepth). n <= 0 disables composition entirely — the naive
// reference path the differential fuzz target compares against.
func WithClientComposeDepth(n int) ClientOption {
	return func(c *Client) { c.composeDepth = n }
}

// WithClientResume continues the local operation counter from localOps —
// required when rejoining under a site id that generated operations before
// (pass Snapshot.LocalOps).
func WithClientResume(localOps uint64) ClientOption {
	return func(c *Client) { c.sv.Local = localOps }
}

// WithClientCheckTrace records every per-entry concurrency verdict into
// IntegrationResult.Checks. Validation harnesses need the trace to replay
// verdicts against the ground-truth oracle; the default path only counts
// (ConcurrentCount/CheckCount) and allocates nothing per check.
func WithClientCheckTrace() ClientOption {
	return func(c *Client) { c.checkTrace = true }
}

// NewClient returns the engine for site (which must be >= 1), initialized
// with the snapshot text.
func NewClient(site int, initial string, opts ...ClientOption) *Client {
	if site < 1 {
		//lint:allow nopanic: constructor precondition — site 0 is the notifier (§3.2); a violation is a caller bug
		panic(fmt.Sprintf("core: client site must be >= 1, got %d", site))
	}
	c := &Client{site: site, buf: doc.NewRope(initial), compactEvery: 64, composeDepth: defaultComposeDepth}
	for _, o := range opts {
		o(c)
	}
	return c
}

// Site returns the site identifier.
func (c *Client) Site() int { return c.site }

// Mode returns the operating mode.
func (c *Client) Mode() Mode { return c.mode }

// SV returns the current 2-element state vector.
func (c *Client) SV() ClientSV { return c.sv }

// Text returns the current document contents.
func (c *Client) Text() string { return c.buf.String() }

// DocLen returns the current document length in runes.
func (c *Client) DocLen() int { return c.buf.Len() }

// History exposes the history buffer (read-mostly; used by tests and the
// validation harness).
func (c *Client) History() *ClientHB { return &c.hb }

// PendingCount returns the number of local operations not yet acknowledged
// by the notifier.
func (c *Client) PendingCount() int { return len(c.pending) }

// Generate executes a local operation immediately (paper §2: local response
// must be as quick as a single-user editor — no communication in this path)
// and returns the timestamped message to propagate to the notifier.
func (c *Client) Generate(o *op.Op) (ClientMsg, error) {
	if o.BaseLen() != c.buf.Len() {
		return ClientMsg{}, fmt.Errorf("%w: op base %d, document %d",
			ErrStaleOp, o.BaseLen(), c.buf.Len())
	}
	var inverse *op.Op
	if c.undo != nil {
		var err error
		if inverse, err = op.Invert(o, c.buf.Len(), c.buf.Slice); err != nil {
			return ClientMsg{}, fmt.Errorf("core: undo tracking: %w", err)
		}
	}
	if err := doc.Apply(c.buf, o); err != nil {
		return ClientMsg{}, fmt.Errorf("core: local apply: %w", err)
	}
	c.sv.Local++ // §3.2 rule 3
	ts := c.sv.Stamp()
	c.silent = 0 // ts.T1 acknowledges everything integrated so far
	ref := causal.OpRef{Site: c.site, Seq: c.sv.Local}
	c.hb.Add(ClientEntry{Op: o, TS: ts, Origin: OriginLocal, Ref: ref})
	if c.undo != nil {
		// Recorded after hb.Add so the rebase walk starts at the entry
		// *after* the operation itself.
		c.pushUndo(inverse)
	}
	if c.mode == ModeTransform {
		if c.pcomp != nil {
			// Compose-on-append keeps a warm cache covering the whole
			// pending list: o's base is the pre-o document, which is
			// exactly pcomp's target.
			var err error
			if c.pcomp, err = op.Compose(c.pcomp, o); err != nil {
				return ClientMsg{}, fmt.Errorf("core: pending compose: %w", err)
			}
		}
		c.pending = append(c.pending, pendingLocal{seq: c.sv.Local, op: o.Clone()})
	}
	return ClientMsg{From: c.site, Op: o, TS: ts, Ref: ref}, nil
}

// Insert is a convenience wrapper generating Insert[text, pos].
func (c *Client) Insert(pos int, text string) (ClientMsg, error) {
	o, err := op.NewInsert(c.buf.Len(), pos, text)
	if err != nil {
		return ClientMsg{}, err
	}
	return c.Generate(o)
}

// Delete is a convenience wrapper generating Delete[count, pos].
func (c *Client) Delete(pos, count int) (ClientMsg, error) {
	o, err := op.NewDelete(c.buf.Len(), pos, count)
	if err != nil {
		return ClientMsg{}, err
	}
	return c.Generate(o)
}

// Integrate processes an operation propagated from the notifier: it runs the
// compressed-clock concurrency check (formula 5) against the history buffer,
// brings the operation into local context, executes it, updates the state
// vector (§3.2 rule 2), and buffers the executed form with its original
// propagation timestamp (§3.3).
func (c *Client) Integrate(m ServerMsg) (IntegrationResult, error) {
	if m.To != c.site {
		return IntegrationResult{}, fmt.Errorf("%w: message for site %d delivered to %d",
			ErrBadMessage, m.To, c.site)
	}
	if m.TS.T1 != c.sv.FromServer+1 {
		return IntegrationResult{}, fmt.Errorf("%w: server op T1=%d but %d already received (FIFO violated?)",
			ErrBadMessage, m.TS.T1, c.sv.FromServer)
	}

	// Concurrency detection — the paper's formula (5). The hot path reads
	// the count off the history buffer's boundary index in O(log HB)
	// (ConcurrentCount); the check trace forces the linear reference walk,
	// which the differential tests hold to the same verdicts.
	res := IntegrationResult{CheckCount: c.hb.Len()}
	if c.checkTrace {
		res.ConcurrentCount, res.Checks = c.tracedChecks(m, c.hb.Entries())
	} else {
		res.ConcurrentCount = c.hb.ConcurrentCount(m.TS)
	}

	exec := m.Op
	transforms := 0
	switch c.mode {
	case ModeTransform:
		var err error
		exec, transforms, err = c.pendingWalk(m)
		if err != nil {
			return IntegrationResult{}, err
		}
		if err := doc.Apply(c.buf, exec); err != nil {
			return IntegrationResult{}, fmt.Errorf("core: client apply: %w", err)
		}
	case ModeRelay:
		// Ablation: execute the original form, clamped. Documents are
		// expected to diverge; that is the point of E8.
		doc.ApplyPositional(c.buf, op.Positionals(exec)...)
	}
	res.Transforms = transforms

	c.sv.FromServer++ // §3.2 rule 2
	c.silent++
	c.hb.Add(ClientEntry{Op: exec, TS: m.TS, Origin: OriginServer, Ref: m.Ref})
	res.Executed = exec

	if c.compactEvery > 0 && c.undo == nil {
		c.sinceCompact++
		if c.sinceCompact >= c.compactEvery {
			c.sinceCompact = 0
			c.hb.Compact(m.TS.T2)
		}
	}
	return res, nil
}

// AckEvery is how many broadcasts a site integrates without sending anything
// that carries a T1 before it owes the notifier a bare acknowledgement. It
// matches the notifier's compaction cadence: a site that has integrated fewer
// pins fewer history entries than one compaction round leaves behind anyway,
// so no quiet-period timer is needed to flush the remainder.
const AckEvery = 64

// TakeAck reports whether a bare acknowledgement is due — AckEvery
// integrations since the last operation or presence report — and, if so,
// returns the T1 to send and starts the count afresh. The caller must put it
// on the link in order with its operations. Drivers that never call it
// (simulators, third-party clients) keep the pre-acknowledgement protocol:
// the notifier then learns their T1 only from their operations.
func (c *Client) TakeAck() (t1 uint64, due bool) {
	if c.silent < AckEvery {
		return 0, false
	}
	c.silent = 0
	return c.sv.FromServer, true
}

// pendingWalk brings one arriving notifier operation into local context —
// the client mirror of Server.bridgeWalk. T2 acknowledges how many of our
// operations the notifier had incorporated when it generated this one;
// those leave the pending list, and the arrival is transformed across the
// remaining (concurrent) suffix, through the composed cache when it is warm
// or deep enough to build, pairwise otherwise. The remaining pending
// operations are exactly the buffered operations formula (5) just found
// concurrent (cross-checked by the session harness); notifier operations
// take tie-break priority everywhere.
func (c *Client) pendingWalk(m ServerMsg) (*op.Op, int, error) {
	exec := m.Op
	acked := m.TS.T2
	i := 0
	for i < len(c.pending) && c.pending[i].seq <= acked {
		i++
	}
	transforms := 0
	if i > 0 {
		// The frontier moved: settle owed folds if any entries survive,
		// then invalidate the cache. A total prune skips the replay.
		if len(c.punfolded) > 0 && i < len(c.pending) {
			t, err := foldPending(c.pending, c.punfolded)
			transforms += t
			if err != nil {
				return nil, 0, fmt.Errorf("core: client transform: %w", err)
			}
		}
		clearFolds(&c.punfolded)
		c.pcomp = nil
		c.pcompHold = false
		c.pending = c.pending[i:]
	}
	k := len(c.pending)
	if k == 0 {
		return exec, transforms, nil
	}
	if c.pcomp != nil {
		if op.ComposedTransformSafe(c.pcomp, exec) {
			var err error
			exec, c.pcomp, err = op.Transform(exec, c.pcomp)
			if err != nil {
				return nil, 0, fmt.Errorf("core: client transform: %w", err)
			}
			transforms++
			c.punfolded = append(c.punfolded, deferredFold{op: m.Op, maxSeq: c.pending[k-1].seq})
			return exec, transforms, nil
		}
		// The arrival's inserts collide with a deleted region where the
		// composed form no longer pins insert order (DESIGN.md §13).
		// Settle what the cache deferred, drop it, and take the pairwise
		// reference path below.
		if len(c.punfolded) > 0 {
			t, err := foldPending(c.pending, c.punfolded)
			transforms += t
			if err != nil {
				return nil, 0, fmt.Errorf("core: client transform: %w", err)
			}
		}
		clearFolds(&c.punfolded)
		c.pcomp = nil
		c.pcompHold = true
	}
	if !c.pcompHold && c.composeDepth > 0 && k >= c.composeDepth {
		comp, err := composePending(c.pending)
		if err != nil {
			return nil, 0, fmt.Errorf("core: pending compose: %w", err)
		}
		if op.ComposedTransformSafe(comp, exec) {
			exec, c.pcomp, err = op.Transform(exec, comp)
			if err != nil {
				return nil, 0, fmt.Errorf("core: client transform: %w", err)
			}
			transforms++
			c.punfolded = append(c.punfolded, deferredFold{op: m.Op, maxSeq: c.pending[k-1].seq})
			return exec, transforms, nil
		}
		c.pcompHold = true
	}
	var err error
	for j := range c.pending {
		exec, c.pending[j].op, err = op.Transform(exec, c.pending[j].op)
		if err != nil {
			return nil, 0, fmt.Errorf("core: client transform: %w", err)
		}
	}
	transforms += k
	return exec, transforms, nil
}

// foldPending settles deferred folds on the client side: each arrival
// integrated through pcomp is replayed pairwise across the pending entries
// it still owes (seq <= maxSeq), in arrival order; the rebased arrival is
// discarded — its composed equivalent already executed. See foldBridge.
func foldPending(pending []pendingLocal, unfolded []deferredFold) (int, error) {
	transforms := 0
	for _, u := range unfolded {
		uop := u.op
		var err error
		for j := range pending {
			if pending[j].seq > u.maxSeq {
				break
			}
			uop, pending[j].op, err = op.Transform(uop, pending[j].op)
			if err != nil {
				return transforms, err
			}
			transforms++
		}
	}
	return transforms, nil
}

// composePending folds the pending list into a single operation, oldest
// first.
func composePending(pending []pendingLocal) (*op.Op, error) {
	comp := pending[0].op
	for j := 1; j < len(pending); j++ {
		var err error
		comp, err = op.Compose(comp, pending[j].op)
		if err != nil {
			return nil, err
		}
	}
	return comp, nil
}

// tracedChecks is the cold variant of Integrate's formula-(5) scan, run only
// when the check trace is on. Keeping it out of Integrate (and not inlined)
// leaves the hot loop free of trace branches — same reasoning as
// Server.tracedVisit.
//
//go:noinline
func (c *Client) tracedChecks(m ServerMsg, entries []ClientEntry) (conc int, checks []Check) {
	checks = make([]Check, 0, len(entries))
	for _, e := range entries {
		cc := ConcurrentClient(m.TS, e.TS, e.Origin == OriginServer)
		if cc {
			conc++
		}
		checks = append(checks, Check{Arriving: m.Ref, Buffered: e.Ref, Concurrent: cc})
	}
	return conc, checks
}

// Compact forces history-buffer garbage collection using the latest
// acknowledgement; returns the number of entries removed.
func (c *Client) Compact() int {
	// The newest server entry's T2 is the freshest acknowledgement seen.
	var acked uint64
	for _, e := range c.hb.Entries() {
		if e.Origin == OriginServer && e.TS.T2 > acked {
			acked = e.TS.T2
		}
	}
	return c.hb.Compact(acked)
}

// checkInvariants is the client mirror of Server.checkInvariants: every
// operation the engine holds — executed (the history buffer), rebased (the
// pending list) or composed (pcomp) — passes op.Validate, and a composed
// cache ends at the current document.
func (c *Client) checkInvariants() error {
	for i, e := range c.hb.Entries() {
		if err := e.Op.Validate(); err != nil {
			return fmt.Errorf("core: site %d: history entry %d (%v): %w", c.site, i, e.Ref, err)
		}
	}
	for i, p := range c.pending {
		if err := p.op.Validate(); err != nil {
			return fmt.Errorf("core: site %d: pending[%d]: %w", c.site, i, err)
		}
	}
	if c.pcomp != nil {
		if err := c.pcomp.Validate(); err != nil {
			return fmt.Errorf("core: site %d: composed cache: %w", c.site, err)
		}
		if c.pcomp.TargetLen() != c.buf.Len() {
			return fmt.Errorf("core: site %d: composed cache targets %d runes, document has %d",
				c.site, c.pcomp.TargetLen(), c.buf.Len())
		}
	}
	return nil
}
