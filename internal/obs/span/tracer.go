package span

import (
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// Config sizes a Tracer. Zero values take the defaults noted on each field.
type Config struct {
	// SampleEvery originates a trace for 1 in N ops seen by Start or
	// Arrival. 0 means adopt-only: the tracer stamps ops that arrive
	// already sampled but never originates a trace itself.
	SampleEvery uint64
	// RingCap bounds the completed-span ring served at /spanz (default 1024).
	RingCap int
	// MaxActive bounds in-flight records; when full, an arbitrary record is
	// evicted to the ring incomplete (default 4096).
	MaxActive int
	// FinishOnWrite completes a span at the TCP write stamp instead of
	// waiting for a remote integrate — the server-only deployment mode,
	// where no traced editor exists to close the loop.
	FinishOnWrite bool
}

// Span is one completed (or evicted) trace as exported at /spanz: absolute
// monotonic stamps per stage, 0 where a stage never fired.
type Span struct {
	Site     int
	Seq      uint64
	Start    int64 // Now() of the first stamp
	Total    int64 // last stamp − first stamp
	Stamps   [NumStages]int64
	Complete bool // false when evicted from a full active table
}

// record is the pooled in-flight form of a Span.
type record struct {
	site   int
	seq    uint64
	stamps [NumStages]int64
	first  int64 // first stamp (absolute)
	last   int64 // latest stamp (absolute, monotone)
	// finishing marks a record whose finishing stamp arrived while the
	// session actor was still between its dequeue and broadcast-enqueue
	// stamps; the actor's closing stamp completes it (see finishSampled).
	finishing bool
	free      *record
}

type opKey struct {
	site int
	seq  uint64
}

// Tracer samples ops, tracks their in-flight records, folds stage deltas
// into obs.Histograms, and retains completed spans in a bounded ring.
//
// Hot-path contract: every public recording method is a no-op costing one
// atomic load when the tracer is nil or disabled, and Start/Arrival cost one
// extra atomic add when the sampling decision says no. Only sampled ops —
// 1 in SampleEvery — take the mutex.
type Tracer struct {
	enabled atomic.Bool
	n       atomic.Uint64 // sampling counter
	every   uint64
	finOnWr bool

	stageH [NumStages]*obs.Histogram
	totalH *obs.Histogram

	started  *obs.Counter
	finished *obs.Counter
	evicted  *obs.Counter

	mu        sync.Mutex
	inflight  map[opKey]*record
	freeList  *record
	ring      []Span
	ringNext  int
	ringTotal uint64
	maxActive int
}

// NewTracer builds an enabled tracer whose histograms and counters live in
// reg (a private registry is used when reg is nil).
func NewTracer(reg *obs.Registry, cfg Config) *Tracer {
	if reg == nil {
		reg = obs.NewRegistry("span")
	}
	if cfg.RingCap <= 0 {
		cfg.RingCap = 1024
	}
	if cfg.MaxActive <= 0 {
		cfg.MaxActive = 4096
	}
	t := &Tracer{
		every:     cfg.SampleEvery,
		finOnWr:   cfg.FinishOnWrite,
		started:   reg.Counter(CStarted),
		finished:  reg.Counter(CFinished),
		evicted:   reg.Counter(CEvicted),
		totalH:    reg.Histogram(HistTotal),
		inflight:  make(map[opKey]*record),
		ring:      make([]Span, 0, cfg.RingCap),
		maxActive: cfg.MaxActive,
	}
	for i := 0; i < NumStages; i++ {
		t.stageH[i] = reg.Histogram(StageHistName(Stage(i)))
	}
	t.SetEnabled(true)
	return t
}

// Enabled reports whether the tracer records anything at all. Nil-safe.
func (t *Tracer) Enabled() bool { return t != nil && t.enabled.Load() }

// SetEnabled flips recording on or off and keeps the package Active gate in
// step. Disabling does not drop in-flight records; re-enabling resumes them.
func (t *Tracer) SetEnabled(v bool) {
	if t == nil {
		return
	}
	if t.enabled.Swap(v) != v {
		if v {
			active.Add(1)
		} else {
			active.Add(-1)
		}
	}
}

// Start makes the origin-side sampling decision for a freshly generated op
// and, when sampled, opens its record with the generate stamp. The unsampled
// path is one atomic load plus one atomic add.
func (t *Tracer) Start(site int, seq uint64) Context {
	if t == nil || !t.enabled.Load() {
		return Context{}
	}
	return t.startSampled(site, seq)
}

//go:noinline
func (t *Tracer) startSampled(site int, seq uint64) Context {
	if t.every == 0 || t.n.Add(1)%t.every != 0 {
		return Context{}
	}
	ctx := Context{Site: site, Seq: seq, Flags: FlagSampled}
	ns := Now()
	t.mu.Lock()
	if r := t.ensureLocked(ctx); r != nil {
		t.stampLocked(r, StageGenerate, ns)
	}
	t.mu.Unlock()
	return ctx
}

// Arrival is the server-side admission point: adopt a context that arrived
// sampled on the wire (materializing its record in this process), or make a
// fresh sampling decision for an untraced arrival. wakeNs, when positive, is
// the poller's readiness timestamp and is stamped as StagePollWake before
// the decode stamp. The unsampled path costs one atomic add.
func (t *Tracer) Arrival(ctx Context, site int, seq uint64, wakeNs int64) Context {
	if t == nil || !t.enabled.Load() {
		return Context{}
	}
	return t.arrivalSampled(ctx, site, seq, wakeNs)
}

//go:noinline
func (t *Tracer) arrivalSampled(ctx Context, site int, seq uint64, wakeNs int64) Context {
	if !ctx.Sampled() {
		if t.every == 0 || t.n.Add(1)%t.every != 0 {
			return Context{}
		}
		ctx = Context{Site: site, Seq: seq, Flags: FlagSampled}
	}
	ns := Now()
	t.mu.Lock()
	if r := t.ensureLocked(ctx); r != nil {
		if wakeNs > 0 {
			t.stampLocked(r, StagePollWake, wakeNs)
		}
		t.stampLocked(r, StageDecode, ns)
	}
	t.mu.Unlock()
	return ctx
}

// Stamp records stage s for ctx at the current clock. Unknown or already
// stamped stages are no-ops (first stamp wins), so fan-out duplicates are
// harmless.
func (t *Tracer) Stamp(ctx Context, s Stage) {
	if t == nil || !ctx.Sampled() || !t.enabled.Load() {
		return
	}
	t.stampSampled(ctx, s, Now())
}

// StampAt is Stamp with a caller-captured clock reading (from Now()), for
// stamps taken on a hot path and recorded later.
func (t *Tracer) StampAt(ctx Context, s Stage, ns int64) {
	if t == nil || !ctx.Sampled() || !t.enabled.Load() {
		return
	}
	t.stampSampled(ctx, s, ns)
}

//go:noinline
func (t *Tracer) stampSampled(ctx Context, s Stage, ns int64) {
	k := opKey{ctx.Site, ctx.Seq}
	t.mu.Lock()
	r := t.inflight[k]
	if r == nil {
		t.mu.Unlock()
		return
	}
	t.stampLocked(r, s, ns)
	if !(r.finishing && s == StageBcastEnqueue) {
		t.mu.Unlock()
		return
	}
	t.completeAndUnlock(k, r)
}

// StampWrite records the TCP write stamp and, in FinishOnWrite mode,
// completes the span — the server-only deployment where no traced editor
// will ever send the remote-integrate stamp.
func (t *Tracer) StampWrite(ctx Context) {
	if t == nil || !ctx.Sampled() || !t.enabled.Load() {
		return
	}
	if t.finOnWr {
		t.finishSampled(ctx, StageWrite, Now())
	} else {
		t.stampSampled(ctx, StageWrite, Now())
	}
}

// FinishAt stamps stage s and completes the span: the total latency is
// recorded, the span moves to the completed ring, and the record is
// recycled. A ctx with no in-flight record (already finished by an earlier
// fan-out leg, or evicted) is a no-op.
//
// One exception keeps the server leg whole on more than one core: the
// session actor stamps bcast_enqueue after handing the broadcast to the
// senders, so a destination can write — or a remote editor integrate —
// before the actor gets there. A finish that finds the actor's leg open
// (dequeue stamped, bcast_enqueue not) stamps its stage and leaves the
// completion to the actor's closing stamp, which would otherwise find the
// record gone and be dropped silently.
func (t *Tracer) FinishAt(ctx Context, s Stage) {
	if t == nil || !ctx.Sampled() || !t.enabled.Load() {
		return
	}
	t.finishSampled(ctx, s, Now())
}

//go:noinline
func (t *Tracer) finishSampled(ctx Context, s Stage, ns int64) {
	k := opKey{ctx.Site, ctx.Seq}
	t.mu.Lock()
	r := t.inflight[k]
	if r == nil {
		t.mu.Unlock()
		return
	}
	t.stampLocked(r, s, ns)
	if r.stamps[StageDequeue] != 0 && r.stamps[StageBcastEnqueue] == 0 {
		r.finishing = true
		t.mu.Unlock()
		return
	}
	t.completeAndUnlock(k, r)
}

// completeAndUnlock retires r as a completed span. Called with t.mu held;
// the histogram and counter are recorded after it is released.
func (t *Tracer) completeAndUnlock(k opKey, r *record) {
	total := r.last - r.first
	t.pushLocked(r, true)
	delete(t.inflight, k)
	t.recycleLocked(r)
	t.mu.Unlock()
	t.totalH.RecordInt(int(total))
	t.finished.Inc()
}

// stampLocked applies first-wins stamping and folds the delta since the
// previous stamp into the stage histogram. The first stamp of a record
// anchors the clock and records no delta.
func (t *Tracer) stampLocked(r *record, s Stage, ns int64) {
	if int(s) >= NumStages || r.stamps[s] != 0 {
		return
	}
	r.stamps[s] = ns
	if r.first == 0 {
		r.first, r.last = ns, ns
		return
	}
	d := ns - r.last
	if d < 0 {
		d = 0
	} else {
		r.last = ns
	}
	t.stageH[s].RecordInt(int(d))
}

// ensureLocked returns the record for ctx, creating it (and evicting an
// arbitrary victim when the table is full) on first sight.
func (t *Tracer) ensureLocked(ctx Context) *record {
	k := opKey{ctx.Site, ctx.Seq}
	if r := t.inflight[k]; r != nil {
		return r
	}
	if len(t.inflight) >= t.maxActive {
		for vk, vr := range t.inflight {
			t.pushLocked(vr, false)
			delete(t.inflight, vk)
			t.recycleLocked(vr)
			t.evicted.Inc()
			break
		}
	}
	r := t.freeList
	if r != nil {
		t.freeList = r.free
		*r = record{}
	} else {
		r = &record{}
	}
	r.site, r.seq = ctx.Site, ctx.Seq
	t.inflight[k] = r
	t.started.Inc()
	return r
}

func (t *Tracer) recycleLocked(r *record) {
	r.free = t.freeList
	t.freeList = r
}

// pushLocked copies r into the completed ring (overwriting the oldest entry
// once full).
func (t *Tracer) pushLocked(r *record, complete bool) {
	s := Span{
		Site:     r.site,
		Seq:      r.seq,
		Start:    r.first,
		Total:    r.last - r.first,
		Stamps:   r.stamps,
		Complete: complete,
	}
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, s)
	} else {
		t.ring[t.ringNext] = s
		t.ringNext = (t.ringNext + 1) % cap(t.ring)
	}
	t.ringTotal++
}

// Spans returns up to limit completed spans, newest first (limit <= 0 means
// all retained).
func (t *Tracer) Spans(limit int) []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := len(t.ring)
	if limit > 0 && limit < n {
		n = limit
	}
	// Newest entry is just before ringNext once the ring has wrapped, else
	// at the end of the slice.
	newest := len(t.ring) - 1
	if len(t.ring) == cap(t.ring) {
		newest = (t.ringNext - 1 + len(t.ring)) % len(t.ring)
	}
	out := make([]Span, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, t.ring[(newest-i+len(t.ring))%len(t.ring)])
	}
	return out
}

// Completed returns the lifetime count of spans pushed to the ring.
func (t *Tracer) Completed() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ringTotal
}

// InFlight returns the current number of open records.
func (t *Tracer) InFlight() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.inflight)
}
