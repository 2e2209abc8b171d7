package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"time"

	"repro/internal/transport"
	"repro/internal/transport/netpoll"
	"repro/internal/wire"
)

const (
	repetitions = 5   // per untraced run; a metric's value is the median over them
	warmShare   = 0.1 // leading share of every driver's edits that is not measured
	sliceCount  = 24  // equal op counts a repetition's measured phase is cut into, at most
	minSlice    = 64  // edits per driver a slice has at least: a scaled-down run has fewer slices
	maxSetups   = 100 // extra set-ups timed per untraced run, at most
	setupBlock  = 8   // extra set-ups between two yardstick readings
)

// runConfig sizes one run of one workload.
type runConfig struct {
	seed    int64
	seconds float64       // measured seconds the fixed op counts are sized for
	reps    int           // untraced repetitions
	stall   time.Duration // see rigConfig.stall
	outDir  string        // span dumps and scratch files go here
}

// driver is one closed-loop load goroutine: it edits through its writers and
// issues the next edit only when the observer has integrated an earlier one.
type driver struct {
	tokens   chan struct{} // one per integrated edit, sent by the observer taps
	ready    chan struct{} // one per other driver that has reached the rendezvous
	writers  []*writer
	sessions []*session // churn: the sessions whose idle editor this driver replaces

	joins     []int64
	nextChurn int
	problems  []string
}

// layout assigns the writers, numbered session-major, to the drivers. A
// writer belongs to exactly one driver, so its sequence numbers need no lock.
func (w *workload) layout() [][]int {
	per := make([][]int, w.drivers)
	for s := 0; s < w.sessions; s++ {
		for i := 0; i < w.writers; i++ {
			d := s % w.drivers
			if w.sessions < w.drivers {
				d = i % w.drivers
			}
			per[d] = append(per[d], s*w.writers+i)
		}
	}
	return per
}

// turn names which of a driver's nw writers issues its i-th edit.
func (w *workload) turn(i, nw int) int {
	if w.burst {
		return (i / w.window) % nw
	}
	return i % nw
}

func (d *driver) wait(abort <-chan struct{}) bool {
	select {
	case <-d.tokens:
		return true
	case <-abort:
		return false
	}
}

// rendezvous holds the driver until every driver has got here. A burst
// workload has one after every round, so the next bursts start together and
// are concurrent on every round: without it the drivers drift apart, and how
// much two bursts overlap — which is how much transformation a round costs —
// is left to the scheduler. It is written for the two drivers the workloads
// have at most; with more, a fast driver's next signal could stand in for a
// slow driver's.
func (r *rig) rendezvous(d *driver, abort <-chan struct{}) bool {
	for _, p := range r.drivers {
		if p == d {
			continue
		}
		select {
		case p.ready <- struct{}{}:
		case <-abort:
			return false
		}
	}
	for range r.drivers[1:] {
		select {
		case <-d.ready:
		case <-abort:
			return false
		}
	}
	return true
}

// lead is what the first driver collects besides issuing its edits: at every
// pause it closes the slice that ended, reads the yardstick, and opens the
// next slice.
type lead struct {
	marks []mark    // start and end of every slice, in turn
	ns    []float64 // yardstick readings, one per pause
	err   error
}

// pause stops the measured phase between two slices: the drivers, their
// edits all integrated, meet; the leader marks the end of the slice, reads the
// yardstick while the system is idle, and marks the start of the next one;
// they meet again and go on. What happens between the two marks belongs to
// no slice.
func (r *rig) pause(d *driver, abort <-chan struct{}, l *lead) bool {
	if !r.rendezvous(d, abort) {
		return false
	}
	if l != nil {
		if len(l.marks) > 0 {
			l.marks = append(l.marks, r.mark())
		}
		if r.cfg.yard != nil && l.err == nil {
			var ns float64
			if ns, l.err = r.cfg.yard.read(r.w.yardProbe()); l.err == nil {
				l.ns = append(l.ns, ns)
			}
		}
		l.marks = append(l.marks, r.mark())
	}
	return r.rendezvous(d, abort)
}

// drive issues edits with at most w.window of them in flight. Everything
// after the driver's warm-up share is the measured phase, cut into sliceCount
// slices of equal op counts with a pause before each. The cuts are placed by
// the shortest driver's edit count, so every driver pauses equally often.
func (r *rig) drive(d *driver, edits []edit, abort <-chan struct{}, l *lead) {
	w := r.w
	drain := func(inflight *int) bool {
		for ; *inflight > 0; *inflight-- {
			if !d.wait(abort) {
				return false
			}
		}
		return true
	}
	// Whole windows, so that a burst workload pauses between rounds.
	warm := int(warmShare*float64(r.shortest)) / w.window * w.window
	every := max(w.window, minSlice, (r.shortest-warm)/sliceCount) / w.window * w.window
	inflight, pauses := 0, 0
	for i, e := range edits {
		if i >= warm && i < r.shortest && (i-warm)%every == 0 && pauses < sliceCount {
			if !drain(&inflight) || !r.pause(d, abort, l) {
				return
			}
			pauses++
		}
		if !w.burst && inflight == w.window {
			if !d.wait(abort) {
				return
			}
			inflight--
		}
		if r.issue(d, d.writers[w.turn(i, len(d.writers))], e) {
			inflight++
		}
		if w.burst && (i+1)%w.window == 0 {
			if !drain(&inflight) || (i+1 < len(edits) && !r.rendezvous(d, abort)) {
				return
			}
		}
		if w.churnEvery > 0 && (i+1)%w.churnEvery == 0 {
			r.churn(d)
		}
	}
	drain(&inflight)
}

// issue performs one edit through wr and stamps it. A refused edit keeps its
// slot in the span table empty, which the accounting reports as failed.
func (r *rig) issue(d *driver, wr *writer, e edit) bool {
	pos, del, ok := r.w.place(e, wr.ed.Len(), len(r.doc))
	if !ok {
		d.problems = append(d.problems, fmt.Sprintf("site %d: replica too short to edit", wr.site))
		return false
	}
	var err error
	start := now()
	if del {
		err = wr.ed.Delete(pos, 1)
	} else {
		err = wr.ed.Insert(pos, e.text)
	}
	end := now()
	if err != nil {
		d.problems = append(d.problems, fmt.Sprintf("site %d: edit refused: %v", wr.site, err))
		return false
	}
	wr.issued[wr.seq], wr.done[wr.seq] = start, end
	wr.seq++
	return true
}

// churn closes the idle editor of the driver's next session and joins a
// fresh one in its place while the other edits stay in flight.
func (r *rig) churn(d *driver) {
	sess := d.sessions[d.nextChurn%len(d.sessions)]
	d.nextChurn++
	_ = sess.idle[0].Close()
	ed, ns, err := r.join(sess, &tap{}, r.cfg.traced)
	if err != nil {
		d.problems = append(d.problems, err.Error())
		sess.idle = nil
		return
	}
	sess.idle[0] = ed
	d.joins = append(d.joins, ns)
}

// mark is a reading of every cumulative counter the benchmark takes deltas
// of: the edits the observers have integrated, the process's CPU time, and —
// in a traced repetition — counters of the program and the Go runtime, all
// read through public getters.
type mark struct {
	at   int64
	done int64
	cpu  time.Duration

	encodes    uint64
	tcpBytes   uint64
	tcpFlushes uint64
	sndFlushes uint64
	wakeups    uint64
	allocs     uint64
	gcPauseS   float64 // CPU-seconds with the application stopped by the collector
	sched      *metrics.Float64Histogram
	goroutines int
}

const (
	mAllocs     = "/gc/heap/allocs:objects"
	mTinyAllocs = "/gc/heap/tiny/allocs:objects"
	mSchedLat   = "/sched/latencies:seconds"
	mGCPause    = "/cpu/classes/gc/pause:cpu-seconds"
)

func (r *rig) mark() mark {
	m := mark{at: now(), done: r.integrated.Load(), cpu: processCPU()}
	if !r.cfg.traced {
		return m
	}
	s := []metrics.Sample{{Name: mAllocs}, {Name: mTinyAllocs}, {Name: mSchedLat}, {Name: mGCPause}}
	metrics.Read(s)
	m.encodes = wire.ServerOpEncodes()
	m.tcpBytes = transport.TCPBytesSent()
	m.tcpFlushes = transport.TCPFlushes()
	m.sndFlushes = transport.SenderFlushes()
	m.wakeups = netpoll.Wakeups()
	m.allocs = s[0].Value.Uint64() + s[1].Value.Uint64()
	m.sched = s[2].Value.Float64Histogram()
	m.gcPauseS = s[3].Value.Float64()
	m.goroutines = runtime.NumGoroutine()
	return m
}

// histDeltaP99 is the p99, in µs, of the observations a runtime histogram
// gained between two readings, placed inside the bucket that holds it in
// proportion to the bucket's share of observations below it.
func histDeltaP99(from, to *metrics.Float64Histogram) float64 {
	var total uint64
	for i := range to.Counts {
		total += to.Counts[i] - from.Counts[i]
	}
	rank := 0.99 * float64(total)
	var seen float64
	for i := range to.Counts {
		n := float64(to.Counts[i] - from.Counts[i])
		if n > 0 && seen+n >= rank {
			lo, hi := to.Buckets[i], to.Buckets[i+1]
			if math.IsInf(lo, -1) {
				lo = 0
			}
			if math.IsInf(hi, 1) {
				return lo * 1e6
			}
			return (lo + (hi-lo)*(rank-seen)/n) * 1e6
		}
		seen += n
	}
	return 0
}

// slice is one stretch of the measured phase, between two marks, and what
// the edits issued in it measured.
type slice struct {
	propagate []int64 // issued → integrated at the observer, sorted
	local     []int64 // duration of the Editor.Insert|Delete call, sorted
	opsPerS   float64 // edits integrated per second
	cpuUs     float64 // process CPU per integrated edit
}

// repResult is what one repetition measured.
type repResult struct {
	setupS    float64
	slices    []slice // the measured phase, cut at the marks
	whole     slice   // the measured phase in one piece
	joins     []int64 // sorted
	heapMB    float64
	attempted int
	failed    int
	problems  []string

	marks    []mark    // start and end of every slice, in turn
	yardNs   []float64 // yardstick readings taken in the pauses, ns per frame
	measured int       // edits issued after the first mark and seen integrated

	// Traced repetitions only.
	spans  map[string][]int64 // per-op child span durations by metric name
	counts *tapCounts
}

// runRep builds a fresh system, drives one repetition of the workload
// through it, checks every replica, and tears it down.
func runRep(w *workload, p plan, cfg rigConfig, spanFile string) (repResult, error) {
	var res repResult
	perWriter := make([]int, w.sessions*w.writers)
	for d, idxs := range w.layout() {
		for i := range p.edits[d] {
			perWriter[idxs[w.turn(i, len(idxs))]]++
		}
	}
	// Start from a collected heap, and know what the benchmark itself (the
	// plan, the yardstick) holds in it.
	base := liveHeapMB()
	r, err := newRig(w, p.doc, cfg, perWriter)
	if err != nil {
		return res, err
	}
	res.setupS = float64(r.setupNs) / 1e9
	r.shortest = len(p.edits[0])
	for _, edits := range p.edits {
		r.shortest = min(r.shortest, len(edits))
	}

	abort := make(chan struct{})
	finished := make(chan struct{})
	var watch sync.WaitGroup
	watch.Add(1)
	go func() {
		defer watch.Done()
		r.watchdog(abort, finished)
	}()
	var wg sync.WaitGroup
	leader := &lead{}
	for d, drv := range r.drivers {
		var l *lead
		if d == 0 {
			l = leader
		}
		wg.Add(1)
		go func(drv *driver, edits []edit) {
			defer wg.Done()
			r.drive(drv, edits, abort, l)
		}(drv, p.edits[d])
	}
	wg.Wait()
	res.marks = leader.marks
	if len(res.marks) == 0 { // stalled before the measured phase
		res.marks = append(res.marks, r.mark())
	}
	res.marks = append(res.marks, r.mark()) // the last slice ends here
	res.yardNs = leader.ns
	if leader.err != nil {
		res.problems = append(res.problems, leader.err.Error())
	}
	close(finished)
	watch.Wait()

	res.problems = append(res.problems, r.converge(cfg.stall)...)
	// What the system retains for this much traffic: measured before any
	// Close.
	res.heapMB = liveHeapMB() - base

	for _, drv := range r.drivers {
		res.joins = append(res.joins, drv.joins...)
		res.problems = append(res.problems, drv.problems...)
	}
	if w.churnEvery == 0 {
		// No joins happen under traffic here, so time them against the
		// session as the run left it: full-length history, every site joined.
		for i := 0; i < cfg.probeJoins; i++ {
			ed, ns, err := r.join(r.sessions[0], &tap{}, false)
			if err != nil {
				res.problems = append(res.problems, err.Error())
				break
			}
			res.joins = append(res.joins, ns)
			_ = ed.Close()
		}
	}
	r.close()

	r.account(&res)
	if cfg.traced {
		res.counts = r.counts
		if err := r.writeSpans(spanFile); err != nil {
			return res, err
		}
	}
	return res, nil
}

// liveHeapMB is the heap that survives a full collection.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// watchdog closes abort when no observer has integrated an edit for
// cfg.stall, so a lost operation ends the run with failures instead of
// hanging it.
func (r *rig) watchdog(abort chan<- struct{}, finished <-chan struct{}) {
	tick := time.NewTicker(r.cfg.stall / 4)
	defer tick.Stop()
	var last int64 = -1
	idle := 0
	for {
		select {
		case <-finished:
			return
		case <-tick.C:
		}
		if done := r.integrated.Load(); done != last {
			last, idle = done, 0
		} else if idle++; idle >= 4 {
			close(abort)
			return
		}
	}
}

// account turns the span tables into the repetition's numbers. Every planned
// edit is attempted; one that was refused, never issued, never seen
// integrated at the observer, or that belongs to a session whose replicas
// disagree, is failed. Only edits issued after the first mark are timed, each
// in the slice it was issued in.
func (r *rig) account(res *repResult) {
	children := map[string][]int64{}
	// marks holds the start and the end of every slice, in turn. No edit is
	// issued between an end and the next start.
	marks := res.marks
	starts := make([]int64, len(marks)/2)
	for i := range starts {
		starts[i] = marks[2*i].at
	}
	res.slices = make([]slice, len(starts))
	for _, wr := range r.writers {
		for k := range wr.issued {
			res.attempted++
			if wr.issued[k] == 0 || wr.integrated[k] == 0 || wr.sess.bad {
				res.failed++
				continue
			}
			// The last slice that started before the edit holds it.
			i, _ := slices.BinarySearch(starts, wr.issued[k]+1)
			if i == 0 {
				continue // warm-up
			}
			sl := &res.slices[i-1]
			sl.propagate = append(sl.propagate, wr.integrated[k]-wr.issued[k])
			sl.local = append(sl.local, wr.done[k]-wr.issued[k])
			if r.cfg.traced && wr.sendExit[k] != 0 {
				// The sender goroutine can enter SendFrame before Insert
				// has returned to the driver; that is no wait at all.
				children["editor.sendq_wait_ns"] = append(children["editor.sendq_wait_ns"], max(0, wr.sendEnter[k]-wr.done[k]))
				children["transport.client_write_ns"] = append(children["transport.client_write_ns"], wr.sendExit[k]-wr.sendEnter[k])
				children["server.turnaround_ns"] = append(children["server.turnaround_ns"], wr.arrived[k]-wr.sendExit[k])
				children["editor.integrate_ns"] = append(children["editor.integrate_ns"], wr.integrated[k]-wr.arrived[k])
			}
		}
	}
	for i := range res.slices {
		sl := &res.slices[i]
		res.whole.propagate = append(res.whole.propagate, sl.propagate...)
		res.whole.local = append(res.whole.local, sl.local...)
		slices.Sort(sl.propagate)
		slices.Sort(sl.local)
		sl.opsPerS, sl.cpuUs = rates(marks[2*i], marks[2*i+1])
	}
	slices.Sort(res.whole.propagate)
	slices.Sort(res.whole.local)
	res.measured = len(res.whole.propagate)
	slices.Sort(res.joins)
	if r.cfg.traced {
		children["editor.local_ns"] = res.whole.local
		res.spans = children
	}
}

// rates returns the edits integrated per second between two marks and the
// process CPU spent per edit, in µs.
func rates(from, to mark) (opsPerS, cpuUs float64) {
	if to.done <= from.done || to.at <= from.at {
		return 0, 0
	}
	n := float64(to.done - from.done)
	return n / (float64(to.at-from.at) / 1e9), float64(to.cpu-from.cpu) / 1e3 / n
}

// What a metric reads off one slice.
func slicePropagate(q float64) func(*slice) float64 {
	return func(s *slice) float64 { return quantile(s.propagate, q) / 1e3 }
}
func sliceLocal(s *slice) float64   { return quantile(s.local, 0.5) / 1e3 }
func sliceOpsPerS(s *slice) float64 { return s.opsPerS }
func sliceCPUUs(s *slice) float64   { return s.cpuUs }

// typical is the median over the repetition's slices of f.
func (res *repResult) typical(f func(*slice) float64) float64 {
	xs := make([]float64, len(res.slices))
	for i := range res.slices {
		xs[i] = f(&res.slices[i])
	}
	return median(xs)
}

// reading is one repetition's value of a metric and the number of
// observations it was computed from.
type reading struct {
	value float64
	obs   int
}

// hostScale is what a repetition's timings are multiplied by to read as if
// the host had run at its nominal speed: nominal ÷ measured yardstick time,
// the latter the median over the repetition's pauses. 1 without a yardstick.
func hostScale(nominalNs float64, yardNs []float64) float64 {
	if len(yardNs) == 0 {
		return 1
	}
	return nominalNs / median(yardNs)
}

// readings gives one repetition's value of every end-to-end metric, plus the
// numbers that are printed beside them as diagnostics only.
//
// Everything measured while edits flow is taken per slice of the measured
// phase, and the repetition's value is the median over its slices: what the
// system does in a typical sixth of a second. This host stops the process
// for milliseconds at a time, in bouts that last seconds; taken over a whole
// repetition, a mean or a high percentile charges every such bout to the
// program, and they were most of the run-to-run spread.
//
// Every timing is then scaled to the host's nominal speed (see yardstick);
// the *_raw diagnostics are the same numbers before that.
func (res *repResult) readings(w *workload) map[string]reading {
	perSlice := res.measured / max(1, len(res.slices))
	scale := hostScale(w.yardNs, res.yardNs)
	m := map[string]reading{
		"live_heap_mb": {res.heapMB, 1},
		"host_speed":   {scale, len(res.yardNs)},
		"yardstick_ns": {w.yardNs / scale, len(res.yardNs)},
	}
	timing := func(name string, raw float64, obs int) {
		m[name] = reading{raw * scale, obs}
		m[name+"_raw"] = reading{raw, obs}
	}
	timing("setup_s", res.setupS, 1)
	timing("join_p50_us", quantile(res.joins, 0.50)/1e3, len(res.joins))
	timing("propagate_p50_us", res.typical(slicePropagate(0.50)), perSlice)
	timing("propagate_p95_us", res.typical(slicePropagate(0.95)), perSlice)
	timing("local_edit_p50_us", res.typical(sliceLocal), perSlice)
	timing("cpu_us_per_op", res.typical(sliceCPUUs), perSlice)
	// A rate is the inverse of a time.
	m["ops_per_s"] = reading{res.typical(sliceOpsPerS) / scale, perSlice}
	m["ops_per_s_raw"] = reading{res.typical(sliceOpsPerS), perSlice}
	// The tail beyond p95, for the record: p99 per slice, and p99.9 over the
	// whole measured phase because a slice has too few edits for it.
	m["propagate_p99_us"] = reading{res.typical(slicePropagate(0.99)) * scale, perSlice}
	m["propagate_p99.9_us_whole"] = reading{slicePropagate(0.999)(&res.whole) * scale, res.measured}
	return m
}

// workloadResult is one workload's line-up of metrics, from either kind of
// run.
type workloadResult struct {
	Name      string
	Attempted int
	Failed    int
	Problems  []string
	Metrics   map[string]sample
	// Diagnostics are printed but are no metrics: nothing is bounded on them.
	Diagnostics map[string]sample
}

func (wr *workloadResult) correct() bool { return wr.Failed == 0 && len(wr.Problems) == 0 }

func (wr *workloadResult) absorb(res *repResult) {
	wr.Attempted += res.attempted
	wr.Failed += res.failed
	wr.Problems = append(wr.Problems, res.problems...)
}

// rig is the configuration of one untraced repetition: on workloads without
// churn, 25 joins per measured second are timed after the repetition.
func (rc runConfig) rig() rigConfig {
	return rigConfig{stall: rc.stall, probeJoins: int(max(10, 25*rc.seconds))}
}

// repOps is the number of edits in one repetition: whole windows for every
// driver, so the drivers of a burst workload have the same number of rounds.
func (rc runConfig) repOps(w *workload) int {
	round := w.drivers * w.window
	return max(2, int(float64(w.opsPerSec)*rc.seconds/float64(rc.reps))/round) * round
}

// runUntraced measures the end-to-end metrics: rc.reps repetitions, each on
// a fresh system with its own seed, and the median over them per metric.
func runUntraced(w *workload, rc runConfig) (workloadResult, error) {
	out := workloadResult{Name: w.name, Metrics: map[string]sample{}, Diagnostics: map[string]sample{}}
	yard, err := newYardstick(w.sessions, w.editors)
	if err != nil {
		return out, err
	}
	defer yard.close()
	cfg := rc.rig()
	cfg.yard = yard
	values := map[string][]float64{}
	obs := map[string]int{}
	for rep := 0; rep < rc.reps; rep++ {
		p := makePlan(w, rc.seed+int64(rep), rc.repOps(w))
		res, err := runRep(w, p, cfg, "")
		if err != nil {
			return out, fmt.Errorf("%s repetition %d: %w", w.name, rep, err)
		}
		out.absorb(&res)
		for name, rd := range res.readings(w) {
			values[name] = append(values[name], rd.value)
			obs[name] = rd.obs
		}
	}
	// A set-up lasts milliseconds, so one per repetition makes a jumpy
	// median: time more of them, on systems torn down at once — twice as
	// many at least, then as many as fit in a thirtieth of the run, up to
	// maxSetups (every one leaves its sockets in TIME_WAIT for a minute).
	// Like a repetition's, each starts from a collected heap: otherwise a
	// collection falls into every n-th small set-up and doubles it, and the
	// median flips between the two kinds. They come in blocks with a
	// yardstick reading on either side.
	doc := makePlan(w, rc.seed, 0).doc
	budget := now() + int64(rc.seconds/30*1e9)
	more := func(i int) bool { return i < 2*rc.reps || (i < maxSetups && now() < budget) }
	before, err := yard.read(w.yardProbe())
	for i := 0; err == nil && more(i); {
		var raw []float64
		for k := 0; k < setupBlock && more(i); k, i = k+1, i+1 {
			runtime.GC()
			r, err := newRig(w, doc, cfg, make([]int, w.sessions*w.writers))
			if err != nil {
				return out, fmt.Errorf("%s extra set-up %d: %w", w.name, i, err)
			}
			raw = append(raw, float64(r.setupNs)/1e9)
			r.close()
		}
		var after float64
		after, err = yard.read(w.yardProbe())
		scale := hostScale(w.yardNs, []float64{before, after})
		for _, s := range raw {
			values["setup_s"] = append(values["setup_s"], s*scale)
			values["setup_s_raw"] = append(values["setup_s_raw"], s)
		}
		values["yardstick_alone_ns"] = append(values["yardstick_alone_ns"], after)
		before = after
	}
	if err != nil {
		return out, err
	}
	for name := range values {
		out.Diagnostics[name] = summarize(values[name], obs[name])
	}
	for _, def := range endToEnd {
		out.Metrics[def.Name] = out.Diagnostics[def.Name]
		delete(out.Diagnostics, def.Name)
	}
	return out, nil
}
