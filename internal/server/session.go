// Package server runs many independent document sessions — each a complete
// star of paper Fig. 1 with its own notifier engine — inside one process.
//
// The paper's protocol is strictly per-session: SV_0, the history buffer,
// and every timestamp are scoped to one document, so M documents are M
// independent notifiers that never need to synchronize with each other. The
// package exploits that: each Session serializes its engine on a dedicated
// goroutine (the same single-writer discipline core.Server requires), and
// the Manager routes to sessions through a copy-on-write registry that makes
// the lookup on every received operation lock-free. Throughput then scales
// with sessions across cores instead of funneling every document through one
// mutex.
package server

import (
	"errors"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/obs/span"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Package errors.
var (
	// ErrClosed is returned by operations on a closed Session or Manager.
	ErrClosed = errors.New("server: closed")
	// ErrRejected is returned for an operation from a site that is not
	// joined read-write in the session (unknown sender or a viewer).
	ErrRejected = errors.New("server: operation rejected")
)

// Subscriber is one participant's delivery hooks, invoked on the session
// goroutine. Callbacks must not block and must not call back into the same
// Session synchronously (enqueue to a writer goroutine instead — see the
// connection sender in service.go).
type Subscriber struct {
	// Deliver receives every operation broadcast to this site.
	Deliver func(core.ServerMsg)
	// DeliverBroadcast, when non-nil, is preferred over Deliver for
	// operation broadcasts: it receives the shared encode-once body
	// (serialized exactly once per Receive however many sites subscribe),
	// retained once per call — the hook owns that reference and must
	// Release it after the bytes are written. Network transports set this;
	// in-process consumers keep the simpler Deliver.
	DeliverBroadcast func(bc *wire.Broadcast, to int, ts core.Timestamp)
	// FanoutSender, when non-nil alongside DeliverBroadcast, lets the
	// session batch this destination into a parallel fan-out across the
	// writer pool's shards (transport.FanoutScratch, DESIGN.md §18)
	// instead of invoking DeliverBroadcast serially. The enqueue semantics
	// are identical — one retained reference per destination, consumed by
	// EnqueueBroadcast — only the goroutine doing the enqueue may differ.
	FanoutSender *transport.Sender
	// Presence, when non-nil, receives relayed presence reports.
	Presence func(core.PresenceOut)
	// Admitted, when non-nil, is called with the join snapshot after the
	// site is registered but before any broadcast can be delivered —
	// the hook that lets a transport enqueue the snapshot strictly ahead
	// of operations.
	Admitted func(core.Snapshot)
	// ReadOnly marks a viewer; Receive rejects its operations.
	ReadOnly bool
}

// cmd is one unit of work for the session goroutine.
type cmd struct {
	fn   func()
	done chan struct{}
	// touch marks real demand (Join/Receive/Leave/...): it refreshes the
	// idle clock. Observation commands (Stats, gauges) leave it false so a
	// metrics scraper polling every few milliseconds cannot keep an
	// otherwise-idle session resident forever.
	touch bool
}

// queueDepth is each session's command-queue buffer: room for a burst from
// every connection of a typical session, so a caller parks on the actor only
// when the actor has fallen a whole burst behind.
const queueDepth = 64

// donePool recycles completion channels so a Receive round-trip does not
// allocate one per operation.
var donePool = sync.Pool{New: func() any { return make(chan struct{}, 1) }}

// Session lifecycle states (guarded by mu; transitions broadcast on cond).
//
//	running  — the actor goroutine is live and owns the engine.
//	parking  — the actor is mid-dehydration: draining in-flight enqueues
//	           and serializing the engine. Callers wait on cond; the park
//	           either aborts (back to running) or completes (parked).
//	parked   — the engine is a compact checkpoint, the goroutine is gone.
//	           The first do() rehydrates under the write lock
//	           (single-flight by construction) and restarts the actor.
const (
	stRunning = iota
	stParking
	stParked
)

// parkedView is the frozen observable state of a dehydrated session, so
// gauges, Stats, and cvcstat report real numbers without rehydrating —
// observation must never cost a restore (DESIGN.md §15).
type parkedView struct {
	sites      int
	received   uint64
	docRunes   int
	hbLen      int
	clockWords int
}

// Session is one document's notifier running on its own goroutine. All
// public methods are safe for concurrent use; they serialize through the
// session's command queue, so the core engine itself is only ever touched
// from one goroutine.
//
// With idle dehydration enabled the goroutine is not permanent: after idleD
// without commands the actor checkpoints the engine and exits (see tryPark),
// and the next command transparently restores it (see rehydrate).
type Session struct {
	name string

	// mu guards closed and the park state machine; inflight counts enqueues
	// that passed the closed/running check. Close and tryPark wait for
	// in-flight enqueues before proceeding, so no enqueue can race past a
	// drain and block forever. cond (on mu's write side) announces state
	// transitions out of parking.
	mu       sync.RWMutex
	cond     *sync.Cond
	closed   bool
	state    int
	inflight sync.WaitGroup

	cmds chan cmd
	// quit and done belong to the current actor incarnation; rehydrate
	// replaces them (under mu) when it restarts the goroutine, and the actor
	// captures both at entry so a stale incarnation never touches fresh
	// channels.
	quit chan struct{}
	done chan struct{}

	// idleD > 0 enables dehydration after that much command inactivity.
	idleD   time.Duration
	lastAct time.Time // actor-goroutine owned; handed off through rehydrate

	// checkpoint and pv are set while parked (guarded by mu); engineOpts is
	// what RestoreServer rebuilds the engine with.
	checkpoint []byte
	pv         parkedView
	engineOpts []core.ServerOption

	// rehydrations, when non-nil, counts engine restores (the manager's
	// sessions.rehydrations counter).
	rehydrations *obs.Counter

	// recvNs, when non-nil, observes the full Receive latency: queue wait,
	// formula-(7) checks, transformation, execution, and fan-out enqueue.
	recvNs *obs.Histogram

	// spans, when non-nil, stamps the actor-owned stages (dequeue,
	// broadcast enqueue) of sampled operations.
	spans *span.Tracer

	// fanout is the actor-owned scratch that scatters broadcast enqueues
	// across the writer pool's shards when destinations opt in via
	// FanoutSender and there are at least transport.DefaultFanoutThreshold
	// of them.
	fanout transport.FanoutScratch

	// Engine state below is owned by the session goroutine exclusively
	// (srv is nil while parked; subs, jw survive parking untouched).
	srv      *core.Server
	subs     map[int]*Subscriber
	nextSite int
	received uint64
	// jw, when non-nil (Manager WithJournal), is the session's write-ahead
	// journal: every join, leave and accepted operation is appended before
	// it takes effect. It stays open across dehydration — a checkpoint is
	// memory-only, the journal is the durable truth — and is closed by Close
	// once the actor has drained.
	jw *journal.Writer
}

// newSession starts one document's notifier goroutine with m's settings.
// With observability the session's child registry receives the engine
// counters (WithServerMetrics), the receive.ns latency histogram and live size
// gauges; with a decision ring the engine's causality decisions stream under
// the session's name. A journaled session (WithJournal) is rebuilt from its
// journal, or starts one if the file does not exist yet.
func newSession(m *Manager, name string) (*Session, error) {
	child := m.sessionChild(name)
	opts := m.engine[:len(m.engine):len(m.engine)]
	if child != nil {
		opts = append(opts, core.WithServerMetrics(child))
	}
	if m.ring != nil {
		opts = append(opts, core.WithServerDecisionRing(m.ring, name))
	}
	if m.spans != nil {
		opts = append(opts, core.WithServerSpans(m.spans))
	}
	s := &Session{
		name:         name,
		cmds:         make(chan cmd, queueDepth),
		quit:         make(chan struct{}),
		done:         make(chan struct{}),
		idleD:        m.idleD,
		lastAct:      time.Now(),
		engineOpts:   opts,
		rehydrations: m.rehydrations,
		spans:        m.spans,
		subs:         make(map[int]*Subscriber),
		nextSite:     1,
	}
	if path := m.journalPath(name); path != "" {
		srv, jw, _, err := journal.Recover(path, m.initial, opts...)
		if err != nil {
			return nil, err
		}
		s.srv, s.jw = srv, jw
		s.received = srv.SV().SumExcept(0)
		// Auto-assigned site ids continue past every id the journal has
		// seen: a departed site's counters stay in SV_0 for its rejoin, so
		// its id must never be handed to a stranger.
		if n := srv.SV().Len(); n > s.nextSite {
			s.nextSite = n
		}
	} else {
		s.srv = core.NewServer(m.initial, opts...)
	}
	s.cond = sync.NewCond(&s.mu)
	if child != nil {
		s.recvNs = child.Histogram(obs.HReceiveNs)
		// Gauges observe without rehydrating: a resident session answers on
		// its goroutine (Registry.Snapshot invokes gauges with no lock held);
		// a parked one serves the frozen view — scraping /metricz must not
		// wake 100k sessions. A closed session reports zeros, as before.
		s.residentGauge(child, obs.GSites, func() int64 { return int64(len(s.subs)) }, func(pv parkedView) int64 { return int64(pv.sites) })
		s.residentGauge(child, obs.GOpsRecv, func() int64 { return int64(s.received) }, func(pv parkedView) int64 { return int64(pv.received) })
		s.residentGauge(child, obs.GDocRunes, func() int64 { return int64(s.srv.DocLen()) }, func(pv parkedView) int64 { return int64(pv.docRunes) })
		s.residentGauge(child, obs.GHBLen, func() int64 { return int64(s.srv.History().Len()) }, func(pv parkedView) int64 { return int64(pv.hbLen) })
		s.residentGauge(child, obs.GClockWords, func() int64 { return int64(s.srv.History().ClockWords()) }, func(pv parkedView) int64 { return int64(pv.clockWords) })
		// The residency bit itself, for per-session dashboards (cvcstat).
		child.Gauge(obs.GResident, func() int64 {
			s.mu.RLock()
			defer s.mu.RUnlock()
			if !s.closed && s.state == stRunning {
				return 1
			}
			return 0
		})
	}
	go s.run()
	return s, nil
}

// residentGauge registers a gauge that reads live (on the session goroutine)
// while resident and from the parked view while dehydrated or closed.
func (s *Session) residentGauge(child *obs.Registry, name string, live func() int64, parked func(parkedView) int64) {
	child.Gauge(name, func() int64 {
		var v int64
		if s.doResident(func() { v = live() }) {
			return v
		}
		s.mu.RLock()
		v = parked(s.pv)
		s.mu.RUnlock()
		return v
	})
}

// Name returns the session's registry name ("" is the default document).
func (s *Session) Name() string { return s.name }

func (s *Session) run() {
	// Capture this incarnation's channels: rehydrate swaps s.quit/s.done for
	// the next incarnation while this one may still be unwinding its defer.
	quit, done := s.quit, s.done
	defer close(done)
	var idleC <-chan time.Time
	var timer *time.Timer
	if s.idleD > 0 {
		timer = time.NewTimer(s.idleD)
		defer timer.Stop()
		idleC = timer.C
	}
	for {
		select {
		case c := <-s.cmds:
			c.fn()
			c.done <- struct{}{}
			if c.touch {
				s.lastAct = time.Now()
			}
		case <-idleC:
			// The timer is not reset per command (that would put a timer
			// syscall on the hot path); instead it fires at most once per
			// idleD and checks how stale the last activity really is.
			if idle := time.Since(s.lastAct); idle >= s.idleD {
				if s.tryPark() {
					return
				}
			}
			rem := s.idleD - time.Since(s.lastAct)
			if rem <= 0 {
				rem = s.idleD
			}
			timer.Reset(rem)
		case <-quit:
			// Close waits out in-flight enqueues before signalling, so
			// nothing new can be mid-enqueue: draining what is buffered
			// releases every waiter, then the goroutine exits.
			for {
				select {
				case c := <-s.cmds:
					c.fn()
					c.done <- struct{}{}
				default:
					return
				}
			}
		}
	}
}

// tryPark attempts to dehydrate the session; it runs on the session
// goroutine and returns true when the actor should exit. The sequence:
// announce parking (new do() calls now wait on cond instead of enqueueing),
// wait out enqueues already in flight — draining them into a stash so a
// full command buffer cannot deadlock the wait — and then either abort
// (demand arrived: execute the stash, back to running) or serialize the
// engine, publish the frozen view, and exit.
func (s *Session) tryPark() bool {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return false
	}
	s.state = stParking
	s.mu.Unlock()

	// After the state flip no new enqueue starts, but some may hold a slot
	// between inflight.Add and the channel send. Receiving while waiting
	// keeps those senders from blocking against a full buffer.
	waitDone := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(waitDone)
	}()
	var stash []cmd
drain:
	for {
		select {
		case c := <-s.cmds:
			stash = append(stash, c)
		case <-waitDone:
			for {
				select {
				case c := <-s.cmds:
					stash = append(stash, c)
				default:
					break drain
				}
			}
		}
	}
	if len(stash) > 0 {
		// Demand raced the park: abort, then serve the stash in order. Only
		// real demand resets the idle clock — a stash of pure observation
		// leaves the session due to park again at the next timer fire.
		s.mu.Lock()
		s.state = stRunning
		s.cond.Broadcast()
		s.mu.Unlock()
		for _, c := range stash {
			c.fn()
			c.done <- struct{}{}
			if c.touch {
				s.lastAct = time.Now()
			}
		}
		return false
	}

	cp, err := s.srv.Checkpoint()
	if err != nil {
		// An unserializable engine stays resident; nothing was lost.
		s.mu.Lock()
		s.state = stRunning
		s.cond.Broadcast()
		s.mu.Unlock()
		return false
	}
	pv := parkedView{
		sites:      len(s.subs),
		received:   s.received,
		docRunes:   s.srv.DocLen(),
		hbLen:      s.srv.History().Len(),
		clockWords: s.srv.History().ClockWords(),
	}
	s.mu.Lock()
	s.checkpoint = cp
	s.pv = pv
	s.srv = nil
	s.state = stParked
	s.cond.Broadcast()
	s.mu.Unlock()
	return true
}

// rehydrate restores a parked session's engine and restarts its actor. The
// write lock makes the restore single-flight: concurrent callers either wait
// out a parking transition on cond or find the state already running.
func (s *Session) rehydrate() error {
	s.mu.Lock()
	for s.state == stParking && !s.closed {
		s.cond.Wait()
	}
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	if s.state == stRunning {
		s.mu.Unlock()
		return nil
	}
	srv, err := core.RestoreServer(s.checkpoint, s.engineOpts...)
	if err != nil {
		s.mu.Unlock()
		return err
	}
	s.srv = srv
	s.checkpoint = nil
	s.quit = make(chan struct{})
	s.done = make(chan struct{})
	s.lastAct = time.Now()
	s.state = stRunning
	if s.rehydrations != nil {
		s.rehydrations.Add(1)
	}
	go s.run()
	s.mu.Unlock()
	return nil
}

// do runs fn on the session goroutine and waits for it to finish,
// transparently rehydrating a dehydrated session first.
func (s *Session) do(fn func()) error {
	for {
		s.mu.RLock()
		if s.closed {
			s.mu.RUnlock()
			return ErrClosed
		}
		if s.state != stRunning {
			s.mu.RUnlock()
			if err := s.rehydrate(); err != nil {
				return err
			}
			continue
		}
		s.inflight.Add(1)
		s.mu.RUnlock()
		d := donePool.Get().(chan struct{})
		s.cmds <- cmd{fn: fn, done: d, touch: true}
		s.inflight.Done()
		<-d
		donePool.Put(d)
		return nil
	}
}

// doResident is do without the rehydrate: it runs fn only if the session is
// live right now and reports whether it did. Observation paths (gauges,
// Stats) use it so reading metrics never wakes a parked session.
func (s *Session) doResident(fn func()) bool {
	s.mu.RLock()
	if s.closed || s.state != stRunning {
		s.mu.RUnlock()
		return false
	}
	s.inflight.Add(1)
	s.mu.RUnlock()
	d := donePool.Get().(chan struct{})
	s.cmds <- cmd{fn: fn, done: d}
	s.inflight.Done()
	<-d
	donePool.Put(d)
	return true
}

// Dehydrated reports whether the session is currently parked (or parking):
// its engine exists only as a checkpoint and no goroutine is resident.
func (s *Session) Dehydrated() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return !s.closed && s.state != stRunning
}

// Join admits a site (site <= 0 requests automatic assignment) and registers
// its delivery hooks. It returns the snapshot the joiner initializes from;
// sub.Admitted, when set, sees the same snapshot strictly before any
// broadcast reaches sub.Deliver.
func (s *Session) Join(site int, sub Subscriber) (core.Snapshot, error) {
	var snap core.Snapshot
	var err error
	derr := s.do(func() {
		if site <= 0 {
			site = s.nextSite
		}
		for {
			if _, taken := s.subs[site]; !taken {
				break
			}
			site++
		}
		if site >= s.nextSite {
			s.nextSite = site + 1
		}
		snap, err = s.srv.Join(site)
		if err != nil {
			return
		}
		if s.jw != nil {
			if err = s.jw.Append(journal.Record{Kind: journal.KJoin, Site: site}); err != nil {
				// An admission the journal does not hold must not exist.
				_ = s.srv.Leave(site)
				return
			}
		}
		s.subs[site] = &sub
		if sub.Admitted != nil {
			sub.Admitted(snap)
		}
	})
	if derr != nil {
		return core.Snapshot{}, derr
	}
	return snap, err
}

// Leave removes a site; its subscriber receives nothing further.
func (s *Session) Leave(site int) error {
	var err error
	if derr := s.do(func() {
		if _, ok := s.subs[site]; !ok {
			return // unknown or already gone: Leave is idempotent
		}
		delete(s.subs, site)
		if err = s.srv.Leave(site); err == nil && s.jw != nil {
			err = s.jw.Append(journal.Record{Kind: journal.KLeave, Site: site})
		}
	}); derr != nil {
		return derr
	}
	return err
}

// Receive integrates one client operation and fans the broadcasts out to the
// subscribed destinations. Operations from viewers are rejected.
func (s *Session) Receive(m core.ClientMsg) error {
	var start time.Time
	if s.recvNs != nil {
		start = time.Now()
	}
	var err error
	if derr := s.do(func() {
		s.spans.Stamp(m.Trace, span.StageDequeue)
		sub := s.subs[m.From]
		if sub == nil || sub.ReadOnly {
			err = ErrRejected
			return
		}
		if s.jw != nil {
			// Write-ahead between validation and application: only operations
			// the engine will accept are journaled, and they are durable before
			// any effect (or broadcast) exists.
			if err = s.srv.Precheck(m); err != nil {
				return
			}
			if err = s.jw.Append(journal.Record{Kind: journal.KClientOp,
				Op: wire.ClientOp{From: m.From, TS: m.TS, Ref: m.Ref, Op: m.Op}}); err != nil {
				return
			}
		}
		bcast, _, rerr := s.srv.Receive(m)
		if rerr != nil {
			err = rerr
			return
		}
		s.received++
		// Every destination shares refs and op; only To and the compressed
		// timestamp differ. The shared body is encoded lazily — only when a
		// subscriber actually takes the encode-once path — and exactly once.
		var bc *wire.Broadcast
		for _, bm := range bcast {
			dst := s.subs[bm.To]
			if dst == nil {
				continue
			}
			switch {
			case dst.DeliverBroadcast != nil:
				if bc == nil {
					var berr error
					if bc, berr = wire.NewBroadcast(bm.Ref, bm.OrigRef, bm.Op); berr != nil {
						err = berr
						return
					}
					bc.Trace = bm.Trace
				}
				if dst.FanoutSender != nil {
					// Batched: the scratch Retains per destination itself
					// when it scatters (or walks) the list below.
					s.fanout.Add(dst.FanoutSender, bm.To, bm.TS)
					continue
				}
				bc.Retain()
				dst.DeliverBroadcast(bc, bm.To, bm.TS)
			case dst.Deliver != nil:
				dst.Deliver(bm)
			}
		}
		if s.fanout.Len() > 0 {
			s.fanout.Broadcast(bc, transport.DefaultFanoutThreshold) // consumes bc
			s.fanout.Reset()
		} else if bc != nil {
			bc.Release()
		}
		s.spans.Stamp(m.Trace, span.StageBcastEnqueue)
	}); derr != nil {
		return derr
	}
	if s.recvNs != nil {
		s.recvNs.Since(start)
	}
	return err
}

// RelayPresence re-coordinates a presence report and fans it out to
// subscribers that registered a Presence hook. Presence is ephemeral: it is
// never journaled.
func (s *Session) RelayPresence(m core.PresenceMsg) error {
	var err error
	if derr := s.do(func() {
		outs, rerr := s.srv.RelayPresence(m)
		if rerr != nil {
			err = rerr
			return
		}
		for _, o := range outs {
			if dst := s.subs[o.To]; dst != nil && dst.Presence != nil {
				dst.Presence(o)
			}
		}
	}); derr != nil {
		return derr
	}
	return err
}

// Ack records a site's bare acknowledgement (core.Server.Ack). A viewer may
// send one. It is never journaled: an acknowledgement changes what the engine
// retains, not what it executes, so a replayed journal reaches the same
// document with a lower frontier — and every site rejoins from a snapshot.
func (s *Session) Ack(site int, t1 uint64) error {
	var err error
	if derr := s.do(func() { err = s.srv.Ack(site, t1) }); derr != nil {
		return derr
	}
	return err
}

// Text returns the session's current document.
func (s *Session) Text() string {
	var text string
	_ = s.do(func() { text = s.srv.Text() })
	return text
}

// Sites returns the ids of the currently joined sites, in no particular
// order.
func (s *Session) Sites() []int {
	var sites []int
	_ = s.do(func() { sites = s.srv.Sites() })
	return sites
}

// Counts reports, per joined site, how many operations the notifier has
// received from it (SV_0[site]) and sent to it. Tests use this to detect
// quiescence exactly instead of sleeping.
func (s *Session) Counts() (received, sent map[int]uint64) {
	received = make(map[int]uint64)
	sent = make(map[int]uint64)
	_ = s.do(func() {
		for _, site := range s.srv.Sites() {
			received[site] = s.srv.SV().Of(site)
			sent[site] = s.srv.SentTo(site)
		}
	})
	return received, sent
}

// Stats is a point-in-time summary of one session.
type Stats struct {
	Name     string
	Sites    int    // currently joined sites
	Ops      uint64 // operations received over the session's lifetime
	Doc      int    // document length in runes
	Resident bool   // false when the session is dehydrated
}

// Stats reports the session's current size and traffic counters. Reading
// stats never rehydrates: a dehydrated session answers from the view frozen
// at park time (which is exact — nothing changes while parked).
func (s *Session) Stats() Stats {
	st := Stats{Name: s.name}
	if s.doResident(func() {
		st.Sites = len(s.subs)
		st.Ops = s.received
		st.Doc = s.srv.DocLen()
	}) {
		st.Resident = true
		return st
	}
	s.mu.RLock()
	st.Sites = s.pv.sites
	st.Ops = s.pv.received
	st.Doc = s.pv.docRunes
	s.mu.RUnlock()
	return st
}

// Close stops the session goroutine. Buffered commands still execute;
// subsequent calls return ErrClosed. Closing a dehydrated session is
// immediate — there is no goroutine to stop and the checkpoint is dropped.
// A journaled session's writer is closed last, after the actor has drained,
// and its error returned.
func (s *Session) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	// Capture this incarnation's channels under the lock: rehydrate cannot
	// run after closed is set, so these are final. A parked session's actor
	// already exited (done is closed); signalling quit is then a no-op.
	quit, done := s.quit, s.done
	s.checkpoint = nil
	// A waiter blocked in rehydrate's cond.Wait must observe the close.
	s.cond.Broadcast()
	s.mu.Unlock()
	// Enqueues that passed the closed check land in the buffer before quit
	// is signalled, so the run loop's drain releases every waiter.
	s.inflight.Wait()
	close(quit)
	<-done
	if s.jw != nil {
		return s.jw.Close()
	}
	return nil
}
