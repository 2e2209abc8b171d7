package server

import (
	"fmt"
	"net/http"
	"runtime"
	"sync"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obs/span"
	"repro/internal/transport"
	"repro/internal/transport/netpoll"
	"repro/internal/wire"
)

// Service is the network front end of a Manager — the one notifier front end
// in the tree (repro.Notifier is a Service holding only the default session):
// one listener serving many document sessions. A connection opens with either
// a wire.JoinReq (the single-document protocol, identical to a
// wire.SessionJoinReq naming the default session "") or a
// wire.SessionJoinReq naming a document; afterwards the per-connection
// protocol is the same for every session.
//
// By default every connection costs two goroutines (reader + writer).
// WithSharedWorkers changes that: a fixed worker pool drains all outbound
// queues, and a shared dispatcher parks the inbound sides of event-capable
// transports (the in-memory one, the poller's TCP) — an idle connection then
// costs zero goroutines (DESIGN.md §15).
type Service struct {
	ln  transport.Listener
	mgr *Manager

	// pool, when non-nil, drains every connection's outbound queue with
	// shared workers instead of one writer goroutine per connection.
	pool *transport.WriterPool
	// disp, when non-nil, drains event-capable inbound sides with shared
	// workers instead of one reader goroutine per connection. Connections
	// whose transport cannot signal readability (plain TCP) keep a dedicated
	// reader either way.
	disp *transport.Dispatcher

	// queueHist, when observability is mounted, receives every connection's
	// enqueue-time queue depth (obs.HQueueDepth on the manager's registry).
	queueHist *obs.Histogram

	mu     sync.Mutex
	closed bool
	conns  map[transport.Conn]*transport.Sender

	wg sync.WaitGroup
}

// ServeOption configures a Service.
type ServeOption func(*serveConfig)

type serveConfig struct {
	sharedWorkers int
}

// WithSharedWorkers is the goroutine-lean connection layout: every
// connection's outbound queue is drained by a pool of n writer goroutines,
// and the inbound side of every event-capable connection (transport.EventConn
// — the in-memory transport and the poller's TCP) is stepped by a dispatcher
// of n more (GOMAXPROCS when n < 0). n == 0 keeps one dedicated reader and
// writer per connection (the default, and the reference semantics the lean
// layout is differentially tested against). Plain TCP connections keep a
// dedicated reader either way: without a platform poller their readiness is
// only observable from a blocked Read.
func WithSharedWorkers(n int) ServeOption {
	return func(c *serveConfig) { c.sharedWorkers = n }
}

// Serve starts accepting connections for mgr's sessions on ln and returns
// immediately. The caller retains ownership of mgr (Close does not close it),
// so one manager can serve several listeners.
func Serve(ln transport.Listener, mgr *Manager, opts ...ServeOption) *Service {
	var cfg serveConfig
	for _, o := range opts {
		o(&cfg)
	}
	s := &Service{ln: ln, mgr: mgr, conns: make(map[transport.Conn]*transport.Sender)}
	if cfg.sharedWorkers != 0 {
		s.pool = transport.NewWriterPool(cfg.sharedWorkers)
		s.disp = transport.NewDispatcher(cfg.sharedWorkers, 0)
	}
	if reg := mgr.Registry(); reg != nil {
		// Live connection-queue metrics for /metricz. One gauge per manager:
		// a second Serve on the same manager takes the name over, which is
		// harmless — both report the same kind of maximum.
		s.queueHist = reg.Histogram(obs.HQueueDepth)
		reg.Gauge(obs.GQueueHighWater, func() int64 { return int64(s.QueueHighWater()) })
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// QueueHighWater reports the deepest any live connection's outbound queue
// has been — the backpressure of the slowest client currently connected.
func (s *Service) QueueHighWater() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	var hw int
	for _, snd := range s.conns {
		if snd == nil {
			continue
		}
		if d := snd.HighWater(); d > hw {
			hw = d
		}
	}
	return hw
}

// Addr returns the listener's address.
func (s *Service) Addr() string { return s.ln.Addr() }

// Dispatched returns how many connections are parked on the event dispatcher
// (0 without WithSharedWorkers). Tests use it to assert that churn retires
// every dispatched connection exactly once.
func (s *Service) Dispatched() int {
	if s.disp == nil {
		return 0
	}
	return s.disp.Len()
}

// String summarizes the service for status logs: address, live connections,
// session count, and the queue high-water mark.
func (s *Service) String() string {
	s.mu.Lock()
	conns := len(s.conns)
	s.mu.Unlock()
	return fmt.Sprintf("service addr=%s conns=%d sessions=%d queue_highwater=%d",
		s.ln.Addr(), conns, s.mgr.Len(), s.QueueHighWater())
}

// DebugHandler assembles the HTTP introspection endpoint for a server built
// around reg: it registers the process-wide wire and transport counters on
// reg and returns the obs handler serving /metricz, /tracez (when ring is
// non-nil), /healthz, pprof, and expvar. Extra endpoints (the span tracer's
// /spanz) and the readiness probe arrive via opts. reducesrv and tests mount
// it.
func DebugHandler(reg *obs.Registry, ring *obs.DecisionRing, opts ...obs.HandlerOption) http.Handler {
	wire.RegisterMetrics(reg)
	transport.RegisterMetrics(reg)
	netpoll.RegisterMetrics(reg)
	// The goroutine count is the E13 headline: with the lean connection
	// layer it stays O(pool + resident sessions) however many connections
	// are attached.
	reg.Gauge(obs.GGoroutines, func() int64 { return int64(runtime.NumGoroutine()) })
	// Runtime memory pressure, read fresh per snapshot. ReadMemStats is a
	// stop-the-world of microseconds — fine at /metricz polling rates.
	reg.Gauge(obs.GHeapBytes, func() int64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	})
	reg.Gauge(obs.GGCPauseNs, func() int64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		if ms.NumGC == 0 {
			return 0
		}
		return int64(ms.PauseNs[(ms.NumGC+255)%256])
	})
	reg.Gauge(obs.GNumGC, func() int64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.NumGC)
	})
	return obs.NewHandler(reg.Snapshot, ring, opts...)
}

// connWakeNs reports when the platform poller saw conn become readable
// (netpoll's pollConn implements the probe), or 0 when the transport cannot
// say — the poll_wake stage is then simply absent from the span.
func connWakeNs(c transport.Conn) int64 {
	if w, ok := c.(interface{ TraceWakeNs() int64 }); ok {
		return w.TraceWakeNs()
	}
	return 0
}

// Close stops accepting, closes every connection, and waits for the
// connection handlers to finish.
func (s *Service) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	conns := make([]transport.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()

	_ = s.ln.Close()
	for _, c := range conns {
		_ = c.Close()
	}
	s.wg.Wait()
	// Teardown order matters: retiring dispatched connections runs their
	// finish hooks, which close senders, which need the writer pool to
	// drain — so the pool goes down last.
	if s.disp != nil {
		s.disp.Close()
	}
	if s.pool != nil {
		s.pool.Close()
	}
	return nil
}

func (s *Service) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close()
			return
		}
		s.conns[conn] = nil // sender registered once the join handshake completes
		s.mu.Unlock()
		cs := &connState{s: s, conn: conn}
		if s.disp != nil {
			if ec, ok := conn.(transport.EventConn); ok {
				// Event path: no goroutine. The dispatcher steps the
				// connection's state machine per inbound message; the join
				// request arrives as the first dispatched message.
				if s.disp.Add(ec, cs.handleMsg, cs.finish) {
					continue
				}
				// Dispatcher already closed: fall through to the dedicated
				// reader, which will fail fast on the closed listener state.
			}
		}
		s.wg.Add(1)
		go s.read(cs)
	}
}

// read is the dedicated reader: a blocking Recv loop stepping the same state
// machine the dispatcher steps, then the same exactly-once teardown.
func (s *Service) read(cs *connState) {
	defer s.wg.Done()
	for {
		m, err := cs.conn.Recv()
		if err != nil || !cs.handleMsg(m) {
			break
		}
	}
	cs.finish()
}

// connState is one connection's protocol state: join handshake first, then
// the operation loop. It is stepped by exactly one reader at a time — the
// connection's dedicated reader goroutine or a dispatcher worker (the
// dispatcher guarantees one servicer per conn) — in delivery order,
// preserving the per-connection FIFO the paper's links assume.
type connState struct {
	s    *Service
	conn transport.Conn

	admitted bool
	sess     *Session
	site     int
	readOnly bool
	snd      *transport.Sender
}

// handleMsg processes one inbound message; returning false retires the
// connection (its reader then runs finish exactly once).
func (cs *connState) handleMsg(m wire.Msg) bool {
	if !cs.admitted {
		return cs.admit(m) == nil
	}
	switch v := m.(type) {
	case wire.ClientOp:
		if v.From != cs.site || cs.readOnly {
			return false // impersonation, or an op from a viewer
		}
		var ctx span.Context
		if tr := cs.s.mgr.SpanTracer(); tr.Enabled() {
			ctx = tr.Arrival(v.Trace, v.Ref.Site, v.Ref.Seq, connWakeNs(cs.conn))
		}
		return cs.sess.Receive(core.ClientMsg{From: v.From, Op: v.Op, TS: v.TS, Ref: v.Ref, Trace: ctx}) == nil
	case wire.Presence:
		if v.From != cs.site {
			return false
		}
		return cs.sess.RelayPresence(core.PresenceMsg{
			From: v.From, TS: v.TS, Anchor: v.Anchor, Head: v.Head, Active: v.Active,
		}) == nil
	case wire.Ack:
		if v.From != cs.site {
			return false
		}
		return cs.sess.Ack(v.From, v.T1) == nil
	case wire.Leave:
		return false
	default:
		return false // protocol violation
	}
}

// finish is the exactly-once teardown of a retired connection: leave the
// session, close the sender, forget and close the conn.
func (cs *connState) finish() {
	if cs.admitted {
		_ = cs.sess.Leave(cs.site)
		cs.snd.Close()
	}
	cs.s.mu.Lock()
	delete(cs.s.conns, cs.conn)
	cs.s.mu.Unlock()
	_ = cs.conn.Close()
}

// admit handles the opening message: it routes to (or creates) the session
// and completes the join handshake. The snapshot is enqueued from the session
// goroutine by the Admitted hook, so it precedes any broadcast to the site.
func (cs *connState) admit(m wire.Msg) error {
	s := cs.s
	var name string
	var site int
	switch v := m.(type) {
	case wire.JoinReq:
		site, cs.readOnly = v.Site, v.ReadOnly
	case wire.SessionJoinReq:
		name, site, cs.readOnly = v.Session, v.Site, v.ReadOnly
	default:
		return fmt.Errorf("server: expected join, got %T", m)
	}
	sess, err := s.mgr.GetOrCreate(name)
	if err != nil {
		return err
	}
	// The sender is the shared writer-queue type: the session goroutine
	// never blocks on a peer's network backpressure, and its drains
	// coalesce bursts into batched frames with one flush each. With a
	// writer pool it also costs no goroutine while idle.
	snd := transport.NewPooledSender(cs.conn, ErrClosed, s.pool)
	if s.queueHist != nil {
		snd.SetQueueHistogram(s.queueHist)
	}
	if tr := s.mgr.SpanTracer(); tr != nil {
		snd.SetTracer(tr)
	}
	s.mu.Lock()
	if _, ok := s.conns[cs.conn]; ok {
		s.conns[cs.conn] = snd
	}
	s.mu.Unlock()
	snap, err := sess.Join(site, Subscriber{
		ReadOnly: cs.readOnly,
		Admitted: func(sn core.Snapshot) {
			_ = snd.Enqueue(wire.JoinResp{Site: sn.Site, Text: sn.Text, LocalOps: sn.LocalOps})
		},
		DeliverBroadcast: func(bc *wire.Broadcast, to int, ts core.Timestamp) {
			_ = snd.EnqueueBroadcast(bc, to, ts)
		},
		Presence: func(o core.PresenceOut) {
			_ = snd.Enqueue(wire.ServerPresence{
				To: o.To, From: o.From, Anchor: o.Anchor, Head: o.Head, Active: o.Active,
			})
		},
	})
	if err != nil {
		snd.Close()
		return err
	}
	cs.admitted = true
	cs.sess, cs.site, cs.snd = sess, snap.Site, snd
	return nil
}
