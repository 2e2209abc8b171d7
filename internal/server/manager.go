package server

import (
	"net/url"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obs/span"
)

// registry is the immutable session table the Manager publishes. Readers
// load it atomically and index it without locks; writers copy, mutate, and
// republish under the Manager's mutex. Sessions churn at human rates
// (documents opened and closed) while lookups happen per operation, so
// copy-on-write puts the copy on the cold side.
type registry map[string]*Session

// Manager routes document names to running Sessions.
type Manager struct {
	initial string
	engine  []core.ServerOption
	idleD   time.Duration

	// rehydrations counts engine restores across all sessions (nil without
	// observability).
	rehydrations *obs.Counter

	// obsReg, when non-nil, receives one child registry per session
	// (engine counters, receive latency, size gauges); dropped sessions
	// drop their child. ring, when non-nil, is shared by every session's
	// engine for causality-decision tracing.
	obsReg *obs.Registry
	ring   *obs.DecisionRing

	// spans, when non-nil, is shared by every session: the actor stamps
	// dequeue/broadcast-enqueue and the engine stamps check/transform/
	// execute for sampled operations.
	spans *span.Tracer

	// journalPath maps a session name to its journal file ("" = that
	// session is not journaled).
	journalPath func(session string) string

	reg atomic.Value // registry

	mu     sync.Mutex // serializes registry writes and Close
	closed bool
}

// ManagerOption configures a Manager.
type ManagerOption func(*Manager)

// WithInitialText sets the initial document for every new session.
func WithInitialText(text string) ManagerOption {
	return func(m *Manager) { m.initial = text }
}

// WithEngineOptions passes options to every session's core.Server.
func WithEngineOptions(opts ...core.ServerOption) ManagerOption {
	return func(m *Manager) { m.engine = opts }
}

// WithObservability mounts every session's metrics as a child of reg: the
// engine's trace counters, the receive.ns latency histogram, and live size
// gauges (sites, hb.len, hb.clock_words, ...) all appear under the session's
// name in reg.Snapshot(). The manager owns only its children — process-wide
// counters (wire, transport) are registered by DebugHandler.
func WithObservability(reg *obs.Registry) ManagerOption {
	return func(m *Manager) { m.obsReg = reg }
}

// WithDecisionRing shares ring across every session's engine: each concurrency
// check and integration summary is recorded (when the ring is enabled) with
// the session's name as its label.
func WithDecisionRing(ring *obs.DecisionRing) ManagerOption {
	return func(m *Manager) { m.ring = ring }
}

// WithSpanTracer shares the op-lifecycle tracer across every session. Each
// session's actor and engine stamp the stages they own for sampled
// operations; service connections adopt wire-propagated trace contexts at
// arrival.
func WithSpanTracer(tr *span.Tracer) ManagerOption {
	return func(m *Manager) { m.spans = tr }
}

// WithIdleDehydrate enables cold-session dehydration: a session that
// receives no commands for d drains, serializes its engine into a compact
// in-memory checkpoint (core.Checkpoint), and exits its goroutine. The next
// Join/Receive/RelayPresence rehydrates it transparently. d <= 0 (the
// default) keeps every session resident forever.
func WithIdleDehydrate(d time.Duration) ManagerOption {
	return func(m *Manager) { m.idleD = d }
}

// WithJournal makes sessions crash-consistent: path names each session's
// journal file ("" = that session is not journaled). Every join, leave and
// accepted operation is appended to the file before it takes effect, and a
// session whose file already exists is rebuilt from it — surviving clients
// reconnect with their site ids and resume, their counters continuing where
// the journal shows them.
func WithJournal(path func(session string) string) ManagerOption {
	return func(m *Manager) { m.journalPath = path }
}

// JournalFiles is the WithJournal layout reducesrv -journal uses: the default
// session "" journals to base itself (so a single-document journal keeps its
// name), a named session to base.<escaped name>.
func JournalFiles(base string) func(session string) string {
	return func(session string) string {
		if session == "" {
			return base
		}
		return base + "." + url.PathEscape(session)
	}
}

// NewManager returns an empty manager; sessions are created on first use.
func NewManager(opts ...ManagerOption) *Manager {
	m := &Manager{
		journalPath: func(string) string { return "" },
	}
	for _, o := range opts {
		o(m)
	}
	m.reg.Store(registry{})
	if m.obsReg != nil {
		// Fleet-level residency metrics: how many sessions hold a live
		// goroutine + engine versus a parked checkpoint, and how many
		// restores have happened. Counting walks the lock-free registry
		// snapshot and each session's state word — no session goroutine is
		// consulted.
		m.rehydrations = m.obsReg.Counter(obs.CSessionRehydrations)
		m.obsReg.Gauge(obs.GSessionsResident, func() int64 {
			n := int64(0)
			for _, s := range m.reg.Load().(registry) {
				if !s.Dehydrated() {
					n++
				}
			}
			return n
		})
		m.obsReg.Gauge(obs.GSessionsDehydrated, func() int64 {
			n := int64(0)
			for _, s := range m.reg.Load().(registry) {
				if s.Dehydrated() {
					n++
				}
			}
			return n
		})
	}
	return m
}

// Get returns the named session if it is running. The lookup is lock-free.
func (m *Manager) Get(name string) (*Session, bool) {
	s, ok := m.reg.Load().(registry)[name]
	return s, ok
}

// GetOrCreate returns the named session, starting it if necessary. The hit
// path is the lock-free Get; only genuine creation takes the write lock.
func (m *Manager) GetOrCreate(name string) (*Session, error) {
	if s, ok := m.Get(name); ok {
		return s, nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, ErrClosed
	}
	old := m.reg.Load().(registry)
	if s, ok := old[name]; ok { // lost the creation race
		return s, nil
	}
	s, err := newSession(m, name)
	if err != nil {
		// Still under m.mu, like the Child call that created it, so a
		// concurrent creator of the same name cannot lose its child here.
		m.dropChild(name)
		return nil, err
	}
	next := make(registry, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[name] = s
	m.reg.Store(next)
	return s, nil
}

// Drop stops the named session and removes it from the registry. Connections
// still attached observe ErrClosed from their next call.
func (m *Manager) Drop(name string) {
	m.mu.Lock()
	old := m.reg.Load().(registry)
	s, ok := old[name]
	if ok {
		next := make(registry, len(old))
		for k, v := range old {
			if k != name {
				next[k] = v
			}
		}
		m.reg.Store(next)
	}
	m.mu.Unlock()
	if ok {
		_ = s.Close()
		m.dropChild(name)
	}
}

// Registry returns the observability registry the manager mounts session
// children on (nil when WithObservability was not used).
func (m *Manager) Registry() *obs.Registry { return m.obsReg }

// SpanTracer returns the shared op-lifecycle tracer (nil without
// WithSpanTracer); Service reads it to adopt trace contexts at arrival.
func (m *Manager) SpanTracer() *span.Tracer { return m.spans }

// sessionChild returns the session's observability child registry, or nil.
func (m *Manager) sessionChild(name string) *obs.Registry {
	if m.obsReg == nil {
		return nil
	}
	return m.obsReg.Child(sessionChildName(name))
}

// dropChild removes the session's observability child registry, if any.
func (m *Manager) dropChild(name string) {
	if m.obsReg != nil {
		m.obsReg.DropChild(sessionChildName(name))
	}
}

// sessionChildName maps a session name to its registry child name; the
// default session "" gets a printable one.
func sessionChildName(name string) string {
	if name == "" {
		return "(default)"
	}
	return name
}

// Names returns the running session names, sorted.
func (m *Manager) Names() []string {
	reg := m.reg.Load().(registry)
	out := make([]string, 0, len(reg))
	for name := range reg {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Len returns the number of running sessions.
func (m *Manager) Len() int { return len(m.reg.Load().(registry)) }

// Stats summarizes every running session, sorted by name.
func (m *Manager) Stats() []Stats {
	reg := m.reg.Load().(registry)
	out := make([]Stats, 0, len(reg))
	for _, s := range reg {
		out = append(out, s.Stats())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Close stops every session and rejects further creation. It returns the
// first error a session's journal reported on close.
func (m *Manager) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	reg := m.reg.Load().(registry)
	m.reg.Store(registry{})
	m.mu.Unlock()
	var first error
	for name, s := range reg {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
		m.dropChild(name)
	}
	return first
}
