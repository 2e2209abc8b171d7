// Package obs is the live observability core of the group editor: sharded
// lock-free counters, fixed-bucket latency histograms, a bounded
// causality-decision trace ring, and a Registry that aggregates all of it —
// per session and process-wide — into mergeable snapshots served over HTTP
// (/metricz, /tracez; see http.go).
//
// The paper's claims are quantitative (constant 2-integer timestamps, O(HB)
// concurrency checks regardless of N), so the runtime must be able to show
// those quantities live without perturbing them: every recording primitive
// here is allocation-free and at most a few atomic operations on its fast
// path (TestFastPathAllocFree). Lock-taking operations (registration,
// snapshots, trace dumps) are cold-path only.
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Registry names and owns a set of metrics. Counter/Histogram are
// get-or-create with a lock-free hit path (copy-on-write maps), so resolving
// a metric by name is cheap — though hot paths should still resolve once and
// keep the pointer. Gauges and counter funcs adapt externally-owned state
// (engine sizes, process-wide atomic counters) into snapshots; children give
// each document session its own namespace under a shared parent.
//
// All methods are safe for concurrent use. Registration takes the registry
// mutex; reads and increments never do.
type Registry struct {
	name string

	counters atomic.Value // map[string]*Counter, copy-on-write
	hists    atomic.Value // map[string]*Histogram, copy-on-write

	mu           sync.Mutex
	gauges       map[string]func() int64
	counterFuncs map[string]func() int64
	children     map[string]*Registry
}

// NewRegistry returns an empty registry with the given display name.
func NewRegistry(name string) *Registry {
	r := &Registry{
		name:         name,
		gauges:       make(map[string]func() int64),
		counterFuncs: make(map[string]func() int64),
		children:     make(map[string]*Registry),
	}
	r.counters.Store(map[string]*Counter{})
	r.hists.Store(map[string]*Histogram{})
	return r
}

// Name returns the registry's display name.
func (r *Registry) Name() string { return r.name }

// Counter returns the named counter, creating it on first use. The hit path
// is one atomic map load — no lock, no allocation.
func (r *Registry) Counter(name string) *Counter {
	if c, ok := r.counters.Load().(map[string]*Counter)[name]; ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	old := r.counters.Load().(map[string]*Counter)
	if c, ok := old[name]; ok { // lost the creation race
		return c
	}
	c := &Counter{}
	next := make(map[string]*Counter, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[name] = c
	r.counters.Store(next)
	return c
}

// Histogram returns the named histogram, creating it on first use. The hit
// path is one atomic map load.
func (r *Registry) Histogram(name string) *Histogram {
	if h, ok := r.hists.Load().(map[string]*Histogram)[name]; ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	old := r.hists.Load().(map[string]*Histogram)
	if h, ok := old[name]; ok {
		return h
	}
	h := NewHistogram()
	next := make(map[string]*Histogram, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[name] = h
	r.hists.Store(next)
	return h
}

// Gauge registers a point-in-time value evaluated at snapshot time — the
// adapter for state owned elsewhere (history-buffer length, joined sites,
// queue high-water). fn must be safe to call from any goroutine; it runs
// with no registry lock held, so it may itself take locks.
func (r *Registry) Gauge(name string, fn func() int64) {
	r.mu.Lock()
	r.gauges[name] = fn
	r.mu.Unlock()
}

// CounterFunc registers an externally-owned monotone counter (e.g. a
// package-level atomic in wire or transport) under this registry's
// namespace. It appears among the counters in snapshots but is read through
// fn, which runs with no registry lock held.
func (r *Registry) CounterFunc(name string, fn func() int64) {
	r.mu.Lock()
	r.counterFuncs[name] = fn
	r.mu.Unlock()
}

// Child returns the named sub-registry, creating it on first use. Children
// appear in the parent's Snapshot; the multi-session server gives every
// document session one.
func (r *Registry) Child(name string) *Registry {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.children[name]; ok {
		return c
	}
	c := NewRegistry(name)
	r.children[name] = c
	return c
}

// DropChild removes the named sub-registry (e.g. when a session is dropped).
func (r *Registry) DropChild(name string) {
	r.mu.Lock()
	delete(r.children, name)
	r.mu.Unlock()
}

// Snapshot captures every counter, gauge, and histogram of this registry and
// its children. Gauge and counter funcs are invoked after the registry lock
// is released, so they may take their own locks without ordering hazards.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{Name: r.name}

	counters := r.counters.Load().(map[string]*Counter)
	hists := r.hists.Load().(map[string]*Histogram)

	r.mu.Lock()
	gauges := make(map[string]func() int64, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	cfuncs := make(map[string]func() int64, len(r.counterFuncs))
	for k, v := range r.counterFuncs {
		cfuncs[k] = v
	}
	children := make([]*Registry, 0, len(r.children))
	for _, c := range r.children {
		children = append(children, c)
	}
	r.mu.Unlock()

	if len(counters)+len(cfuncs) > 0 {
		s.Counters = make(map[string]int64, len(counters)+len(cfuncs))
		for name, c := range counters {
			s.Counters[name] = c.Load()
		}
		for name, fn := range cfuncs {
			s.Counters[name] = fn()
		}
	}
	if len(gauges) > 0 {
		s.Gauges = make(map[string]int64, len(gauges))
		for name, fn := range gauges {
			s.Gauges[name] = fn()
		}
	}
	if len(hists) > 0 {
		s.Hists = make(map[string]HistSnapshot, len(hists))
		for name, h := range hists {
			s.Hists[name] = h.Snapshot()
		}
	}
	for _, c := range children {
		s.Children = append(s.Children, c.Snapshot())
	}
	sort.Slice(s.Children, func(i, j int) bool { return s.Children[i].Name < s.Children[j].Name })
	return s
}

// Snapshot is a point-in-time copy of a Registry tree — the JSON body of
// /metricz and the input of cvcstat's tables.
type Snapshot struct {
	Name     string                  `json:"name,omitempty"`
	Counters map[string]int64        `json:"counters,omitempty"`
	Gauges   map[string]int64        `json:"gauges,omitempty"`
	Hists    map[string]HistSnapshot `json:"histograms,omitempty"`
	Children []Snapshot              `json:"children,omitempty"`
}

// Child returns the named child snapshot, if present.
func (s Snapshot) Child(name string) (Snapshot, bool) {
	for _, c := range s.Children {
		if c.Name == name {
			return c, true
		}
	}
	return Snapshot{}, false
}

// Merge combines two snapshots: counters and gauges add, histograms merge
// bucket-wise, children with equal names merge recursively. Adding gauges is
// the useful aggregate for the gauges this system exposes (sites, ops,
// buffer sizes across session shards); it is not meaningful for every
// conceivable gauge, which is why Merge lives on Snapshot — callers choose
// when to aggregate.
func (s Snapshot) Merge(o Snapshot) Snapshot {
	out := Snapshot{Name: s.Name}
	out.Counters = mergeInt64(s.Counters, o.Counters)
	out.Gauges = mergeInt64(s.Gauges, o.Gauges)
	if len(s.Hists)+len(o.Hists) > 0 {
		out.Hists = make(map[string]HistSnapshot, len(s.Hists)+len(o.Hists))
		for k, v := range s.Hists {
			out.Hists[k] = v
		}
		for k, v := range o.Hists {
			out.Hists[k] = out.Hists[k].Merge(v)
		}
	}
	byName := make(map[string]int, len(s.Children))
	for _, c := range s.Children {
		byName[c.Name] = len(out.Children)
		out.Children = append(out.Children, c)
	}
	for _, c := range o.Children {
		if i, ok := byName[c.Name]; ok {
			out.Children[i] = out.Children[i].Merge(c)
		} else {
			out.Children = append(out.Children, c)
		}
	}
	sort.Slice(out.Children, func(i, j int) bool { return out.Children[i].Name < out.Children[j].Name })
	return out
}

// Aggregate folds every child into one flat snapshot (plus the parent's own
// metrics) — the "all sessions" row of cvcstat.
func (s Snapshot) Aggregate() Snapshot {
	out := Snapshot{Name: s.Name, Counters: s.Counters, Gauges: s.Gauges, Hists: s.Hists}
	for _, c := range s.Children {
		flat := c.Aggregate()
		flat.Children = nil
		flat.Name = out.Name
		out = out.Merge(flat)
	}
	return out
}

func mergeInt64(a, b map[string]int64) map[string]int64 {
	if len(a)+len(b) == 0 {
		return nil
	}
	out := make(map[string]int64, len(a)+len(b))
	for k, v := range a {
		out[k] = v
	}
	for k, v := range b {
		out[k] += v
	}
	return out
}

// sortedKeys returns the keys of m in sorted order (text rendering).
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
