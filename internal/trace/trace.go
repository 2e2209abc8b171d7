// Package trace collects runtime metrics from a group-editing session: op
// and byte counters per link, concurrency-detection counts, and
// transformation counts. cmd/figures reads these (through internal/sim) to
// print the experiment tables.
//
// Metrics is a thin naming layer over internal/obs: every counter is an
// obs.Counter (sharded, lock-free, allocation-free to increment), and a
// Metrics bag can be mounted on a caller-owned obs.Registry with MetricsOn so
// engine counters appear in that registry's /metricz snapshots for free.
package trace

import (
	"fmt"
	"strings"

	"repro/internal/obs"
)

// Metrics is a thread-safe bag of named counters. Incrementing is lock-free
// and allocation-free; the zero cost makes it safe to leave attached to
// production engines, not just benchmarks.
type Metrics struct {
	reg *obs.Registry
}

// NewMetrics returns an empty metrics bag backed by a private registry.
func NewMetrics() *Metrics {
	return MetricsOn(obs.NewRegistry(""))
}

// MetricsOn returns a metrics bag that stores its counters in reg — the
// bridge between engine counting (this package's names) and the
// observability registry tree that serves /metricz. reg must be non-nil.
func MetricsOn(reg *obs.Registry) *Metrics {
	return &Metrics{reg: reg}
}

// Registry exposes the backing registry (for snapshotting alongside other
// metrics).
func (m *Metrics) Registry() *obs.Registry { return m.reg }

// Inc adds delta to the named counter.
func (m *Metrics) Inc(name string, delta int64) {
	m.reg.Counter(name).Add(delta)
}

// Get reads the named counter; names never incremented read 0 and are not
// created.
func (m *Metrics) Get(name string) int64 {
	if c, ok := m.reg.LoadCounter(name); ok {
		return c.Load()
	}
	return 0
}

// Names returns all counter names, sorted.
func (m *Metrics) Names() []string {
	return m.reg.CounterNames()
}

// String renders all counters, one per line, sorted by name.
func (m *Metrics) String() string {
	var b strings.Builder
	for _, n := range m.Names() {
		fmt.Fprintf(&b, "%s: %d\n", n, m.Get(n))
	}
	return b.String()
}

// Standard counter names used across the harness.
const (
	// COpsGenerated counts locally generated operations.
	COpsGenerated = "ops.generated"
	// COpsIntegrated counts remote operations integrated.
	COpsIntegrated = "ops.integrated"
	// CBytesUp counts client→notifier payload bytes.
	CBytesUp = "bytes.up"
	// CBytesDown counts notifier→client payload bytes.
	CBytesDown = "bytes.down"
	// CTimestampBytes counts bytes spent on timestamps alone.
	CTimestampBytes = "bytes.timestamps"
	// CConcurrencyChecks counts formula (5)/(7) evaluations.
	CConcurrencyChecks = "checks.total"
	// CConcurrentPairs counts checks that returned "concurrent".
	CConcurrentPairs = "checks.concurrent"
	// CTransforms counts inclusion transformations performed.
	CTransforms = "ot.transforms"
	// CCacheHits counts integrations served by a warm composed-suffix
	// transform cache (one Transform regardless of bridge depth).
	CCacheHits = "ot.cache.hits"
	// CCacheMisses counts integrations that had to walk or (re)build the
	// composed suffix because the cache was cold or invalidated.
	CCacheMisses = "ot.cache.misses"
	// CComposes counts op.Compose calls spent building or extending the
	// composed-suffix cache.
	CComposes = "ot.cache.composes"
	// CCompactions counts history-buffer compaction rounds.
	CCompactions = "hb.compactions"
	// CCompacted counts history-buffer entries removed by compaction.
	CCompacted = "hb.compacted"
	// CAcksReceived counts bare acknowledgements that advanced a site's
	// acknowledged frontier at the notifier.
	CAcksReceived = "acks.received"
	// CAcksStale counts bare acknowledgements at or below the frontier the
	// notifier already knew (duplicates; ignored).
	CAcksStale = "acks.stale"
)
