package core

// Engine counter names. A Server given a registry (WithServerMetrics) bumps
// them there, so they appear under the session's /metricz namespace;
// internal/sim counts the same names for the experiment tables.
const (
	// COpsGenerated counts locally generated operations.
	COpsGenerated = "ops.generated"
	// COpsIntegrated counts remote operations integrated.
	COpsIntegrated = "ops.integrated"
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
