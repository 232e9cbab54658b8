package sparql

import "kglids/internal/obs"

// Engine metrics, registered once into the process-wide registry. Stage
// buckets start at 10µs — discovery queries on a warm store routinely
// finish in double-digit microseconds, below the HTTP-layer buckets.
var (
	mQueries = obs.Default.NewCounterVec("kglids_sparql_queries_total",
		"SPARQL queries by outcome: cache_hit, ok, error, parse_error, or cancelled.",
		"outcome")
	mStage = obs.Default.NewHistogramVec("kglids_sparql_stage_seconds",
		"Per-stage duration of SPARQL evaluation: parse, compile (lowering), plan (join ordering), execute (streaming match), materialize (decode + modifiers).",
		obs.ExpBuckets(0.00001, 4, 12), "stage")
	mCancellations = obs.Default.NewCounter("kglids_sparql_cancellations_total",
		"Queries aborted by context cancellation or deadline expiry.")
	mCacheHits = obs.Default.NewCounter("kglids_sparql_cache_hits_total",
		"Result-cache lookups served without re-execution.")
	mCacheMisses = obs.Default.NewCounter("kglids_sparql_cache_misses_total",
		"Result-cache lookups that had to execute (absent or stale entry).")
	mCacheEvictions = obs.Default.NewCounter("kglids_sparql_cache_evictions_total",
		"Result-cache entries dropped: stale generation, capacity, or resize.")
)
