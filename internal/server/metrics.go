package server

import (
	"strings"

	"kglids/internal/obs"
)

// HTTP-layer metrics, registered once at package init into the
// process-wide registry. Route labels come from statsFor, which maps
// request paths onto the finite route table so cardinality stays bounded
// no matter what clients send.
var (
	mHTTPRequests = obs.Default.NewCounterVec("kglids_http_requests_total",
		"HTTP requests served, by route, method, and status code.",
		"route", "method", "status")
	mHTTPLatency = obs.Default.NewHistogramVec("kglids_http_request_seconds",
		"HTTP request latency in seconds, by route.",
		obs.DefaultLatencyBuckets, "route")
	mHTTPInFlight = obs.Default.NewGauge("kglids_http_in_flight",
		"Requests currently being served.")
	mHTTPPanics = obs.Default.NewCounter("kglids_http_panics_total",
		"Handler panics recovered into 500 responses.")
	mHTTPTimeouts = obs.Default.NewCounter("kglids_http_timeouts_total",
		"Requests cut off by the per-request deadline (504).")
)

// Store/platform size gauges, refreshed from the live platform by the
// debug handler at scrape time (see debug.go) so the serving hot path
// never pays for them.
var (
	mStoreQuads = obs.Default.NewGauge("kglids_store_quads",
		"Quads in the store (union graph counted once).")
	mStoreTerms = obs.Default.NewGauge("kglids_store_dictionary_terms",
		"Distinct terms in the store dictionary.")
	mStoreGraphs = obs.Default.NewGauge("kglids_store_graphs",
		"Named graphs in the store (one per table plus pipeline graphs).")
	mStoreGeneration = obs.Default.NewGauge("kglids_store_generation",
		"Store mutation generation (increments on every applied batch).")
	mPlatformTables = obs.Default.NewGauge("kglids_platform_tables",
		"Tables currently in the platform.")
	mSPARQLCacheEntries = obs.Default.NewGauge("kglids_sparql_cache_entries",
		"Entries resident in the SPARQL result cache.")
)

// routeLabels are the route labels: the exact-match routes, then the
// two path-parameter patterns and "other", which statsFor maps the rest
// onto.
var routeLabels = []string{
	"/healthz", "/api/v1/healthz", "/api/v1/stats", "/api/v1/tables",
	"/api/v1/search", "/api/v1/unionable", "/api/v1/similar",
	"/api/v1/libraries", "/api/v1/sparql", "/api/v1/ingest", "/api/v1/jobs",
	"/api/v1/changelog", "/api/v1/snapshot",
	"/api/v1/jobs/{id}", "/api/v1/tables/{id}", "other",
}

// tracedRoute is the route whose handler records spans into a request
// trace — the SPARQL query path, where the engine attributes
// compile/plan/execute/materialize timings and the slow-query log picks
// up the request ID. Other routes skip the trace install (a request
// clone plus two allocations) because nothing downstream would read it.
const tracedRoute = "/api/v1/sparql"

// routeStats is the per-route bundle the request hot path touches: the
// route label plus metric children resolved once at init, so recording a
// request is one map lookup and a few atomic adds — no label-key joins
// or family-map lookups per request. getOK pre-resolves the dominant
// (GET, 200) counter cell; every other method/status pair goes through
// the labeled family as usual.
type routeStats struct {
	label   string
	latency *obs.Histogram
	getOK   *obs.Counter
	traced  bool
}

var routeStatsByLabel = func() map[string]*routeStats {
	m := make(map[string]*routeStats, len(routeLabels))
	for _, l := range routeLabels {
		m[l] = &routeStats{
			label:   l,
			latency: mHTTPLatency.WithLabelValues(l),
			getOK:   mHTTPRequests.WithLabelValues(l, "GET", "200"),
			traced:  l == tracedRoute,
		}
	}
	return m
}()

// statsFor normalizes a request path to its route pattern — path
// parameters collapse to {id} and anything off the route table becomes
// "other", keeping the label set finite — and returns that route's
// pre-resolved stats bundle.
func statsFor(path string) *routeStats {
	if rs, ok := routeStatsByLabel[path]; ok {
		return rs
	}
	label := "other"
	switch {
	case strings.HasPrefix(path, "/api/v1/jobs/"):
		label = "/api/v1/jobs/{id}"
	case strings.HasPrefix(path, "/api/v1/tables/"):
		label = "/api/v1/tables/{id}"
	}
	return routeStatsByLabel[label]
}
