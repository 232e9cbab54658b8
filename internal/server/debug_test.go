package server

import (
	"bytes"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"kglids/internal/ingest"
	"kglids/internal/obs"
)

func TestRouteLabel(t *testing.T) {
	cases := map[string]string{
		"/api/v1/healthz":         "/api/v1/healthz",
		"/api/v1/sparql":          "/api/v1/sparql",
		"/api/v1/jobs/42":         "/api/v1/jobs/{id}",
		"/api/v1/tables/ds/a.csv": "/api/v1/tables/{id}",
		"/healthz":                "/healthz",
		"/stats":                  "other",
		"/sparql":                 "other",
		"/ingest":                 "other",
		"/jobs/7":                 "other",
		"/tables/ds/a.csv":        "other",
		"/favicon.ico":            "other",
		"/api/v2/whatever":        "other",
	}
	for path, want := range cases {
		if got := routeLabel(path); got != want {
			t.Errorf("routeLabel(%q) = %q, want %q", path, got, want)
		}
	}
}

// TestDebugMetricsEndpoint drives real traffic through the API handler,
// then scrapes the debug mux and checks the exposition is valid and
// carries the cross-layer families the acceptance criteria name.
func TestDebugMetricsEndpoint(t *testing.T) {
	plat, _ := testPlatform(t)
	api := New(plat, Options{})
	for _, path := range []string{
		"/api/v1/healthz",
		"/api/v1/stats",
		"/api/v1/sparql?query=" + url.QueryEscape("SELECT ?t WHERE { ?t a kglids:Table . }"),
		"/nope",
	} {
		rec := httptest.NewRecorder()
		api.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	}

	dbg := NewDebugHandler(plat, false)
	rec := httptest.NewRecorder()
	dbg.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics status = %d", rec.Code)
	}
	body := rec.Body.String()
	if err := obs.ValidateExposition(strings.NewReader(body)); err != nil {
		t.Fatalf("/metrics exposition invalid: %v", err)
	}
	for _, family := range []string{
		`kglids_http_requests_total{route="/api/v1/healthz",method="GET",status="200"}`,
		`kglids_http_request_seconds_bucket{route="/api/v1/sparql",le="+Inf"}`,
		"kglids_http_in_flight",
		"kglids_sparql_queries_total",
		`kglids_sparql_stage_seconds_bucket{stage="execute",le="+Inf"}`,
		"kglids_sparql_cache_misses_total",
		"kglids_store_quads",
		"kglids_store_dictionary_terms",
		"kglids_store_generation",
		"kglids_platform_tables",
		"kglids_edges_build_seconds",
		"kglids_ingest_queue_depth",
		"kglids_snapshot_seconds",
	} {
		if !strings.Contains(body, family) {
			t.Errorf("/metrics missing %s", family)
		}
	}
	// The store gauges must reflect the live platform, not zero values.
	quads := fmt.Sprintf("kglids_store_quads %d", plat.Core().Store.Len())
	if !strings.Contains(body, quads) {
		t.Errorf("/metrics missing live gauge line %q", quads)
	}

	rec = httptest.NewRecorder()
	dbg.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/vars", nil))
	if rec.Code != http.StatusOK {
		t.Errorf("/debug/vars status = %d", rec.Code)
	}
}

// TestMetricsConcurrentScrapeIngestQuery scrapes /metrics while ingest
// jobs mutate the platform and SPARQL queries run through the API — the
// acceptance bar for race-cleanliness (run under -race in CI).
func TestMetricsConcurrentScrapeIngestQuery(t *testing.T) {
	plat, lake := testPlatform(t)
	mgr := ingest.New(plat.Core(), ingest.Options{Workers: 2, QueueSize: 64})
	defer mgr.Close()
	api := New(plat, Options{Ingest: mgr})
	dbg := NewDebugHandler(plat, false)

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Ingest churn: resubmit lake tables under fresh dataset names.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for n := 0; ; n++ {
			select {
			case <-stop:
				return
			default:
			}
			var body bytes.Buffer
			df := lake.Tables[n%len(lake.Tables)]
			fmt.Fprintf(&body, `{"tables":[{"dataset":"churn%d","name":%q,"columns":[`, n%3, df.Name)
			for ci, col := range df.Columns() {
				if ci > 0 {
					body.WriteString(",")
				}
				fmt.Fprintf(&body, `{"name":%q,"values":["a","b"]}`, col)
			}
			body.WriteString("]}]}")
			req := httptest.NewRequest(http.MethodPost, "/api/v1/ingest", &body)
			api.ServeHTTP(httptest.NewRecorder(), req)
		}
	}()

	// Query load.
	wg.Add(1)
	go func() {
		defer wg.Done()
		q := "/api/v1/sparql?query=" + url.QueryEscape("SELECT ?t WHERE { ?t a kglids:Table . }")
		for {
			select {
			case <-stop:
				return
			default:
			}
			api.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, q, nil))
		}
	}()

	deadline := time.Now().Add(2 * time.Second)
	for i := 0; time.Now().Before(deadline); i++ {
		rec := httptest.NewRecorder()
		dbg.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("scrape %d: status %d", i, rec.Code)
		}
		if err := obs.ValidateExposition(strings.NewReader(rec.Body.String())); err != nil {
			t.Fatalf("scrape %d: invalid exposition under load: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
	mgr.Drain()
}

// TestPanicObservedByLogAndMetrics pins the middleware-ordering fix: a
// panicking handler must still produce an access-log line and a request
// metric carrying the final 500, because observability wraps the panic
// isolation rather than the other way around.
func TestPanicObservedByLogAndMetrics(t *testing.T) {
	var logBuf bytes.Buffer
	cfg := chain{
		logger:    slog.New(slog.NewTextHandler(&logBuf, nil)),
		accessLog: true,
	}
	boom := http.HandlerFunc(func(http.ResponseWriter, *http.Request) { panic("boom") })
	h := withObservability(cfg, withGzip(cfg, withTimeout(cfg, time.Second, boom)))

	before := mHTTPRequests.WithLabelValues("other", "GET", "500").Value()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/boom", nil))

	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rec.Code)
	}
	if rec.Header().Get("X-Request-ID") == "" {
		t.Error("panicking request lost its X-Request-ID")
	}
	logs := logBuf.String()
	if !strings.Contains(logs, "msg=request") || !strings.Contains(logs, "status=500") {
		t.Errorf("access log did not record the final 500:\n%s", logs)
	}
	if !strings.Contains(logs, "route=other") {
		t.Errorf("access log did not carry the route label:\n%s", logs)
	}
	if after := mHTTPRequests.WithLabelValues("other", "GET", "500").Value(); after != before+1 {
		t.Errorf("request counter for status 500 = %d, want %d", after, before+1)
	}
}

// TestAccessLogFields checks the structured access line carries every
// field the observability contract promises.
func TestAccessLogFields(t *testing.T) {
	plat, _ := testPlatform(t)
	var logBuf bytes.Buffer
	h := New(plat, Options{
		Logger:    slog.New(slog.NewTextHandler(&logBuf, nil)),
		AccessLog: true,
	})
	req := httptest.NewRequest(http.MethodGet, "/api/v1/healthz", nil)
	req.Header.Set("X-Request-ID", "test-req-99")
	h.ServeHTTP(httptest.NewRecorder(), req)

	line := logBuf.String()
	for _, want := range []string{
		"msg=request", "request_id=test-req-99", "route=/api/v1/healthz",
		"method=GET", "status=200", "bytes=", "duration_ms=",
	} {
		if !strings.Contains(line, want) {
			t.Errorf("access log missing %q:\n%s", want, line)
		}
	}
}

// TestMetricCatalogMatchesRegistry: docs/OBSERVABILITY.md names exactly the
// metric families the process registers. This package links every layer
// that registers one, so obs.Default here is what a server exposes.
func TestMetricCatalogMatchesRegistry(t *testing.T) {
	var exposition bytes.Buffer
	if err := obs.Default.WritePrometheus(&exposition); err != nil {
		t.Fatal(err)
	}
	registered := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^# TYPE (kglids_\w+) `).FindAllStringSubmatch(exposition.String(), -1) {
		registered[m[1]] = true
	}
	doc, err := os.ReadFile("../../docs/OBSERVABILITY.md")
	if err != nil {
		t.Fatal(err)
	}
	documented := map[string]bool{}
	for _, name := range regexp.MustCompile(`kglids_[a-z_]+`).FindAllString(string(doc), -1) {
		documented[name] = true
	}
	for name := range registered {
		if !documented[name] {
			t.Errorf("%s is registered but docs/OBSERVABILITY.md does not name it", name)
		}
	}
	for name := range documented {
		if !registered[name] {
			t.Errorf("docs/OBSERVABILITY.md names %s, which nothing registers", name)
		}
	}
}

// routeLabel normalizes a request path to its route pattern.
func routeLabel(path string) string { return statsFor(path).label }
