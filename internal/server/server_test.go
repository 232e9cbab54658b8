package server

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
	"time"

	"kglids"
	"kglids/client"
	"kglids/internal/lakegen"
	"kglids/internal/pipegen"
)

// testChain is the middleware configuration tests use when exercising a
// layer directly: no access log, default logger.
func testChain() chain {
	return chain{logger: slog.Default()}
}

func testPlatform(t testing.TB) (*kglids.Platform, *lakegen.Benchmark) {
	t.Helper()
	lake := lakegen.Generate(lakegen.Spec{
		Name: "srv", Families: 3, TablesPerFamily: 3, NoiseTables: 2,
		RowsPerTable: 50, QueryTables: 3, Seed: 61,
	})
	var tables []kglids.Table
	for _, df := range lake.Tables {
		tables = append(tables, kglids.Table{Dataset: lake.Dataset[df.Name], Frame: df})
	}
	plat := kglids.Bootstrap(kglids.Options{Theta: 0.70}, tables)
	var datasets []pipegen.Dataset
	for _, df := range lake.Tables[:1] {
		datasets = append(datasets, pipegen.FrameDataset(lake.Dataset[df.Name], df, df.Columns()[0]))
	}
	corpus := pipegen.Generate(pipegen.Options{NumPipelines: 6, Datasets: datasets, Seed: 62})
	scripts := make([]kglids.Script, len(corpus))
	for i, g := range corpus {
		scripts[i] = g.Script
	}
	plat.AddPipelines(scripts)
	return plat, lake
}

func get(t *testing.T, h http.Handler, path string) (int, []byte) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("GET %s: Content-Type = %q, want application/json", path, ct)
	}
	return rec.Code, rec.Body.Bytes()
}

func decodeErr(t *testing.T, body []byte) string {
	t.Helper()
	var env struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("error body is not a JSON envelope: %v: %s", err, body)
	}
	if env.Error == "" {
		t.Fatalf("error envelope empty: %s", body)
	}
	return env.Error
}

func TestEndpoints(t *testing.T) {
	plat, lake := testPlatform(t)
	h := New(plat, Options{})

	for _, path := range []string{"/healthz", "/api/v1/healthz"} {
		if code, body := get(t, h, path); code != http.StatusOK {
			t.Fatalf("%s = %d %s", path, code, body)
		}
	}

	code, body := get(t, h, "/api/v1/stats")
	if code != http.StatusOK {
		t.Fatalf("/api/v1/stats = %d %s", code, body)
	}
	var stats client.Stats
	if err := json.Unmarshal(body, &stats); err != nil || stats.Triples == 0 {
		t.Fatalf("stats = %+v err=%v", stats, err)
	}

	q := lake.QueryTables[0]
	tableID := lake.Dataset[q] + "/" + q
	for _, path := range []string{
		"/api/v1/search?q=" + url.QueryEscape(q[:3]),
		"/api/v1/unionable?table=" + url.QueryEscape(tableID) + "&k=5",
		"/api/v1/similar?table=" + url.QueryEscape(tableID) + "&k=3",
	} {
		code, body = get(t, h, path)
		if code != http.StatusOK {
			t.Fatalf("%s = %d %s", path, code, body)
		}
		var hits client.Page[client.TableHit]
		if err := json.Unmarshal(body, &hits); err != nil || len(hits.Items) == 0 {
			t.Fatalf("%s hits = %+v err=%v", path, hits, err)
		}
	}

	rec := getRaw(t, h, "/api/v1/sparql?query="+url.QueryEscape("SELECT (COUNT(?t) AS ?n) WHERE { ?t a kglids:Table . }"), nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("/api/v1/sparql = %d %s", rec.Code, rec.Body)
	}

	code, body = get(t, h, "/api/v1/libraries?k=5")
	if code != http.StatusOK {
		t.Fatalf("/api/v1/libraries = %d %s", code, body)
	}
}

func TestErrorEnvelopes(t *testing.T) {
	plat, _ := testPlatform(t)
	h := New(plat, Options{})

	cases := []struct {
		path string
		code int
	}{
		{"/api/v1/sparql", http.StatusBadRequest},                      // missing query
		{"/api/v1/sparql?query=SELECT+garbage", http.StatusBadRequest}, // parse error
		{"/api/v1/search", http.StatusBadRequest},                      // missing q
		{"/api/v1/unionable", http.StatusBadRequest},                   // missing table
		{"/api/v1/unionable?table=no/such.csv", http.StatusNotFound},
		{"/api/v1/similar?table=no/such.csv", http.StatusNotFound},
		{"/definitely-not-an-endpoint", http.StatusNotFound},
	}
	for _, c := range cases {
		code, body := get(t, h, c.path)
		if code != c.code {
			t.Errorf("GET %s = %d (%s), want %d", c.path, code, body, c.code)
			continue
		}
		decodeErr(t, body)
	}

	// Non-GET methods are rejected with an envelope too.
	req := httptest.NewRequest(http.MethodPost, "/api/v1/stats", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST /api/v1/stats = %d", rec.Code)
	}
	decodeErr(t, rec.Body.Bytes())
}

// TestUnversionedRoutesRemoved: the pre-/api/v1 routes other than
// /healthz are gone. They answer the 404 envelope like any unknown path
// and are counted under the route label "other".
func TestUnversionedRoutesRemoved(t *testing.T) {
	plat, _ := testPlatform(t)
	h := New(plat, Options{})
	for _, c := range []struct{ method, path string }{
		{http.MethodGet, "/stats"},
		{http.MethodGet, "/sparql?query=" + url.QueryEscape("SELECT ?t WHERE { ?t a kglids:Table . }")},
		{http.MethodPost, "/ingest"},
		{http.MethodDelete, "/tables/x/y"},
	} {
		counter := mHTTPRequests.WithLabelValues("other", c.method, "404")
		before := counter.Value()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(c.method, c.path, nil))
		if rec.Code != http.StatusNotFound {
			t.Errorf("%s %s = %d %s, want 404", c.method, c.path, rec.Code, rec.Body)
			continue
		}
		decodeErr(t, rec.Body.Bytes())
		if after := counter.Value(); after != before+1 {
			t.Errorf("%s %s: route \"other\" 404 counter %d -> %d, want +1", c.method, c.path, before, after)
		}
	}
}

func TestConcurrentRequests(t *testing.T) {
	plat, lake := testPlatform(t)
	h := New(plat, Options{})
	q := lake.QueryTables[0]
	tableID := lake.Dataset[q] + "/" + q
	paths := []string{
		"/api/v1/stats",
		"/api/v1/search?q=" + url.QueryEscape(q[:3]),
		"/api/v1/unionable?table=" + url.QueryEscape(tableID),
		"/api/v1/similar?table=" + url.QueryEscape(tableID),
		"/api/v1/libraries",
	}
	done := make(chan error, 32)
	for i := 0; i < 32; i++ {
		path := paths[i%len(paths)]
		go func() {
			req := httptest.NewRequest(http.MethodGet, path, nil)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				done <- fmt.Errorf("GET %s = %d", path, rec.Code)
				return
			}
			done <- nil
		}()
	}
	for i := 0; i < 32; i++ {
		if err := <-done; err != nil {
			t.Error(err)
		}
	}
}

func TestTimeoutEnvelope(t *testing.T) {
	slow := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-time.After(5 * time.Second):
		case <-r.Context().Done():
		}
		w.WriteHeader(http.StatusOK)
	})
	h := withTimeout(testChain(), 20*time.Millisecond, slow)
	req := httptest.NewRequest(http.MethodGet, "/slow", nil)
	rec := httptest.NewRecorder()
	start := time.Now()
	h.ServeHTTP(rec, req)
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("timeout did not fire (took %v)", elapsed)
	}
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("code = %d, want 504", rec.Code)
	}
	decodeErr(t, rec.Body.Bytes())
}

func TestPanicBecomes500(t *testing.T) {
	h := withTimeout(testChain(), time.Second, http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("boom")
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/panic", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("code = %d, want 500", rec.Code)
	}
	decodeErr(t, rec.Body.Bytes())
}

// TestSPARQLTimeoutCancelsQuery: a query that cannot finish inside the
// per-request deadline yields the 504 envelope within 5 s, because the
// context threaded through plat.QueryContext aborts the evaluation
// mid-iteration instead of enumerating the whole cross-product.
func TestSPARQLTimeoutCancelsQuery(t *testing.T) {
	plat, _ := testPlatform(t)
	h := New(plat, Options{RequestTimeout: 10 * time.Millisecond})
	q := url.QueryEscape(`SELECT (COUNT(*) AS ?n) WHERE {
		?a kglids:name ?n1 . ?b kglids:name ?n2 . ?c kglids:name ?n3 .
		?d kglids:name ?n4 . ?e kglids:name ?n5 . }`)
	start := time.Now()
	code, body := get(t, h, "/api/v1/sparql?query="+q)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504; body %s", code, body)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("504 took %v, deadline not enforced", elapsed)
	}
	decodeErr(t, body)
}

// TestSPARQLServedFromCache: repeated identical /api/v1/sparql requests
// are answered from the engine's generation-keyed result cache.
func TestSPARQLServedFromCache(t *testing.T) {
	plat, _ := testPlatform(t)
	h := New(plat, Options{})
	q := url.QueryEscape(`SELECT ?t WHERE { ?t a kglids:Table . }`)
	before := plat.Core().Discovery.CacheStats()
	for i := 0; i < 3; i++ {
		if rec := getRaw(t, h, "/api/v1/sparql?query="+q, nil); rec.Code != http.StatusOK {
			t.Fatalf("status = %d: %s", rec.Code, rec.Body)
		}
	}
	after := plat.Core().Discovery.CacheStats()
	if after.Hits < before.Hits+2 {
		t.Fatalf("repeated /api/v1/sparql did not hit the cache: before %+v after %+v", before, after)
	}
}
