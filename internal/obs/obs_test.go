package obs

import (
	"context"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestGoldenExposition pins the exposition format byte-for-byte: HELP
// and TYPE lines, label escaping, histogram bucket expansion, family
// and child ordering.
func TestGoldenExposition(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("test_requests_total", "Total requests.")
	c.Add(42)
	g := r.NewGauge("test_in_flight", "In-flight requests.")
	g.Set(-3)
	cv := r.NewCounterVec("test_hits_total", "Hits by route.", "route", "status")
	cv.WithLabelValues(`/b"ad\pa`+"\n"+`th`, "500").Add(1)
	cv.WithLabelValues("/a", "200").Add(7)
	h := r.NewHistogram("test_latency_seconds", "Latency.", []float64{0.01, 0.1, 1})
	h.Observe(0.005)
	h.Observe(0.05)
	h.Observe(0.05)
	h.Observe(5)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP test_hits_total Hits by route.
# TYPE test_hits_total counter
test_hits_total{route="/a",status="200"} 7
test_hits_total{route="/b\"ad\\pa\nth",status="500"} 1
# HELP test_in_flight In-flight requests.
# TYPE test_in_flight gauge
test_in_flight -3
# HELP test_latency_seconds Latency.
# TYPE test_latency_seconds histogram
test_latency_seconds_bucket{le="0.01"} 1
test_latency_seconds_bucket{le="0.1"} 3
test_latency_seconds_bucket{le="1"} 3
test_latency_seconds_bucket{le="+Inf"} 4
test_latency_seconds_sum 5.105
test_latency_seconds_count 4
# HELP test_requests_total Total requests.
# TYPE test_requests_total counter
test_requests_total 42
`
	if got := b.String(); got != want {
		t.Errorf("exposition mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
	if err := ValidateExposition(strings.NewReader(b.String())); err != nil {
		t.Errorf("golden exposition fails validation: %v", err)
	}
}

func TestHistogramBounds(t *testing.T) {
	h := newHistogram([]float64{1, 10})
	h.Observe(1) // on-boundary lands in le="1" (cumulative semantics: v <= bound)
	h.Observe(10.0001)
	h.Observe(100)
	cum, count, sum := h.snapshot()
	if want := []uint64{1, 1, 3}; cum[0] != want[0] || cum[1] != want[1] || cum[2] != want[2] {
		t.Errorf("cumulative buckets = %v, want %v", cum, want)
	}
	if count != 3 {
		t.Errorf("count = %d, want 3", count)
	}
	if math.Abs(sum-111.0001) > 1e-9 {
		t.Errorf("sum = %v, want 111.0001", sum)
	}
}

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(0.001, 10, 4)
	want := []float64{0.001, 0.01, 0.1, 1}
	for i := range want {
		if math.Abs(b[i]-want[i]) > 1e-12 {
			t.Fatalf("bucket %d = %v, want %v", i, b[i], want[i])
		}
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("dup_total", "")
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration did not panic")
		}
	}()
	r.NewGauge("dup_total", "")
}

func TestInvalidNamesPanic(t *testing.T) {
	r := NewRegistry()
	for _, bad := range []string{"", "9leading", "has space", "dash-ed"} {
		func() {
			defer func() { recover() }()
			r.NewCounter(bad, "")
			t.Errorf("metric name %q accepted", bad)
		}()
	}
	func() {
		defer func() { recover() }()
		r.NewCounterVec("ok_total", "", "le")
		t.Error("reserved label name le accepted")
	}()
}

func TestValidateExpositionRejects(t *testing.T) {
	cases := map[string]string{
		"no TYPE":           "foo 1\n",
		"bad value":         "# TYPE foo counter\nfoo abc\n",
		"unquoted label":    "# TYPE foo counter\nfoo{a=b} 1\n",
		"bad escape":        "# TYPE foo counter\nfoo{a=\"\\q\"} 1\n",
		"shrinking buckets": "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 5\n",
		"count mismatch":    "# TYPE h histogram\nh_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 3\n",
		"missing inf":       "# TYPE h histogram\nh_bucket{le=\"1\"} 2\nh_sum 1\nh_count 2\n",
		"empty":             "",
	}
	for name, in := range cases {
		if err := ValidateExposition(strings.NewReader(in)); err == nil {
			t.Errorf("%s: exposition accepted:\n%s", name, in)
		}
	}
}

func TestTraceNilSafety(t *testing.T) {
	var tr *Trace
	tr.StartSpan("x")()
	tr.AddSpan("y", time.Now(), time.Second)
	if tr.Spans() != nil || tr.Elapsed() != 0 {
		t.Error("nil trace is not a no-op")
	}
	if FromContext(context.Background()) != nil {
		t.Error("empty context yielded a trace")
	}
}

func TestTraceSpans(t *testing.T) {
	tr := NewTrace("req-1")
	ctx := WithTrace(context.Background(), tr)
	got := FromContext(ctx)
	if got != tr {
		t.Fatal("trace did not round-trip through context")
	}
	end := got.StartSpan("compile")
	end()
	got.AddSpan("execute", time.Now(), 3*time.Millisecond)
	spans := tr.Spans()
	if len(spans) != 2 || spans[0].Name != "compile" || spans[1].Name != "execute" {
		t.Fatalf("spans = %+v", spans)
	}
	if spans[1].Dur != 3*time.Millisecond {
		t.Errorf("AddSpan duration = %v", spans[1].Dur)
	}
}

// TestConcurrentScrape hammers every instrument type from many
// goroutines while scraping, under -race: the lock-free hot path and
// the exposition snapshotting must not tear.
func TestConcurrentScrape(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("c_total", "")
	g := r.NewGauge("g", "")
	h := r.NewHistogram("h_seconds", "", DefaultLatencyBuckets)
	cv := r.NewCounterVec("cv_total", "", "k")
	hv := r.NewHistogramVec("hv_seconds", "", []float64{0.001, 0.1}, "k")
	mux := NewDebugMux(r, false, func() { g.Set(int64(c.Value() % 7)) })

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			keys := []string{"a", "b", "c"}
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				c.Inc()
				g.Inc()
				h.Observe(float64(n%100) / 1000)
				cv.WithLabelValues(keys[n%3]).Inc()
				hv.WithLabelValues(keys[(n+i)%3]).Observe(0.01)
			}
		}(i)
	}
	for i := 0; i < 20; i++ {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
		if rec.Code != 200 {
			t.Fatalf("scrape %d: status %d", i, rec.Code)
		}
		if err := ValidateExposition(strings.NewReader(rec.Body.String())); err != nil {
			t.Fatalf("scrape %d: invalid exposition: %v\n%s", i, err, rec.Body.String())
		}
	}
	close(stop)
	wg.Wait()
}

func TestDebugMuxSurface(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("x_total", "").Inc()

	mux := NewDebugMux(r, false)
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/vars", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "memstats") {
		t.Errorf("/debug/vars: status %d", rec.Code)
	}
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/pprof/", nil))
	if rec.Code != 404 {
		t.Errorf("pprof served without the flag: status %d", rec.Code)
	}

	mux = NewDebugMux(r, true)
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/pprof/", nil))
	if rec.Code != 200 {
		t.Errorf("pprof index with flag: status %d", rec.Code)
	}
}

// NewHistogram registers and returns an unlabeled histogram with the
// given bucket upper bounds (+Inf is implicit).
func (r *Registry) NewHistogram(name, help string, buckets []float64) *Histogram {
	h := newHistogram(buckets)
	r.register(&family{name: name, help: help, kind: kindHistogram, histogram: h})
	return h
}
