package server

import (
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"testing"
)

func discardLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// benchHandler is a minimal inner handler so the middleware delta, not
// the route work, dominates the numbers.
var benchHandler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
	w.WriteHeader(http.StatusOK)
})

func benchChain() http.Handler {
	return withObservability(chain{logger: discardLogger()}, benchHandler)
}

func BenchmarkMiddlewareMetricsOn(b *testing.B) {
	h := benchChain()
	req := httptest.NewRequest(http.MethodGet, "/api/v1/healthz", nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.ServeHTTP(httptest.NewRecorder(), req)
	}
}

// nopWriter is a reusable ResponseWriter that discards the response, so
// an allocation count covers the middleware alone.
type nopWriter struct{ h http.Header }

func (w *nopWriter) Header() http.Header         { return w.h }
func (w *nopWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *nopWriter) WriteHeader(int)             {}

// TestMiddlewareAllocs pins what the observability middleware allocates
// per request: five allocations on an untraced route (status writer,
// request ID, response header), three more on the traced SPARQL route
// (request clone, trace, context). Metric recording adds none: the route
// and status cells are pre-resolved counters. A deterministic count is
// the middleware's overhead budget; a wall-clock ratio of a sub-
// microsecond delta is noise.
func TestMiddlewareAllocs(t *testing.T) {
	h := benchChain()
	for _, c := range []struct {
		path string
		want float64
	}{
		{"/api/v1/healthz", 5},
		{"/api/v1/sparql", 8},
	} {
		w := &nopWriter{h: http.Header{}}
		req := httptest.NewRequest(http.MethodGet, c.path, nil)
		if got := testing.AllocsPerRun(1000, func() { h.ServeHTTP(w, req) }); got != c.want {
			t.Errorf("%s: %v allocs per request, want %v", c.path, got, c.want)
		}
	}
}
