package server

import (
	"bytes"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
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

// TestMiddlewareAllocs pins what the middleware allocates per request:
// five allocations on an untraced route (status writer, request ID,
// response header), three more on the traced SPARQL route (request clone,
// trace, context). Metric recording adds none: the route and status cells
// are pre-resolved counters. A compressed response adds the gzip layer's
// writer, its Vary and Content-Encoding header values, and nothing per
// compressor: the gzip.Writer comes from a pool. A deterministic count is
// the middleware's overhead budget; a wall-clock ratio of a sub-
// microsecond delta is noise.
func TestMiddlewareAllocs(t *testing.T) {
	body := bytes.Repeat([]byte("a compressible body "), gzipMinBytes/10)
	bodyLength := []string{strconv.Itoa(len(body))}
	gzipped := withObservability(chain{logger: discardLogger()}, withGzip(chain{logger: discardLogger()},
		http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header()["Content-Length"] = bodyLength
			w.Write(body)
		})))
	for _, c := range []struct {
		path   string
		h      http.Handler
		hdr    http.Header
		pooled bool
		want   float64
	}{
		{"/api/v1/healthz", benchChain(), http.Header{}, false, 5},
		{"/api/v1/sparql", benchChain(), http.Header{}, false, 8},
		{"/api/v1/tables", gzipped, http.Header{"Accept-Encoding": {"gzip"}}, true, 8},
	} {
		if c.pooled && raceEnabled {
			continue // under -race sync.Pool drops a random quarter of what it is given
		}
		w := &nopWriter{h: http.Header{}}
		req := httptest.NewRequest(http.MethodGet, c.path, nil)
		req.Header = c.hdr
		got := testing.AllocsPerRun(1000, func() {
			clear(w.h)
			c.h.ServeHTTP(w, req)
		})
		if got != c.want {
			t.Errorf("%s: %v allocs per request, want %v", c.path, got, c.want)
		}
	}
}
