package server

import (
	"compress/gzip"
	"context"
	"crypto/rand"
	"encoding/hex"
	"log/slog"
	"net/http"
	"runtime/debug"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"kglids/internal/obs"
)

// chain carries the cross-cutting configuration every middleware layer
// shares: the structured logger and whether to emit access-log lines.
type chain struct {
	logger    *slog.Logger
	accessLog bool
}

// --- request IDs + access logging -----------------------------------------

// requestCounter disambiguates requests sharing one process-lifetime prefix.
var requestCounter atomic.Uint64

// processID is a random per-process prefix so request IDs from different
// server instances do not collide in aggregated logs.
var processID = func() string {
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "00000000"
	}
	return hex.EncodeToString(b[:])
}()

// statusWriter records the status and body size a handler produced.
type statusWriter struct {
	http.ResponseWriter
	status      int
	bytes       int
	wroteHeader bool
}

func (w *statusWriter) WriteHeader(code int) {
	if w.wroteHeader {
		return
	}
	w.wroteHeader = true
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	w.wroteHeader = true
	n, err := w.ResponseWriter.Write(p)
	w.bytes += n
	return n, err
}

// withObservability is the outermost middleware: it stamps every
// response with an X-Request-ID (a client-supplied one is echoed,
// otherwise one is generated), opens a request trace carried down the
// context, counts in-flight requests, and — in one deferred block that
// also forms the last-resort panic barrier — records the per-route
// metrics and emits the structured access-log line. Because the defer
// runs after every inner layer (including the panic isolation in
// withTimeout) has settled the response, metrics and the access log
// always observe the final status code, byte count, and route label.
func withObservability(cfg chain, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-ID")
		if id == "" {
			id = requestID()
		}
		w.Header().Set("X-Request-ID", id)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		rs := statsFor(r.URL.Path)
		route := rs.label
		mHTTPInFlight.Inc()
		// A trace context costs a request clone plus two allocations, so
		// it is installed only on the routes whose handlers record spans
		// into it (the SPARQL query path, where it carries stage timings
		// and the request ID into the slow-query log). Every other route
		// is fully covered by the route/status metrics recorded below.
		if rs.traced {
			r = r.WithContext(obs.WithTrace(r.Context(), obs.NewTrace(id)))
		}
		start := time.Now()
		defer func() {
			if p := recover(); p != nil {
				// Handler panics are already isolated by withTimeout; this
				// barrier catches the middleware layers themselves so the
				// connection still gets an envelope and the log a line.
				mHTTPPanics.Inc()
				cfg.logger.Error("middleware panic",
					"request_id", id, "path", r.URL.Path, "panic", p,
					"stack", string(debug.Stack()))
				writeError(sw, http.StatusInternalServerError, "internal error")
			}
			dur := time.Since(start)
			if sw.status == http.StatusOK && r.Method == http.MethodGet {
				rs.getOK.Inc()
			} else {
				mHTTPRequests.WithLabelValues(route, r.Method, statusLabel(sw.status)).Inc()
			}
			rs.latency.Observe(dur.Seconds())
			mHTTPInFlight.Dec()
			if cfg.accessLog {
				cfg.logger.Info("request",
					"request_id", id, "route", route, "method", r.Method,
					"path", r.URL.Path, "status", sw.status, "bytes", sw.bytes,
					"duration_ms", float64(dur.Microseconds())/1e3)
			}
		}()
		next.ServeHTTP(sw, r)
	})
}

func requestID() string {
	return processID + "-" + hexUint(requestCounter.Add(1))
}

// statusLabel is strconv.Itoa for HTTP statuses without the per-request
// allocation: every status this server emits is interned.
func statusLabel(code int) string {
	switch code {
	case 200:
		return "200"
	case 202:
		return "202"
	case 204:
		return "204"
	case 304:
		return "304"
	case 400:
		return "400"
	case 404:
		return "404"
	case 405:
		return "405"
	case 409:
		return "409"
	case 412:
		return "412"
	case 500:
		return "500"
	case 503:
		return "503"
	case 504:
		return "504"
	default:
		return strconv.Itoa(code)
	}
}

func hexUint(v uint64) string {
	const digits = "0123456789abcdef"
	if v == 0 {
		return "0"
	}
	var buf [16]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = digits[v&0xf]
		v >>= 4
	}
	return string(buf[i:])
}

// --- gzip ------------------------------------------------------------------

// gzipWriter compresses the response body when the client accepts gzip.
// Compression is decided at WriteHeader time: bodiless statuses (204, 304)
// and already-encoded responses pass through untouched.
type gzipWriter struct {
	http.ResponseWriter
	gz          *gzip.Writer
	logger      *slog.Logger
	wroteHeader bool
}

func (w *gzipWriter) WriteHeader(code int) {
	if !w.wroteHeader {
		w.wroteHeader = true
		h := w.Header()
		if code != http.StatusNoContent && code != http.StatusNotModified &&
			h.Get("Content-Encoding") == "" {
			h.Set("Content-Encoding", "gzip")
			h.Del("Content-Length")
			w.gz = gzip.NewWriter(w.ResponseWriter)
		}
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *gzipWriter) Write(p []byte) (int, error) {
	if !w.wroteHeader {
		w.WriteHeader(http.StatusOK)
	}
	if w.gz != nil {
		return w.gz.Write(p)
	}
	return w.ResponseWriter.Write(p)
}

func (w *gzipWriter) close() {
	if w.gz != nil {
		if err := w.gz.Close(); err != nil {
			w.logger.Warn("gzip flush failed", "err", err)
		}
	}
}

// withGzip compresses response bodies for clients that accept gzip.
func withGzip(cfg chain, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Add("Vary", "Accept-Encoding")
		if !strings.Contains(r.Header.Get("Accept-Encoding"), "gzip") {
			next.ServeHTTP(w, r)
			return
		}
		gw := &gzipWriter{ResponseWriter: w, logger: cfg.logger}
		defer gw.close()
		next.ServeHTTP(gw, r)
	})
}

// --- deadline + panic isolation --------------------------------------------

// bufferedResponse records a handler's response so withTimeout can discard
// it if the deadline fires first (the real writer must not be touched by
// two goroutines).
type bufferedResponse struct {
	header http.Header
	status int
	body   []byte
}

func (b *bufferedResponse) Header() http.Header { return b.header }
func (b *bufferedResponse) WriteHeader(s int)   { b.status = s }
func (b *bufferedResponse) Write(p []byte) (int, error) {
	b.body = append(b.body, p...)
	return len(p), nil
}

// withTimeout runs each request in its own goroutine under a deadline.
// Responses are buffered: either the handler finishes and its response is
// flushed, or the deadline fires and the client gets a 504 envelope (the
// abandoned handler sees its context cancelled and its writes go nowhere).
// Handler panics become 500 envelopes instead of killing the connection —
// written through the outer layers' writer, so the access log and the
// route metrics see the final 500/504, not a phantom 200.
func withTimeout(cfg chain, d time.Duration, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), d)
		defer cancel()
		buf := &bufferedResponse{header: http.Header{}, status: http.StatusOK}
		done := make(chan struct{})
		panicked := make(chan any, 1)
		go func() {
			defer close(done)
			defer func() {
				if p := recover(); p != nil {
					panicked <- p
				}
			}()
			next.ServeHTTP(buf, r.WithContext(ctx))
		}()
		select {
		case <-done:
			select {
			case p := <-panicked:
				mHTTPPanics.Inc()
				cfg.logger.Error("handler panic",
					"path", r.URL.Path, "panic", p, "stack", string(debug.Stack()))
				writeError(w, http.StatusInternalServerError, "internal error")
			default:
				for k, vs := range buf.header {
					for _, v := range vs {
						w.Header().Add(k, v)
					}
				}
				w.WriteHeader(buf.status)
				if _, err := w.Write(buf.body); err != nil {
					cfg.logger.Warn("write response failed", "err", err)
				}
			}
		case <-ctx.Done():
			mHTTPTimeouts.Inc()
			writeError(w, http.StatusGatewayTimeout, "request timed out")
		}
	})
}
