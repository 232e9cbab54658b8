package server

import (
	"compress/gzip"
	"context"
	"crypto/rand"
	"encoding/hex"
	"io"
	"log/slog"
	"net/http"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
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

// Unwrap lets http.ResponseController reach the connection's writer.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

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

// gzipMinBytes is the body size below which a response is sent
// uncompressed. A body that fits one TCP segment (an Ethernet MSS is 1460
// bytes) cannot save a packet by shrinking; above one segment, compression
// saves transfer time on a real network. Over loopback, where a saved
// byte saves no time, the floor only trades CPU: serve_hot read_p95_ms
// had medians of 0.195 ms with no floor, 0.185 ms at 512 bytes, 0.161 ms
// at 1400 and 0.139 ms at 4096 (2 vCPUs, --seconds 8, seeds 940–942).
const gzipMinBytes = 1400

// gzipLevel is the one compression level of every response. The largest
// body the server sends is a changelog page, megabytes of base64 for a
// replica catching up, and the level sets how long catch-up waits for it:
// serve_hot replica_catchup_s was 0.246, 0.249 and 0.183 s at BestSpeed
// against 0.303, 0.269 and 0.251 s at the default level, with read_p95_ms
// no different (2 vCPUs, --seconds 8, seeds 940–942).
const gzipLevel = gzip.BestSpeed

// gzipWriters recycles compressors across responses: a gzip.Writer holds
// several hundred KiB of tables, which built per response would be the
// largest allocation of a read.
var gzipWriters = sync.Pool{New: func() any {
	gz, err := gzip.NewWriterLevel(io.Discard, gzipLevel)
	if err != nil {
		panic(err) // gzipLevel is a valid constant
	}
	return gz
}}

// gzipWriter compresses the response body when the client accepts gzip.
// Compression is decided at WriteHeader time: bodiless statuses (204, 304),
// already-encoded responses and bodies whose Content-Length is below
// gzipMinBytes pass through untouched.
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
			h.Get("Content-Encoding") == "" && !belowGzipFloor(h) {
			h.Set("Content-Encoding", "gzip")
			h.Del("Content-Length")
			w.gz = gzipWriters.Get().(*gzip.Writer)
			w.gz.Reset(w.ResponseWriter)
		}
	}
	w.ResponseWriter.WriteHeader(code)
}

// belowGzipFloor reports whether a response declares a body shorter than
// gzipMinBytes. A body of unknown length is compressed.
func belowGzipFloor(h http.Header) bool {
	n, err := strconv.Atoi(h.Get("Content-Length"))
	return err == nil && n < gzipMinBytes
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

// Unwrap lets http.ResponseController reach the connection's writer.
func (w *gzipWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// close flushes the compressed stream and returns its writer to the pool;
// the writer is reset before its next use, so no state crosses responses.
func (w *gzipWriter) close() {
	if w.gz == nil {
		return
	}
	if err := w.gz.Close(); err != nil {
		w.logger.Warn("gzip flush failed", "err", err)
	}
	gzipWriters.Put(w.gz)
	w.gz = nil
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

func newBufferedResponse() *bufferedResponse {
	return &bufferedResponse{header: http.Header{}, status: http.StatusOK}
}

func (b *bufferedResponse) Header() http.Header { return b.header }
func (b *bufferedResponse) WriteHeader(s int)   { b.status = s }
func (b *bufferedResponse) Write(p []byte) (int, error) {
	b.body = append(b.body, p...)
	return len(p), nil
}

// writeOwned writes a body the caller hands over and never touches again.
// Under withTimeout the buffer adopts the slice instead of copying it,
// which for a large body (a changelog page runs to megabytes) saves one
// copy of it.
func writeOwned(w http.ResponseWriter, body []byte) error {
	if b, ok := w.(*bufferedResponse); ok && b.body == nil {
		b.body = body
		return nil
	}
	_, err := w.Write(body)
	return err
}

// flush sends a buffered response through w. The whole body is known, so
// it goes out with its Content-Length: withGzip reads it to leave small
// bodies uncompressed, and an identity response needs no chunking.
func (b *bufferedResponse) flush(w http.ResponseWriter) error {
	h := w.Header()
	for k, vs := range b.header {
		for _, v := range vs {
			h.Add(k, v)
		}
	}
	if b.status != http.StatusNoContent && b.status != http.StatusNotModified {
		h.Set("Content-Length", strconv.Itoa(len(b.body)))
	}
	w.WriteHeader(b.status)
	_, err := w.Write(b.body)
	return err
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
		buf := newBufferedResponse()
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
		out := buf
		select {
		case <-done:
			select {
			case p := <-panicked:
				mHTTPPanics.Inc()
				cfg.logger.Error("handler panic",
					"path", r.URL.Path, "panic", p, "stack", string(debug.Stack()))
				out = newBufferedResponse()
				writeError(out, http.StatusInternalServerError, "internal error")
			default:
			}
		case <-ctx.Done():
			mHTTPTimeouts.Inc()
			// The abandoned handler may still be writing to buf.
			out = newBufferedResponse()
			writeError(out, http.StatusGatewayTimeout, "request timed out")
		}
		if err := out.flush(w); err != nil {
			cfg.logger.Warn("write response failed", "err", err)
		}
	})
}
