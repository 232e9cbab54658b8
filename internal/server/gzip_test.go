package server

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// gzipChain is New's middleware chain around an arbitrary handler.
func gzipChain(h http.Handler) http.Handler {
	cfg := testChain()
	return withObservability(cfg, withGzip(cfg, withTimeout(cfg, time.Minute, h)))
}

func gzipGet(h http.Handler, path string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodGet, path, nil)
	req.Header.Set("Accept-Encoding", "gzip")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestGzipBelowFloorIsIdentity: a body shorter than gzipMinBytes goes out
// uncompressed even to a gzip-accepting client, with its exact
// Content-Length, and still varies on Accept-Encoding so a cache does not
// serve it for a request whose answer would be compressed.
func TestGzipBelowFloorIsIdentity(t *testing.T) {
	h := New(tinyPlatform(t), Options{})
	rec := getRaw(t, h, "/api/v1/healthz", map[string]string{"Accept-Encoding": "gzip"})
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz = %d", rec.Code)
	}
	if enc := rec.Header().Get("Content-Encoding"); enc != "" {
		t.Fatalf("%d-byte body sent with Content-Encoding %q", rec.Body.Len(), enc)
	}
	if rec.Body.Len() >= gzipMinBytes {
		t.Fatalf("healthz body is %d bytes, not below the floor", rec.Body.Len())
	}
	if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(rec.Body.Len()) {
		t.Fatalf("Content-Length = %q, body is %d bytes", cl, rec.Body.Len())
	}
	if v := rec.Header().Values("Vary"); len(v) != 1 || v[0] != "Accept-Encoding" {
		t.Fatalf("Vary = %q, want [Accept-Encoding]", v)
	}
}

// TestGzipPassThrough: bodiless statuses and responses a handler already
// encoded reach the client untouched, however large.
func TestGzipPassThrough(t *testing.T) {
	big := bytes.Repeat([]byte("already encoded "), gzipMinBytes)
	h := gzipChain(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/204":
			w.WriteHeader(http.StatusNoContent)
		case "/304":
			w.Header().Set("ETag", `"x"`)
			w.WriteHeader(http.StatusNotModified)
		case "/br":
			w.Header().Set("Content-Encoding", "br")
			w.Write(big)
		}
	}))
	for _, c := range []struct {
		path   string
		status int
		enc    string
		body   []byte
	}{
		{"/204", http.StatusNoContent, "", nil},
		{"/304", http.StatusNotModified, "", nil},
		{"/br", http.StatusOK, "br", big},
	} {
		rec := gzipGet(h, c.path)
		if rec.Code != c.status {
			t.Errorf("%s: status %d, want %d", c.path, rec.Code, c.status)
		}
		if enc := rec.Header().Get("Content-Encoding"); enc != c.enc {
			t.Errorf("%s: Content-Encoding %q, want %q", c.path, enc, c.enc)
		}
		if !bytes.Equal(rec.Body.Bytes(), c.body) {
			t.Errorf("%s: body of %d bytes, want the handler's %d", c.path, rec.Body.Len(), len(c.body))
		}
		if c.body == nil && rec.Header().Get("Content-Length") != "" {
			t.Errorf("%s: bodiless status carries Content-Length %q", c.path, rec.Header().Get("Content-Length"))
		}
	}
}

// TestGzipPooledWritersNotShared: many concurrent gzip-accepting requests,
// each for a large body of its own, must each decompress to exactly that
// body. A pooled writer handed to two responses at once, or returned to
// the pool while still in use, interleaves or truncates their streams (and
// under -race reports the data race).
func TestGzipPooledWritersNotShared(t *testing.T) {
	bodyOf := func(id int) []byte {
		rng := rand.New(rand.NewSource(int64(id)))
		var b bytes.Buffer
		for b.Len() < 4*gzipMinBytes+id*97 {
			fmt.Fprintf(&b, "request %d word %d;", id, rng.Intn(1000))
		}
		return b.Bytes()
	}
	h := gzipChain(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.Atoi(strings.TrimPrefix(r.URL.Path, "/"))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.Write(bodyOf(id))
	}))
	const clients, perClient = 16, 25
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				id := c*perClient + i
				rec := gzipGet(h, "/"+strconv.Itoa(id))
				if enc := rec.Header().Get("Content-Encoding"); rec.Code != http.StatusOK || enc != "gzip" {
					t.Errorf("request %d: status %d, Content-Encoding %q", id, rec.Code, enc)
					return
				}
				zr, err := gzip.NewReader(rec.Body)
				if err != nil {
					t.Errorf("request %d: %v", id, err)
					return
				}
				got, err := io.ReadAll(zr)
				if err != nil {
					t.Errorf("request %d: gunzip: %v", id, err)
					return
				}
				if !bytes.Equal(got, bodyOf(id)) {
					t.Errorf("request %d: body decompresses to %d bytes that are not its own", id, len(got))
					return
				}
			}
		}(c)
	}
	wg.Wait()
}
