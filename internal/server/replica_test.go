package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"kglids"
	"kglids/client"
	"kglids/internal/dataframe"
	"kglids/internal/ingest"
	"kglids/internal/snapshot"
)

// changelogPlatform is the tiny fixture with the changelog enabled and a
// few mutations appended.
func changelogPlatform(t testing.TB) *kglids.Platform {
	t.Helper()
	plat := tinyPlatform(t)
	plat.EnableChangelog(0)
	extra := dataframe.New("extra.csv")
	s := &dataframe.Series{Name: "k"}
	for _, v := range []string{"x", "y", "z"} {
		s.Cells = append(s.Cells, dataframe.ParseCell(v))
	}
	extra.AddColumn(s)
	if _, err := plat.AddTables([]kglids.Table{{Dataset: "health", Frame: extra}}); err != nil {
		t.Fatal(err)
	}
	return plat
}

func TestChangelogEndpoint(t *testing.T) {
	plat := changelogPlatform(t)
	h := New(plat, Options{})
	head := plat.ChangelogPosition()
	if head == 0 {
		t.Fatal("no changelog records after ingest")
	}

	// Catch-up from zero, one record per page, then the at-head page.
	var cursor uint64
	var got int
	for {
		rec := getRaw(t, h, fmt.Sprintf("/api/v1/changelog?cursor=%d&limit=1", cursor), nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("changelog cursor=%d = %d %s", cursor, rec.Code, rec.Body)
		}
		var page client.ChangelogPage
		if err := json.Unmarshal(rec.Body.Bytes(), &page); err != nil {
			t.Fatal(err)
		}
		if page.Head != head {
			t.Fatalf("page head %d, want %d", page.Head, head)
		}
		for _, e := range page.Entries {
			if e.Seq != cursor+1 {
				t.Fatalf("gap: cursor %d, next %d", cursor, e.Seq)
			}
			if e.Kind == "" || len(e.Payload) == 0 {
				t.Fatalf("record %d missing kind/payload: %+v", e.Seq, e)
			}
			cursor = e.Seq
			got++
		}
		if page.NextCursor != cursor {
			t.Fatalf("next_cursor %d, want %d", page.NextCursor, cursor)
		}
		if page.AtHead {
			break
		}
	}
	if cursor != head || got == 0 {
		t.Fatalf("caught up to %d (%d records), want head %d", cursor, got, head)
	}

	// Invalid cursors: future → 410, non-numeric → 400.
	if rec := getRaw(t, h, fmt.Sprintf("/api/v1/changelog?cursor=%d", head+1), nil); rec.Code != http.StatusGone {
		t.Errorf("future cursor = %d, want 410", rec.Code)
	}
	if rec := getRaw(t, h, "/api/v1/changelog?cursor=abc", nil); rec.Code != http.StatusBadRequest {
		t.Errorf("bad cursor = %d, want 400", rec.Code)
	}

	// No changelog enabled (plain platform) → 404.
	bare := New(tinyPlatform(t), Options{})
	if rec := getRaw(t, bare, "/api/v1/changelog?cursor=0", nil); rec.Code != http.StatusNotFound {
		t.Errorf("changelog without log = %d, want 404", rec.Code)
	}
}

func TestSnapshotEndpoint(t *testing.T) {
	plat := changelogPlatform(t)
	h := New(plat, Options{})
	rec := getRaw(t, h, "/api/v1/snapshot", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("snapshot = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/octet-stream" {
		t.Errorf("content-type %q", ct)
	}
	replica, err := kglids.Read(rec.Body)
	if err != nil {
		t.Fatalf("snapshot body does not load: %v", err)
	}
	if replica.Generation() != plat.Generation() {
		t.Errorf("loaded generation %d, want %d", replica.Generation(), plat.Generation())
	}
	if replica.ChangelogPosition() != plat.ChangelogPosition() {
		t.Errorf("loaded position %d, want %d", replica.ChangelogPosition(), plat.ChangelogPosition())
	}

	req := httptest.NewRequest(http.MethodPost, "/api/v1/snapshot", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST snapshot = %d, want 405", w.Code)
	}
}

// slowReader hands its reader's bytes on a little at a time, pausing
// before each read, as a client on a slow link does.
type slowReader struct {
	r     io.Reader
	pause time.Duration
}

func (s slowReader) Read(b []byte) (int, error) {
	time.Sleep(s.pause)
	return s.r.Read(b[:min(len(b), 512)])
}

// TestSnapshotStreamOutlastsRequestTimeout: the snapshot route is held
// neither to the request timeout nor to the server's write timeout. A save
// that starts only after both have passed (an ingest job holds the lock it
// captures under), read by a client more slowly than they allow, still
// arrives whole: the bytes of the platform's save, which decode completely.
func TestSnapshotStreamOutlastsRequestTimeout(t *testing.T) {
	plat := changelogPlatform(t)
	var want bytes.Buffer
	if err := plat.SaveTo(&want); err != nil {
		t.Fatal(err)
	}
	const timeout = 20 * time.Millisecond
	ts := httptest.NewUnstartedServer(New(plat, Options{RequestTimeout: timeout}))
	ts.Config.WriteTimeout = timeout // as kglids-server sets one
	ts.Start()
	defer ts.Close()

	plat.Core().IngestLock()
	time.AfterFunc(3*timeout, plat.Core().IngestUnlock)
	resp, err := http.Get(ts.URL + "/api/v1/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot = %d, want 200", resp.StatusCode)
	}
	start := time.Now()
	got, err := io.ReadAll(slowReader{r: resp.Body, pause: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took < 2*timeout {
		t.Fatalf("the client read the snapshot in %v, not more slowly than the %v timeout", took, timeout)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("streamed %d bytes differ from the %d-byte save", len(got), want.Len())
	}
	if _, err := kglids.Read(bytes.NewReader(got)); err != nil {
		t.Fatalf("streamed snapshot does not decode: %v", err)
	}
}

// cutWriter passes on the first n bytes written to it and then fails, as a
// connection does when the process at its far end dies.
type cutWriter struct {
	http.ResponseWriter
	n int
}

var errCut = errors.New("connection cut")

func (w *cutWriter) Write(b []byte) (int, error) {
	if len(b) > w.n {
		b = b[:w.n]
	}
	n, _ := w.ResponseWriter.Write(b)
	w.n -= n
	if w.n == 0 {
		return n, errCut
	}
	return n, nil
}

// TestFollowerSeedFromCutSnapshotStream: a primary that dies halfway
// through streaming its snapshot leaves the follower seeding from it with
// ErrTruncated and no platform.
func TestFollowerSeedFromCutSnapshotStream(t *testing.T) {
	plat := changelogPlatform(t)
	var full bytes.Buffer
	if err := plat.SaveTo(&full); err != nil {
		t.Fatal(err)
	}
	h := New(plat, Options{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Uncompressed, the bytes on the wire are the snapshot's, so the
		// cut falls mid-payload.
		r.Header.Del("Accept-Encoding")
		h.ServeHTTP(&cutWriter{ResponseWriter: w, n: full.Len() / 2}, r)
		// Drop the connection without ending the response.
		panic(http.ErrAbortHandler)
	}))
	defer ts.Close()
	c, err := client.New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	body, err := c.Snapshot(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer body.Close()
	follower, err := kglids.Read(body)
	if !errors.Is(err, snapshot.ErrTruncated) || follower != nil {
		t.Fatalf("Read of a cut stream = %v, %v; want no platform and ErrTruncated", follower, err)
	}
}

// fixedReplica stubs ReplicaStatus for health reporting tests.
type fixedReplica struct {
	gen uint64
	lag float64
}

func (f fixedReplica) ReplicaHealth() (uint64, float64) { return f.gen, f.lag }

func TestReplicaRejectsWrites(t *testing.T) {
	plat := tinyPlatform(t)
	mgr := ingest.New(plat.Core(), ingest.Options{Workers: 1, QueueSize: 4})
	defer mgr.Close()
	h := New(plat, Options{Ingest: mgr, Replica: fixedReplica{gen: 7, lag: 0.25}})

	body := `{"tables":[{"dataset":"d","name":"t.csv","columns":[{"name":"c","values":["1"]}]}]}`
	for _, tc := range []struct {
		method, path string
	}{
		{http.MethodPost, "/api/v1/ingest"},
		{http.MethodDelete, "/api/v1/tables/health%2Fpatients.csv"},
		{http.MethodDelete, "/api/v1/tables/health/patients.csv"},
	} {
		var req *http.Request
		if tc.method == http.MethodPost {
			req = httptest.NewRequest(tc.method, tc.path, strings.NewReader(body))
			req.Header.Set("Content-Type", "application/json")
		} else {
			req = httptest.NewRequest(tc.method, tc.path, nil)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusMethodNotAllowed {
			t.Errorf("%s %s on replica = %d, want 405: %s", tc.method, tc.path, rec.Code, rec.Body)
		}
	}

	// Reads still work, and job listing stays readable.
	for _, path := range []string{"/healthz", "/api/v1/stats", "/api/v1/tables", "/api/v1/jobs"} {
		if rec := getRaw(t, h, path, nil); rec.Code != http.StatusOK {
			t.Errorf("GET %s on replica = %d, want 200", path, rec.Code)
		}
	}
}

// TestHealthzReportsReplicaRole: the health body names the role, and on a
// replica the applied generation and lag. /healthz, the load-balancer
// probe, answers byte for byte what /api/v1/healthz answers.
func TestHealthzReportsReplicaRole(t *testing.T) {
	plat := tinyPlatform(t)
	for _, c := range []struct {
		name string
		opts Options
		want client.Health
	}{
		{"primary", Options{}, client.Health{Status: "ok", Role: "primary"}},
		{"replica", Options{Replica: fixedReplica{gen: 42, lag: 1.5}},
			client.Health{Status: "ok", Role: "replica", AppliedGeneration: 42, LagSeconds: 1.5}},
	} {
		h := New(plat, c.opts)
		v1 := getRaw(t, h, "/api/v1/healthz", nil)
		probe := getRaw(t, h, "/healthz", nil)
		if v1.Code != http.StatusOK || probe.Code != http.StatusOK {
			t.Fatalf("%s: healthz = %d, /healthz = %d", c.name, v1.Code, probe.Code)
		}
		if probe.Body.String() != v1.Body.String() {
			t.Errorf("%s: /healthz body %q differs from /api/v1/healthz %q", c.name, probe.Body, v1.Body)
		}
		var got client.Health
		if err := json.Unmarshal(v1.Body.Bytes(), &got); err != nil {
			t.Fatal(err)
		}
		c.want.Generation = plat.Generation()
		if got != c.want {
			t.Errorf("%s healthz = %+v, want %+v", c.name, got, c.want)
		}
	}
}
