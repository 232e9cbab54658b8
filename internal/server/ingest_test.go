package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"kglids"
	"kglids/client"
	"kglids/internal/ingest"
)

// ingestHandler builds a platform with an ingest manager attached.
func ingestHandler(t *testing.T) (http.Handler, *kglids.Platform, *ingest.Manager) {
	t.Helper()
	plat, _ := testPlatform(t)
	m := ingest.New(plat.Core(), ingest.Options{Workers: 2})
	t.Cleanup(m.Close)
	return New(plat, Options{Ingest: m}), plat, m
}

// tableBody renders a POST /api/v1/ingest body with one small table.
func tableBody(dataset, name string, rows int) string {
	vals := make([]string, rows)
	ages := make([]string, rows)
	for i := range vals {
		vals[i] = fmt.Sprintf("%q", fmt.Sprintf("name-%d", i))
		ages[i] = fmt.Sprint(20 + i)
	}
	return fmt.Sprintf(`{"tables":[{"dataset":%q,"name":%q,"columns":[
		{"name":"patient_name","values":[%s]},
		{"name":"age","values":[%s]}]}]}`,
		dataset, name, strings.Join(vals, ","), strings.Join(ages, ","))
}

func do(t *testing.T, h http.Handler, method, path, body string) (int, []byte) {
	t.Helper()
	var r *httptest.ResponseRecorder
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	r = httptest.NewRecorder()
	h.ServeHTTP(r, req)
	return r.Code, r.Body.Bytes()
}

// waitJob polls GET /api/v1/jobs/{id} until the job reaches a terminal
// state.
func waitJob(t *testing.T, h http.Handler, id int) client.Job {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		code, body := do(t, h, http.MethodGet, fmt.Sprintf("/api/v1/jobs/%d", id), "")
		if code != http.StatusOK {
			t.Fatalf("GET /api/v1/jobs/%d = %d %s", id, code, body)
		}
		var j client.Job
		if err := json.Unmarshal(body, &j); err != nil {
			t.Fatalf("job decode: %v: %s", err, body)
		}
		if j.State == client.JobDone || j.State == client.JobFailed {
			return j
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("job did not finish in time")
	return client.Job{}
}

func TestIngestLifecycleOverHTTP(t *testing.T) {
	h, plat, _ := ingestHandler(t)
	before := plat.Stats().Tables

	// Submit a new table and follow the job to completion.
	code, body := do(t, h, http.MethodPost, "/api/v1/ingest", tableBody("clinic", "patients.csv", 30))
	if code != http.StatusAccepted {
		t.Fatalf("POST /api/v1/ingest = %d %s", code, body)
	}
	var accepted client.JobRef
	if err := json.Unmarshal(body, &accepted); err != nil || accepted.Job == 0 || accepted.State != client.JobQueued {
		t.Fatalf("accept body: %v %s", err, body)
	}
	job := waitJob(t, h, accepted.Job)
	if job.State != client.JobDone || len(job.Added) != 1 {
		t.Fatalf("job = %+v", job)
	}

	// The table serves immediately: the stats count it, similar resolves
	// it, keyword search finds it.
	if got := plat.Stats().Tables; got != before+1 {
		t.Fatalf("tables = %d, want %d", got, before+1)
	}
	code, body = do(t, h, http.MethodGet, "/api/v1/stats", "")
	var stats client.Stats
	if err := json.Unmarshal(body, &stats); err != nil || code != http.StatusOK || stats.Tables != before+1 {
		t.Fatalf("/api/v1/stats after ingest = %d %s", code, body)
	}
	code, body = do(t, h, http.MethodGet, "/api/v1/similar?table="+url.QueryEscape("clinic/patients.csv"), "")
	if code != http.StatusOK {
		t.Fatalf("/api/v1/similar after ingest = %d %s", code, body)
	}
	code, body = do(t, h, http.MethodGet, "/api/v1/search?q=patients", "")
	if code != http.StatusOK || !strings.Contains(string(body), `"clinic/patients.csv"`) {
		t.Fatalf("/api/v1/search after ingest = %d %s", code, body)
	}

	// Unchanged resubmission is skipped via the content fingerprint.
	code, body = do(t, h, http.MethodPost, "/api/v1/ingest", tableBody("clinic", "patients.csv", 30))
	if code != http.StatusAccepted {
		t.Fatalf("resubmit = %d %s", code, body)
	}
	json.Unmarshal(body, &accepted)
	if job = waitJob(t, h, accepted.Job); len(job.Skipped) != 1 {
		t.Fatalf("resubmission not skipped: %+v", job)
	}

	// GET /api/v1/jobs lists both jobs.
	code, body = do(t, h, http.MethodGet, "/api/v1/jobs", "")
	if code != http.StatusOK {
		t.Fatalf("GET /api/v1/jobs = %d", code)
	}
	var list client.Page[client.Job]
	if err := json.Unmarshal(body, &list); err != nil || list.Total != 2 || len(list.Items) != 2 {
		t.Fatalf("jobs list: %v %s", err, body)
	}

	// DELETE the table and confirm discovery stops seeing it.
	code, body = do(t, h, http.MethodDelete, "/api/v1/tables/clinic/patients.csv", "")
	if code != http.StatusAccepted {
		t.Fatalf("DELETE /api/v1/tables = %d %s", code, body)
	}
	json.Unmarshal(body, &accepted)
	if job = waitJob(t, h, accepted.Job); job.State != client.JobDone || job.Kind != "remove" {
		t.Fatalf("remove job = %+v", job)
	}
	code, body = do(t, h, http.MethodGet, "/api/v1/similar?table="+url.QueryEscape("clinic/patients.csv"), "")
	if code != http.StatusNotFound {
		t.Fatalf("/api/v1/similar after delete = %d %s", code, body)
	}
	if got := plat.Stats().Tables; got != before {
		t.Fatalf("tables = %d after delete, want %d", got, before)
	}
}

func TestIngestValidationAndDisabled(t *testing.T) {
	// Disabled: mutation endpoints answer 503 with an envelope.
	plat, _ := testPlatform(t)
	readonly := New(plat, Options{})
	for _, c := range []struct{ method, path string }{
		{http.MethodPost, "/api/v1/ingest"},
		{http.MethodGet, "/api/v1/jobs"},
		{http.MethodGet, "/api/v1/jobs/1"},
		{http.MethodDelete, "/api/v1/tables/a/b.csv"},
	} {
		code, body := do(t, readonly, c.method, c.path, "{}")
		if code != http.StatusServiceUnavailable {
			t.Errorf("%s %s (disabled) = %d %s", c.method, c.path, code, body)
			continue
		}
		decodeErr(t, body)
	}

	h, _, _ := ingestHandler(t)
	cases := []struct {
		method, path, body string
		want               int
	}{
		{http.MethodPost, "/api/v1/ingest", "not json", http.StatusBadRequest},
		{http.MethodPost, "/api/v1/ingest", `{"tables":[]}`, http.StatusBadRequest},
		{http.MethodPost, "/api/v1/ingest", `{"tables":[{"name":"x.csv"}]}`, http.StatusBadRequest},
		{http.MethodPost, "/api/v1/ingest", `{"tables":[{"dataset":"d","name":"x.csv","columns":[]}]}`, http.StatusBadRequest},
		{http.MethodPost, "/api/v1/ingest", `{"tables":[{"dataset":"d","name":"x.csv","columns":[
			{"name":"a","values":[1,2]},{"name":"a","values":[3,4]}]}]}`, http.StatusBadRequest},
		{http.MethodPost, "/api/v1/ingest", `{"tables":[{"dataset":"d","name":"x.csv","columns":[
			{"name":"a","values":[1,2]},{"name":"b","values":[3]}]}]}`, http.StatusBadRequest},
		// A '/' in either name would make the table's column IDs ambiguous.
		{http.MethodPost, "/api/v1/ingest", tableBody("demo", "t/x", 3), http.StatusBadRequest},
		{http.MethodPost, "/api/v1/ingest", tableBody("demo/t", "x", 3), http.StatusBadRequest},
		{http.MethodGet, "/api/v1/jobs/notanumber", "", http.StatusBadRequest},
		{http.MethodGet, "/api/v1/jobs/99999", "", http.StatusNotFound},
		{http.MethodDelete, "/api/v1/tables/no/such.csv", "", http.StatusNotFound},
		{http.MethodGet, "/api/v1/ingest", "", http.StatusMethodNotAllowed},
		{http.MethodPost, "/api/v1/jobs", "", http.StatusMethodNotAllowed},
	}
	for _, c := range cases {
		code, body := do(t, h, c.method, c.path, c.body)
		if code != c.want {
			t.Errorf("%s %s = %d (%s), want %d", c.method, c.path, code, body, c.want)
			continue
		}
		decodeErr(t, body)
	}
}

// TestIngestCellDecoding checks the JSON value → cell mapping end to end:
// numbers, strings, booleans, and nulls all land in the profile stats.
func TestIngestCellDecoding(t *testing.T) {
	h, plat, _ := ingestHandler(t)
	body := `{"tables":[{"dataset":"typed","name":"mix.csv","columns":[
		{"name":"n","values":[1, 2.5, null]},
		{"name":"s","values":["a", "b", null]},
		{"name":"b","values":[true, false, true]}]}]}`
	code, resp := do(t, h, http.MethodPost, "/api/v1/ingest", body)
	if code != http.StatusAccepted {
		t.Fatalf("POST = %d %s", code, resp)
	}
	var accepted struct {
		Job int `json:"job"`
	}
	json.Unmarshal(resp, &accepted)
	if job := waitJob(t, h, accepted.Job); job.State != client.JobDone {
		t.Fatalf("job = %+v", job)
	}
	found := false
	for _, cp := range plat.Core().ProfilesView() {
		if cp.TableID() == "typed/mix.csv" && cp.Column == "n" {
			found = true
			if cp.Stats.Total != 3 || cp.Stats.Missing != 1 {
				t.Errorf("numeric column stats = %+v", cp.Stats)
			}
		}
	}
	if !found {
		t.Error("ingested column not profiled")
	}
}

// TestConcurrentIngestAndQueriesOverHTTP is the HTTP-level companion of
// the manager's race test: discovery requests (similar + SPARQL) hammer
// the handler while mutation jobs add and remove tables underneath.
func TestConcurrentIngestAndQueriesOverHTTP(t *testing.T) {
	h, plat, m := ingestHandler(t)
	existing := plat.TableIDs()[0]

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			paths := []string{
				"/api/v1/similar?table=" + url.QueryEscape(existing),
				"/api/v1/sparql?query=" + url.QueryEscape(`SELECT ?t WHERE { ?t a kglids:Table . }`),
				"/api/v1/stats",
			}
			for {
				select {
				case <-stop:
					return
				default:
				}
				code, body := do(t, h, http.MethodGet, paths[r%len(paths)], "")
				if code != http.StatusOK {
					t.Errorf("GET %s = %d %s", paths[r%len(paths)], code, body)
					return
				}
			}
		}(r)
	}

	for cycle := 0; cycle < 3; cycle++ {
		name := fmt.Sprintf("t%d.csv", cycle)
		code, body := do(t, h, http.MethodPost, "/api/v1/ingest", tableBody("live", name, 20))
		if code != http.StatusAccepted {
			t.Fatalf("POST cycle %d = %d %s", cycle, code, body)
		}
		var accepted struct {
			Job int `json:"job"`
		}
		json.Unmarshal(body, &accepted)
		if j := waitJob(t, h, accepted.Job); j.State != client.JobDone {
			t.Fatalf("cycle %d add: %+v", cycle, j)
		}
		code, body = do(t, h, http.MethodDelete, "/api/v1/tables/live/"+name, "")
		if code != http.StatusAccepted {
			t.Fatalf("DELETE cycle %d = %d %s", cycle, code, body)
		}
		json.Unmarshal(body, &accepted)
		if j := waitJob(t, h, accepted.Job); j.State != client.JobDone {
			t.Fatalf("cycle %d delete: %+v", cycle, j)
		}
	}
	close(stop)
	wg.Wait()
	m.Drain()
}

// blanks streams JSON whitespace without holding it: the padding of the
// body-cap tests, whose bodies are too large to build as strings.
type blanks int64

var blankChunk = bytes.Repeat([]byte{' '}, 32<<10)

func (n *blanks) Read(p []byte) (int, error) {
	if *n <= 0 {
		return 0, io.EOF
	}
	if int64(len(p)) > int64(*n) {
		p = p[:*n]
	}
	k := copy(p, blankChunk)
	*n -= blanks(k)
	return k, nil
}

// paddedBody streams prefix, then blanks up to size bytes in all.
func paddedBody(prefix string, size int64) io.Reader {
	pad := blanks(size - int64(len(prefix)))
	return io.MultiReader(strings.NewReader(prefix), &pad)
}

// TestIngestBodyTooLarge: an ingest body over MaxIngestBody is refused
// with 413 naming the cap, even when its JSON ends below the cap; a body
// of exactly the cap is accepted.
func TestIngestBodyTooLarge(t *testing.T) {
	h, _, m := ingestHandler(t)
	body := tableBody("big", "t.csv", 3)

	req := httptest.NewRequest(http.MethodPost, "/api/v1/ingest", paddedBody(body, MaxIngestBody+1))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("POST of %d bytes = %d %s, want 413", MaxIngestBody+1, rec.Code, rec.Body)
	}
	if msg := decodeErr(t, rec.Body.Bytes()); !strings.Contains(msg, strconv.Itoa(MaxIngestBody)) {
		t.Errorf("413 message %q does not name the %d-byte cap", msg, MaxIngestBody)
	}

	req = httptest.NewRequest(http.MethodPost, "/api/v1/ingest", paddedBody(body, MaxIngestBody))
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("POST of exactly %d bytes = %d %s, want 202", MaxIngestBody, rec.Code, rec.Body)
	}
	m.Drain()
}
