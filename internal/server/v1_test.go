package server

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"
	"time"

	"kglids"
	"kglids/client"
	"kglids/internal/dataframe"
	"kglids/internal/ingest"
)

// tinyPlatform bootstraps a handcrafted three-table lake whose IDs and
// counts are fully deterministic — the fixture for the golden-JSON
// contract tests.
func tinyPlatform(t testing.TB) *kglids.Platform {
	t.Helper()
	mk := func(name string, cols map[string][]string, order []string) *dataframe.DataFrame {
		df := dataframe.New(name)
		for _, cn := range order {
			s := &dataframe.Series{Name: cn}
			for _, v := range cols[cn] {
				s.Cells = append(s.Cells, dataframe.ParseCell(v))
			}
			df.AddColumn(s)
		}
		return df
	}
	patients := mk("patients.csv", map[string][]string{
		"name": {"Ann", "Bob", "Cid", "Dee"},
		"age":  {"34", "61", "49", "27"},
	}, []string{"name", "age"})
	patients24 := mk("patients_2024.csv", map[string][]string{
		"name": {"Eve", "Fay", "Gus", "Hal"},
		"age":  {"52", "38", "45", "60"},
	}, []string{"name", "age"})
	cities := mk("cities.csv", map[string][]string{
		"city": {"Montreal", "Toronto", "Boston", "Chicago"},
		"pop":  {"1704694", "2731571", "675647", "2746388"},
	}, []string{"city", "pop"})
	return kglids.Bootstrap(kglids.Options{}, []kglids.Table{
		{Dataset: "health", Frame: patients},
		{Dataset: "health", Frame: patients24},
		{Dataset: "world", Frame: cities},
	})
}

// getRaw issues a GET with optional headers and returns the recorder.
func getRaw(t *testing.T, h http.Handler, path string, hdr map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestV1GoldenJSON pins the exact bytes of stable v1 responses: the DTO
// contract is the product, so any drift must be a conscious decision.
func TestV1GoldenJSON(t *testing.T) {
	plat := tinyPlatform(t)
	h := New(plat, Options{})

	rec := getRaw(t, h, "/api/v1/healthz", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz = %d %s", rec.Code, rec.Body)
	}
	wantHealth := fmt.Sprintf("{\"status\":\"ok\",\"generation\":%d,\"role\":\"primary\"}\n", plat.Generation())
	if got := rec.Body.String(); got != wantHealth {
		t.Errorf("healthz body:\n got %q\nwant %q", got, wantHealth)
	}

	rec = getRaw(t, h, "/api/v1/tables", nil)
	wantTables := `{"items":[` +
		`{"id":"health/patients.csv","dataset":"health","name":"patients.csv"},` +
		`{"id":"health/patients_2024.csv","dataset":"health","name":"patients_2024.csv"},` +
		`{"id":"world/cities.csv","dataset":"world","name":"cities.csv"}],"total":3}` + "\n"
	if got := rec.Body.String(); got != wantTables {
		t.Errorf("tables body:\n got %q\nwant %q", got, wantTables)
	}

	// Page one of two: exact next_cursor bytes included.
	rec = getRaw(t, h, "/api/v1/tables?limit=2", nil)
	wantPage := `{"items":[` +
		`{"id":"health/patients.csv","dataset":"health","name":"patients.csv"},` +
		`{"id":"health/patients_2024.csv","dataset":"health","name":"patients_2024.csv"}],` +
		`"total":3,"next_cursor":"` + encodeCursor(2) + `"}` + "\n"
	if got := rec.Body.String(); got != wantPage {
		t.Errorf("tables page 1:\n got %q\nwant %q", got, wantPage)
	}

	// Stats: snake_case keys, generation included, values match the
	// platform.
	rec = getRaw(t, h, "/api/v1/stats", nil)
	var st client.Stats
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatalf("stats decode: %v", err)
	}
	if ps := plat.Stats(); st.Triples != ps.Triples || st.Tables != ps.Tables ||
		st.SimilarityEdges != ps.SimilarityEdges || st.Generation != plat.Generation() {
		t.Errorf("stats DTO %+v does not match platform %+v gen %d", st, ps, plat.Generation())
	}
	for _, key := range []string{`"triples"`, `"named_graphs"`, `"similarity_edges"`, `"generation"`} {
		if !strings.Contains(rec.Body.String(), key) {
			t.Errorf("stats body missing %s: %s", key, rec.Body)
		}
	}
}

// TestV1NoTermLeakage: no v1 response may contain the marshaled internals
// of rdf.Term.
func TestV1NoTermLeakage(t *testing.T) {
	plat := tinyPlatform(t)
	h := New(plat, Options{})
	paths := []string{
		"/api/v1/search?q=patients",
		"/api/v1/unionable?table=" + url.QueryEscape("health/patients.csv"),
		"/api/v1/similar?table=" + url.QueryEscape("health/patients.csv"),
		"/api/v1/tables",
	}
	for _, p := range paths {
		rec := getRaw(t, h, p, nil)
		if rec.Code != http.StatusOK {
			t.Errorf("GET %s = %d %s", p, rec.Code, rec.Body)
			continue
		}
		for _, leak := range []string{`"Kind"`, `"Quoted"`, `"Datatype"`, rdfResourceNS} {
			if strings.Contains(rec.Body.String(), leak) {
				t.Errorf("GET %s leaks %s: %s", p, leak, rec.Body)
			}
		}
	}
	// SPARQL results legitimately carry IRIs (that's the protocol), but
	// never marshaled rdf.Term structs.
	rec := getRaw(t, h, "/api/v1/sparql?query="+
		url.QueryEscape("SELECT ?t WHERE { ?t a kglids:Table . }"), nil)
	for _, leak := range []string{`"Kind"`, `"Quoted"`} {
		if strings.Contains(rec.Body.String(), leak) {
			t.Errorf("sparql response leaks %s: %s", leak, rec.Body)
		}
	}

	// The hits themselves carry stable dataset/table IDs.
	rec = getRaw(t, h, "/api/v1/search?q=patients", nil)
	var page client.Page[client.TableHit]
	if err := json.Unmarshal(rec.Body.Bytes(), &page); err != nil {
		t.Fatalf("search decode: %v", err)
	}
	if len(page.Items) != 2 {
		t.Fatalf("search for 'patients' = %+v, want the two patient tables", page.Items)
	}
	for _, hit := range page.Items {
		if !strings.Contains(hit.ID, "/") || hit.Name == "" || hit.Score <= 0 {
			t.Errorf("malformed hit DTO %+v", hit)
		}
		if strings.Contains(hit.ID, "http://") {
			t.Errorf("hit ID %q is an IRI, want dataset/table", hit.ID)
		}
	}
}

const rdfResourceNS = "http://kglids.org/resource/"

// TestV1PaginationWalk: concatenating cursor pages must equal the
// unpaginated result, for every list endpoint.
func TestV1PaginationWalk(t *testing.T) {
	plat, lake := testPlatform(t)
	h := New(plat, Options{})
	q := lake.QueryTables[0]
	tableID := lake.Dataset[q] + "/" + q

	endpoints := []string{
		"/api/v1/tables",
		"/api/v1/search?q=" + url.QueryEscape(q[:3]),
		"/api/v1/unionable?table=" + url.QueryEscape(tableID) + "&k=8",
		"/api/v1/similar?table=" + url.QueryEscape(tableID) + "&k=8",
		"/api/v1/libraries?k=20",
	}
	for _, ep := range endpoints {
		sep := "&"
		if !strings.Contains(ep, "?") {
			sep = "?"
		}
		rec := getRaw(t, h, ep, nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s = %d %s", ep, rec.Code, rec.Body)
		}
		var full struct {
			Items []json.RawMessage `json:"items"`
			Total int               `json:"total"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &full); err != nil {
			t.Fatalf("GET %s decode: %v", ep, err)
		}
		if full.Total != len(full.Items) {
			t.Errorf("GET %s: total %d != %d items", ep, full.Total, len(full.Items))
		}

		var walked []json.RawMessage
		cursor := ""
		for pages := 0; ; pages++ {
			if pages > len(full.Items)+2 {
				t.Fatalf("GET %s: cursor walk does not terminate", ep)
			}
			u := ep + sep + "limit=2"
			if cursor != "" {
				u += "&cursor=" + url.QueryEscape(cursor)
			}
			rec := getRaw(t, h, u, nil)
			if rec.Code != http.StatusOK {
				t.Fatalf("GET %s = %d %s", u, rec.Code, rec.Body)
			}
			var page struct {
				Items      []json.RawMessage `json:"items"`
				Total      int               `json:"total"`
				NextCursor string            `json:"next_cursor"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &page); err != nil {
				t.Fatalf("GET %s decode: %v", u, err)
			}
			if len(page.Items) > 2 {
				t.Errorf("GET %s: page of %d items exceeds limit 2", u, len(page.Items))
			}
			walked = append(walked, page.Items...)
			if page.NextCursor == "" {
				break
			}
			cursor = page.NextCursor
		}
		if len(walked) != len(full.Items) {
			t.Fatalf("GET %s: walk yielded %d items, unpaginated %d", ep, len(walked), len(full.Items))
		}
		for i := range walked {
			if string(walked[i]) != string(full.Items[i]) {
				t.Errorf("GET %s item %d: walk %s != unpaginated %s", ep, i, walked[i], full.Items[i])
			}
		}
	}
}

// TestV1ConditionalGET: reads carry the generation ETag; If-None-Match is
// answered 304 until an ingestion mutation bumps the generation.
func TestV1ConditionalGET(t *testing.T) {
	plat := tinyPlatform(t)
	h := New(plat, Options{})

	rec := getRaw(t, h, "/api/v1/stats", nil)
	etag := rec.Header().Get("ETag")
	if etag == "" {
		t.Fatal("stats response has no ETag")
	}
	if want := generationETag(plat.Generation()); etag != want {
		t.Fatalf("ETag = %s, want %s", etag, want)
	}

	// Revalidation hits 304 with an empty body, repeatedly.
	for i := 0; i < 2; i++ {
		rec = getRaw(t, h, "/api/v1/stats", map[string]string{"If-None-Match": etag})
		if rec.Code != http.StatusNotModified {
			t.Fatalf("revalidation %d = %d %s, want 304", i, rec.Code, rec.Body)
		}
		if rec.Body.Len() != 0 {
			t.Fatalf("304 carried a body: %s", rec.Body)
		}
	}
	// Wildcard and weak validators match too.
	rec = getRaw(t, h, "/api/v1/stats", map[string]string{"If-None-Match": "*"})
	if rec.Code != http.StatusNotModified {
		t.Fatalf("If-None-Match: * = %d, want 304", rec.Code)
	}
	rec = getRaw(t, h, "/api/v1/stats", map[string]string{"If-None-Match": "W/" + etag})
	if rec.Code != http.StatusNotModified {
		t.Fatalf("weak validator = %d, want 304", rec.Code)
	}

	// A mutation bumps the generation: the held validator goes stale and
	// the next conditional GET gets a fresh 200 with a new ETag.
	if _, err := plat.AddTables([]kglids.Table{tinyExtraTable()}); err != nil {
		t.Fatalf("AddTables: %v", err)
	}
	rec = getRaw(t, h, "/api/v1/stats", map[string]string{"If-None-Match": etag})
	if rec.Code != http.StatusOK {
		t.Fatalf("post-mutation revalidation = %d, want 200", rec.Code)
	}
	if newTag := rec.Header().Get("ETag"); newTag == etag || newTag == "" {
		t.Fatalf("post-mutation ETag %s did not change from %s", newTag, etag)
	}
	// The whole read surface shares the validator: search revalidates
	// against the same generation.
	rec = getRaw(t, h, "/api/v1/search?q=patients", nil)
	searchTag := rec.Header().Get("ETag")
	rec = getRaw(t, h, "/api/v1/search?q=patients", map[string]string{"If-None-Match": searchTag})
	if rec.Code != http.StatusNotModified {
		t.Fatalf("search revalidation = %d, want 304", rec.Code)
	}
}

func tinyExtraTable() kglids.Table {
	df := dataframe.New("admissions.csv")
	s := &dataframe.Series{Name: "patient"}
	for _, v := range []string{"Ann", "Bob", "Eve", "Fay"} {
		s.Cells = append(s.Cells, dataframe.ParseCell(v))
	}
	df.AddColumn(s)
	return kglids.Table{Dataset: "health", Frame: df}
}

// TestV1SPARQLProtocol exercises the SPARQL 1.1 protocol endpoint: GET,
// POST with a raw query body, POST form-encoded — all answering
// results-JSON — plus the protocol error statuses.
func TestV1SPARQLProtocol(t *testing.T) {
	plat := tinyPlatform(t)
	h := New(plat, Options{})
	const q = `SELECT ?t WHERE { ?t a kglids:Table . } ORDER BY ?t`

	check := func(label string, rec *httptest.ResponseRecorder) client.SPARQLResult {
		t.Helper()
		if rec.Code != http.StatusOK {
			t.Fatalf("%s = %d %s", label, rec.Code, rec.Body)
		}
		if ct := rec.Header().Get("Content-Type"); ct != sparqlResultsJSON {
			t.Fatalf("%s Content-Type = %q, want %q", label, ct, sparqlResultsJSON)
		}
		var res client.SPARQLResult
		if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
			t.Fatalf("%s decode: %v", label, err)
		}
		if len(res.Head.Vars) != 1 || res.Head.Vars[0] != "t" {
			t.Fatalf("%s vars = %v", label, res.Head.Vars)
		}
		if len(res.Results.Bindings) != 3 {
			t.Fatalf("%s bindings = %d, want 3 tables", label, len(res.Results.Bindings))
		}
		for _, b := range res.Results.Bindings {
			term, ok := b["t"]
			if !ok || term.Type != "uri" || !strings.HasPrefix(term.Value, "http://") {
				t.Fatalf("%s binding %+v, want a uri term", label, b)
			}
		}
		return res
	}

	getRec := getRaw(t, h, "/api/v1/sparql?query="+url.QueryEscape(q), nil)
	got := check("GET", getRec)

	req := httptest.NewRequest(http.MethodPost, "/api/v1/sparql", strings.NewReader(q))
	req.Header.Set("Content-Type", "application/sparql-query")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	postRaw := check("POST sparql-query", rec)

	form := url.Values{"query": {q}}
	req = httptest.NewRequest(http.MethodPost, "/api/v1/sparql", strings.NewReader(form.Encode()))
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	postForm := check("POST form", rec)

	for i := range got.Results.Bindings {
		if got.Results.Bindings[i]["t"] != postRaw.Results.Bindings[i]["t"] ||
			got.Results.Bindings[i]["t"] != postForm.Results.Bindings[i]["t"] {
			t.Fatalf("GET/POST protocol answers diverge at row %d", i)
		}
	}

	// Literals carry type "literal" (and no datatype for plain counts of
	// xsd:integer → datatype kept; just assert the type discriminator).
	rec = getRaw(t, h, "/api/v1/sparql?query="+
		url.QueryEscape(`SELECT (COUNT(?t) AS ?n) WHERE { ?t a kglids:Table . }`), nil)
	var res client.SPARQLResult
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if n := res.Results.Bindings[0]["n"]; n.Type != "literal" || n.Value != "3" {
		t.Fatalf("count binding = %+v, want literal 3", n)
	}

	// Parse errors are 400 JSON envelopes; wrong media type is 415.
	rec = getRaw(t, h, "/api/v1/sparql?query=SELECT+garbage", nil)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("parse error = %d, want 400", rec.Code)
	}
	decodeErr(t, rec.Body.Bytes())
	req = httptest.NewRequest(http.MethodPost, "/api/v1/sparql", strings.NewReader(q))
	req.Header.Set("Content-Type", "text/plain")
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusUnsupportedMediaType {
		t.Fatalf("text/plain POST = %d, want 415", rec.Code)
	}
}

// TestV1ParamValidation: invalid k/limit/cursor values are 400 envelopes
// (no silent defaults).
func TestV1ParamValidation(t *testing.T) {
	plat := tinyPlatform(t)
	h := New(plat, Options{})
	table := url.QueryEscape("health/patients.csv")

	badPaths := []string{
		"/api/v1/unionable?table=" + table + "&k=0",
		"/api/v1/unionable?table=" + table + "&k=-3",
		"/api/v1/unionable?table=" + table + "&k=abc",
		"/api/v1/similar?table=" + table + "&k=1.5",
		"/api/v1/libraries?k=abc",
		"/api/v1/tables?limit=0",
		"/api/v1/tables?limit=abc",
		"/api/v1/tables?cursor=!!!",              // not base64 at all
		"/api/v1/tables?cursor=bm90LWEtY3Vyc29y", // valid base64, wrong prefix
		"/api/v1/search?q=patients&limit=-1",
		"/api/v1/similar?table=" + table + "&k=0",
		"/api/v1/libraries?k=-1",
	}
	for _, p := range badPaths {
		rec := getRaw(t, h, p, nil)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("GET %s = %d %s, want 400", p, rec.Code, rec.Body)
			continue
		}
		decodeErr(t, rec.Body.Bytes())
	}

	// Oversized limits are clamped, not rejected.
	rec := getRaw(t, h, "/api/v1/tables?limit=99999", nil)
	if rec.Code != http.StatusOK {
		t.Errorf("oversized limit = %d %s, want 200 (clamped)", rec.Code, rec.Body)
	}
}

// TestNoRetirementHeaders: no route, on success or error, answers with
// the deprecation or successor Link header that marked a retiring route:
// there is one surface.
func TestNoRetirementHeaders(t *testing.T) {
	plat := tinyPlatform(t)
	mgr := ingest.New(plat.Core(), ingest.Options{Workers: 1, QueueSize: 4})
	defer mgr.Close()
	h := New(plat, Options{Ingest: mgr})
	table := url.QueryEscape("health/patients.csv")
	for _, c := range []struct{ method, path, body string }{
		{http.MethodGet, "/healthz", ""},
		{http.MethodGet, "/api/v1/healthz", ""},
		{http.MethodGet, "/api/v1/stats", ""},
		{http.MethodGet, "/api/v1/tables", ""},
		{http.MethodGet, "/api/v1/search?q=patients", ""},
		{http.MethodGet, "/api/v1/search", ""},
		{http.MethodGet, "/api/v1/unionable?table=" + table, ""},
		{http.MethodGet, "/api/v1/similar?table=" + table, ""},
		{http.MethodGet, "/api/v1/libraries", ""},
		{http.MethodGet, "/api/v1/sparql?query=" + url.QueryEscape("SELECT ?t WHERE { ?t a kglids:Table . }"), ""},
		{http.MethodPost, "/api/v1/ingest", "not json"},
		{http.MethodGet, "/api/v1/jobs", ""},
		{http.MethodGet, "/api/v1/jobs/99", ""},
		{http.MethodDelete, "/api/v1/tables/no/such.csv", ""},
		{http.MethodGet, "/api/v1/changelog", ""},
		{http.MethodPost, "/api/v1/snapshot", ""},
		{http.MethodGet, "/stats", ""},
		{http.MethodGet, "/search?q=patients", ""},
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(c.method, c.path, strings.NewReader(c.body)))
		if dep := rec.Header().Get("deprecation"); dep != "" {
			t.Errorf("%s %s (%d) carries deprecation: %s", c.method, c.path, rec.Code, dep)
		}
		if link := rec.Header().Get("Link"); link != "" {
			t.Errorf("%s %s (%d) carries Link: %s", c.method, c.path, rec.Code, link)
		}
	}
}

// TestDeleteTableUnescapesID: a table ID with percent-encoded characters
// (space, slash) round-trips through DELETE.
func TestDeleteTableUnescapesID(t *testing.T) {
	df := dataframe.New("daily admissions.csv") // space forces %20 on the wire
	s := &dataframe.Series{Name: "patient"}
	for _, v := range []string{"Ann", "Bob", "Cid", "Dee"} {
		s.Cells = append(s.Cells, dataframe.ParseCell(v))
	}
	df.AddColumn(s)
	plat := tinyPlatform(t)
	if _, err := plat.AddTables([]kglids.Table{{Dataset: "health", Frame: df}}); err != nil {
		t.Fatal(err)
	}
	const id = "health/daily admissions.csv"
	if !plat.HasTable(id) {
		t.Fatalf("fixture table %q missing", id)
	}

	mgr := ingest.New(plat.Core(), ingest.Options{Workers: 1, QueueSize: 4})
	defer mgr.Close()
	h := New(plat, Options{Ingest: mgr})

	for _, path := range []string{
		"/api/v1/tables/health/daily%20admissions.csv",
		"/api/v1/tables/health%2Fdaily%20admissions.csv", // escaped slash round-trips too
	} {
		req := httptest.NewRequest(http.MethodDelete, path, nil)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusAccepted {
			t.Fatalf("DELETE %s = %d %s", path, rec.Code, rec.Body)
		}
		var ref client.JobRef
		if err := json.Unmarshal(rec.Body.Bytes(), &ref); err != nil {
			t.Fatal(err)
		}
		if job, ok := mgr.Wait(ref.Job); !ok || job.State != ingest.Done {
			t.Fatalf("removal job %d = %+v", ref.Job, job)
		}
		if plat.HasTable(id) {
			t.Fatalf("table %q still served after DELETE %s", id, path)
		}
		// Re-add for the second round.
		if _, err := plat.AddTables([]kglids.Table{{Dataset: "health", Frame: df}}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestGzipAndRequestID: the middleware chain compresses for accepting
// clients and stamps every response with a request ID.
func TestGzipAndRequestID(t *testing.T) {
	plat := tinyPlatform(t)
	h := New(plat, Options{})

	// Every triple of the fixture: a body above the compression floor.
	path := "/api/v1/sparql?query=" + url.QueryEscape(`SELECT ?s ?p ?o WHERE { ?s ?p ?o . }`)
	plain := getRaw(t, h, path, nil)
	if plain.Header().Get("Content-Encoding") != "" {
		t.Fatal("uncompressed request got Content-Encoding")
	}
	if plain.Header().Get("X-Request-ID") == "" {
		t.Fatal("response missing X-Request-ID")
	}
	if plain.Body.Len() < gzipMinBytes {
		t.Fatalf("fixture body is %d bytes, below the %d-byte compression floor", plain.Body.Len(), gzipMinBytes)
	}

	rec := getRaw(t, h, path, map[string]string{"Accept-Encoding": "gzip"})
	if enc := rec.Header().Get("Content-Encoding"); enc != "gzip" {
		t.Fatalf("Content-Encoding = %q, want gzip", enc)
	}
	zr, err := gzip.NewReader(bytes.NewReader(rec.Body.Bytes()))
	if err != nil {
		t.Fatalf("gzip reader: %v", err)
	}
	unzipped, err := io.ReadAll(zr)
	if err != nil {
		t.Fatalf("gunzip: %v", err)
	}
	if !bytes.Equal(unzipped, plain.Body.Bytes()) {
		t.Fatalf("gzip body decompresses to %q, plain was %q", unzipped, plain.Body)
	}

	// A client-supplied request ID is echoed.
	rec = getRaw(t, h, "/api/v1/healthz", map[string]string{"X-Request-ID": "trace-42"})
	if got := rec.Header().Get("X-Request-ID"); got != "trace-42" {
		t.Fatalf("X-Request-ID = %q, want echoed trace-42", got)
	}

	// A 304 stays bodiless and uncompressed under gzip negotiation.
	etag := getRaw(t, h, "/api/v1/stats", nil).Header().Get("ETag")
	rec = getRaw(t, h, "/api/v1/stats", map[string]string{
		"Accept-Encoding": "gzip", "If-None-Match": etag,
	})
	if rec.Code != http.StatusNotModified || rec.Body.Len() != 0 {
		t.Fatalf("gzip 304 = %d with %d body bytes", rec.Code, rec.Body.Len())
	}
	if rec.Header().Get("Content-Encoding") != "" {
		t.Fatal("304 must not carry Content-Encoding")
	}
}

// TestV1MethodNotAllowed: wrong methods get a 405 envelope with Allow.
func TestV1MethodNotAllowed(t *testing.T) {
	plat := tinyPlatform(t)
	h := New(plat, Options{})
	req := httptest.NewRequest(http.MethodDelete, "/api/v1/stats", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("DELETE /api/v1/stats = %d", rec.Code)
	}
	if allow := rec.Header().Get("Allow"); allow != "GET" {
		t.Fatalf("Allow = %q, want GET", allow)
	}
	decodeErr(t, rec.Body.Bytes())
}

// TestV1JobsSurface: the async mutation surface answers 503 without a
// manager and serves paginated job DTOs with one.
func TestV1JobsSurface(t *testing.T) {
	plat := tinyPlatform(t)
	readOnly := New(plat, Options{})
	for _, p := range []string{"/api/v1/jobs", "/api/v1/jobs/1"} {
		rec := getRaw(t, readOnly, p, nil)
		if rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("GET %s without -ingest = %d, want 503", p, rec.Code)
		}
		decodeErr(t, rec.Body.Bytes())
	}

	mgr := ingest.New(plat.Core(), ingest.Options{Workers: 1, QueueSize: 4})
	defer mgr.Close()
	h := New(plat, Options{Ingest: mgr})

	body := `{"tables":[{"dataset":"icu","name":"beds.csv","columns":[` +
		`{"name":"ward","values":["a","b","c","d"]},{"name":"beds","values":[4,8,2,6]}]}]}`
	req := httptest.NewRequest(http.MethodPost, "/api/v1/ingest", strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("POST /api/v1/ingest = %d %s", rec.Code, rec.Body)
	}
	var ref client.JobRef
	if err := json.Unmarshal(rec.Body.Bytes(), &ref); err != nil {
		t.Fatal(err)
	}
	if ref.State != client.JobQueued {
		t.Fatalf("accepted state = %q", ref.State)
	}
	if job, ok := mgr.Wait(ref.Job); !ok || job.State != ingest.Done {
		t.Fatalf("job = %+v", job)
	}

	rec = getRaw(t, h, fmt.Sprintf("/api/v1/jobs/%d", ref.Job), nil)
	var jd client.Job
	if err := json.Unmarshal(rec.Body.Bytes(), &jd); err != nil {
		t.Fatal(err)
	}
	if jd.ID != ref.Job || jd.State != client.JobDone || jd.Kind != "add" ||
		len(jd.Added) != 1 || jd.Added[0] != "icu/beds.csv" {
		t.Fatalf("job DTO = %+v", jd)
	}
	if jd.SubmittedAt.IsZero() || jd.FinishedAt.Before(jd.SubmittedAt) {
		t.Fatalf("job DTO timestamps broken: %+v", jd)
	}

	rec = getRaw(t, h, "/api/v1/jobs?limit=1", nil)
	var page client.Page[client.Job]
	if err := json.Unmarshal(rec.Body.Bytes(), &page); err != nil {
		t.Fatal(err)
	}
	if page.Total != 1 || len(page.Items) != 1 {
		t.Fatalf("jobs page = %+v", page)
	}
	if !plat.HasTable("icu/beds.csv") {
		t.Fatal("ingested table not served")
	}
}

// TestV1TimeoutEnvelope: the per-request deadline cuts off a v1 SPARQL
// query with the 504 envelope.
func TestV1TimeoutEnvelope(t *testing.T) {
	plat, _ := testPlatform(t)
	h := New(plat, Options{RequestTimeout: 10 * time.Millisecond})
	q := url.QueryEscape(`SELECT (COUNT(*) AS ?n) WHERE {
		?a kglids:name ?n1 . ?b kglids:name ?n2 . ?c kglids:name ?n3 .
		?d kglids:name ?n4 . ?e kglids:name ?n5 . }`)
	rec := getRaw(t, h, "/api/v1/sparql?query="+q, nil)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504; body %s", rec.Code, rec.Body)
	}
	decodeErr(t, rec.Body.Bytes())
}

// TestSPARQLBodyTooLarge: a SPARQL POST body over maxSPARQLBody is
// refused with 413 naming the cap, in both protocol media types, instead
// of running the query that fits under it; a body of exactly the cap
// runs.
func TestSPARQLBodyTooLarge(t *testing.T) {
	plat := tinyPlatform(t)
	h := New(plat, Options{})
	for _, c := range []struct{ ctype, prefix string }{
		{"application/sparql-query", "SELECT ?s WHERE { ?s ?p ?o } LIMIT 1"},
		{"application/x-www-form-urlencoded", "query=" + url.QueryEscape("SELECT ?s WHERE { ?s ?p ?o } LIMIT 1")},
	} {
		post := func(size int64) *httptest.ResponseRecorder {
			req := httptest.NewRequest(http.MethodPost, "/api/v1/sparql", paddedBody(c.prefix, size))
			req.Header.Set("Content-Type", c.ctype)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			return rec
		}
		rec := post(maxSPARQLBody + 1)
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s POST of %d bytes = %d %.200s, want 413", c.ctype, maxSPARQLBody+1, rec.Code, rec.Body)
			continue
		}
		if msg := decodeErr(t, rec.Body.Bytes()); !strings.Contains(msg, strconv.Itoa(maxSPARQLBody)) {
			t.Errorf("%s: 413 message %q does not name the %d-byte cap", c.ctype, msg, maxSPARQLBody)
		}
		if rec := post(maxSPARQLBody); rec.Code != http.StatusOK {
			t.Errorf("%s POST of exactly %d bytes = %d %.200s, want 200", c.ctype, maxSPARQLBody, rec.Code, rec.Body)
		}
	}
}
