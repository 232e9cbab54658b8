package server

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"mime"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"time"

	"kglids"
	"kglids/client"
	"kglids/internal/ingest"
	"kglids/internal/rdf"
	"kglids/internal/sparql"
)

// sparqlResultsJSON is the SPARQL 1.1 query-results media type.
const sparqlResultsJSON = "application/sparql-results+json"

// maxSPARQLBody bounds a POST /api/v1/sparql body (1 MiB), raw or
// form-encoded; a larger body is answered 413.
const maxSPARQLBody = 1 << 20

// registerV1 mounts the versioned /api/v1 surface: stable DTOs (the types
// of package kglids/client — the handlers marshal them directly, so the
// wire contract and the typed client cannot drift), cursor/limit
// pagination on every list endpoint, conditional GET bound to the store
// generation, and a SPARQL 1.1 protocol endpoint. /healthz, the
// load-balancer probe, serves the /api/v1/healthz body.
//
//	GET    /healthz, /api/v1/healthz            liveness + generation
//	GET    /api/v1/stats                        graph statistics DTO
//	GET    /api/v1/tables                       paginated table inventory
//	GET    /api/v1/search?q=kw1,kw2             paginated keyword search
//	GET    /api/v1/unionable?table=ID&k=10      paginated top-k unionable
//	GET    /api/v1/similar?table=ID&k=10        paginated top-k similar
//	GET    /api/v1/libraries?k=10               paginated library popularity
//	GET    /api/v1/sparql?query=...             SPARQL 1.1 protocol
//	POST   /api/v1/sparql                       (sparql-query or form body)
//	POST   /api/v1/ingest                       async add job (202)
//	GET    /api/v1/jobs                         paginated job history
//	GET    /api/v1/jobs/{id}                    one job DTO
//	DELETE /api/v1/tables/{id...}               async removal (202)
//
// Conditional GET: every deterministic read (everything except the job
// endpoints, whose lifecycle advances without graph mutations) carries
// `ETag: "<store generation>"`; a request whose If-None-Match matches the
// live generation is answered 304 with no body. Any mutation bumps the
// generation, invalidating all held validators at once.
func (s *server) registerV1(mux *http.ServeMux) {
	get := func(pattern string, etag bool, h func(r *http.Request) (any, error)) {
		s.route(mux, pattern, map[string]v1handler{
			http.MethodGet: {status: http.StatusOK, etag: etag, fn: h},
		})
	}

	get("/healthz", false, s.handleHealth)
	get("/api/v1/healthz", false, s.handleHealth)
	get("/api/v1/stats", true, func(*http.Request) (any, error) {
		return statsDTO(s.plat.Stats(), s.plat.Generation()), nil
	})
	get("/api/v1/tables", true, func(r *http.Request) (any, error) {
		pg, err := parsePage(r)
		if err != nil {
			return nil, err
		}
		// Paginate the (sorted, stable) ID list first and build DTOs for
		// the requested page only — O(page), not O(lake), per request.
		idPage := pageOf(s.plat.TableIDs(), pg)
		infos := make([]client.TableInfo, len(idPage.Items))
		for i, id := range idPage.Items {
			infos[i] = tableInfoDTO(id)
		}
		return client.Page[client.TableInfo]{
			Items: infos, Total: idPage.Total, NextCursor: idPage.NextCursor,
		}, nil
	})
	get("/api/v1/search", true, func(r *http.Request) (any, error) {
		qs := r.URL.Query()["q"]
		if len(qs) == 0 {
			return nil, badRequest("missing 'q' parameter (comma-separated keywords; repeat q to OR conditions)")
		}
		pg, err := parsePage(r)
		if err != nil {
			return nil, err
		}
		conditions := make([][]string, len(qs))
		for i, q := range qs {
			conditions[i] = strings.Split(q, ",")
		}
		hits := s.plat.SearchKeywords(conditions)
		return pageOf(hitDTOs(hits), pg), nil
	})
	get("/api/v1/unionable", true, func(r *http.Request) (any, error) {
		table, k, pg, err := tableKPage(r)
		if err != nil {
			return nil, err
		}
		hits, err := s.plat.UnionableTables(table, k)
		if err != nil {
			return nil, notFound(err.Error())
		}
		return pageOf(hitDTOs(hits), pg), nil
	})
	get("/api/v1/similar", true, func(r *http.Request) (any, error) {
		table, k, pg, err := tableKPage(r)
		if err != nil {
			return nil, err
		}
		c := s.plat.Core()
		emb, ok := c.TableEmbedding(table)
		if !ok {
			return nil, notFound(fmt.Sprintf("unknown table %q", table))
		}
		nn := c.TableANN.Search(emb, k)
		hits := make([]client.TableHit, len(nn))
		for i, h := range nn {
			hits[i] = client.TableHit{ID: h.ID, Name: nameOfID(h.ID), Score: h.Score}
		}
		return pageOf(hits, pg), nil
	})
	get("/api/v1/libraries", true, func(r *http.Request) (any, error) {
		k, err := intParam(r, "k", 10, MaxK)
		if err != nil {
			return nil, err
		}
		pg, err := parsePage(r)
		if err != nil {
			return nil, err
		}
		rows, err := s.plat.GetTopKLibrariesUsed(k)
		if err != nil {
			return nil, err
		}
		libs := make([]client.Library, len(rows))
		for i, u := range rows {
			libs[i] = client.Library{Library: u.Library, Pipelines: u.Pipelines}
		}
		return pageOf(libs, pg), nil
	})

	// SPARQL 1.1 protocol: GET with ?query=, POST with a raw
	// application/sparql-query body or a form-encoded query field. Both
	// answer application/sparql-results+json.
	sparqlHandler := v1handler{
		status: http.StatusOK,
		ctype:  sparqlResultsJSON,
		fn: func(r *http.Request) (any, error) {
			q, err := sparqlQueryFrom(r)
			if err != nil {
				return nil, err
			}
			res, err := s.plat.QueryContext(r.Context(), q)
			if err != nil {
				if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
					return nil, &httpError{status: http.StatusGatewayTimeout, msg: "request timed out"}
				}
				return nil, badRequest(err.Error())
			}
			return sparqlResultDTO(res), nil
		},
	}
	getSPARQL := sparqlHandler
	getSPARQL.etag = true
	s.route(mux, "/api/v1/sparql", map[string]v1handler{
		http.MethodGet:  getSPARQL,
		http.MethodPost: sparqlHandler,
	})

	// Mutation surface (async job queue; 503 without -ingest).
	s.route(mux, "/api/v1/ingest", map[string]v1handler{
		http.MethodPost: {status: http.StatusAccepted, fn: s.handleIngest},
	})
	get("/api/v1/jobs", false, func(r *http.Request) (any, error) {
		m, err := s.manager()
		if err != nil {
			return nil, err
		}
		pg, err := parsePage(r)
		if err != nil {
			return nil, err
		}
		jobs := m.Jobs() // submission order: stable under pagination
		dtos := make([]client.Job, len(jobs))
		for i, j := range jobs {
			dtos[i] = jobDTO(j)
		}
		return pageOf(dtos, pg), nil
	})
	get("/api/v1/jobs/{id}", false, s.handleJob)
	s.route(mux, "/api/v1/tables/{id...}", map[string]v1handler{
		http.MethodDelete: {status: http.StatusAccepted, fn: s.handleDeleteTable},
	})

	// Replication surface: followers tail the mutation changelog here, and
	// bootstrap from the snapshot stream, which New routes to
	// handleSnapshot ahead of this mux.
	get("/api/v1/changelog", false, s.handleChangelog)
}

// defaultChangelogLimit and maxChangelogLimit bound a changelog page.
const (
	defaultChangelogLimit = 256
	maxChangelogLimit     = 4096
)

// handleChangelog serves one page of the primary's mutation changelog.
// cursor is the sequence number already applied (0 = from the floor); a
// cursor lost to compaction — or beyond the head after a primary reset —
// is 410 Gone: the follower must re-seed from /api/v1/snapshot.
func (s *server) handleChangelog(r *http.Request) (any, error) {
	var cursor uint64
	if raw := r.URL.Query().Get("cursor"); raw != "" {
		var err error
		if cursor, err = strconv.ParseUint(raw, 10, 64); err != nil {
			return nil, badRequest(fmt.Sprintf("parameter \"cursor\" must be a non-negative integer (got %q)", raw))
		}
	}
	limit, err := intParam(r, "limit", defaultChangelogLimit, maxChangelogLimit)
	if err != nil {
		return nil, err
	}
	view, err := s.plat.ChangelogSince(cursor, limit)
	switch {
	case errors.Is(err, kglids.ErrNoChangelog):
		return nil, notFound("changelog not enabled on this server")
	case errors.Is(err, kglids.ErrLogCompacted), errors.Is(err, kglids.ErrLogFutureCursor):
		return nil, &httpError{status: http.StatusGone, msg: err.Error()}
	case err != nil:
		return nil, err
	}
	page := client.ChangelogPage{
		Entries: make([]client.ChangeEntry, len(view.Entries)),
		Head:    view.Head, Floor: view.Floor, AtHead: view.AtHead,
		NextCursor: cursor,
	}
	for i, e := range view.Entries {
		page.Entries[i] = client.ChangeEntry{
			Seq: e.Seq, Generation: e.Generation, TS: e.TS,
			Kind: e.Kind, Payload: e.Payload,
		}
	}
	if n := len(view.Entries); n > 0 {
		page.NextCursor = view.Entries[n-1].Seq
	}
	return changelogJSON(page), nil
}

// changelogJSON encodes a changelog page byte for byte as json.Encoder
// would (fields in struct order, payloads in padded standard base64, a
// trailing newline), but into one buffer sized up front. The page is the
// largest body the server sends, and json.Encoder would allocate it about
// three times over: a base64 buffer per payload and a doubling output
// buffer.
func changelogJSON(p client.ChangelogPage) encodedJSON {
	// Every entry's and the page's punctuation, field names and at most
	// 20-character numbers fit in maxJSONFrame bytes.
	const maxJSONFrame = 128
	n := maxJSONFrame
	for _, e := range p.Entries {
		n += maxJSONFrame + 6*len(e.Kind) + base64.StdEncoding.EncodedLen(len(e.Payload))
	}
	b := make([]byte, 0, n)
	b = append(b, `{"entries":[`...)
	for i, e := range p.Entries {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"seq":`...)
		b = strconv.AppendUint(b, e.Seq, 10)
		b = append(b, `,"generation":`...)
		b = strconv.AppendUint(b, e.Generation, 10)
		b = append(b, `,"ts":`...)
		b = strconv.AppendInt(b, e.TS, 10)
		b = append(b, `,"kind":`...)
		b = appendJSONString(b, e.Kind)
		b = append(b, `,"payload":`...)
		if e.Payload == nil {
			b = append(b, "null"...)
		} else {
			b = append(b, '"')
			b = base64.StdEncoding.AppendEncode(b, e.Payload)
			b = append(b, '"')
		}
		b = append(b, '}')
	}
	b = append(b, `],"head":`...)
	b = strconv.AppendUint(b, p.Head, 10)
	b = append(b, `,"floor":`...)
	b = strconv.AppendUint(b, p.Floor, 10)
	b = append(b, `,"at_head":`...)
	b = strconv.AppendBool(b, p.AtHead)
	b = append(b, `,"next_cursor":`...)
	b = strconv.AppendUint(b, p.NextCursor, 10)
	return append(b, "}\n"...)
}

// appendJSONString appends s as a JSON string. Record kinds are short
// ASCII names that need no escaping; anything else is left to
// encoding/json, whose escaping (HTML characters included) it must match.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// snapshotPath is the route of the snapshot stream.
const snapshotPath = "/api/v1/snapshot"

// snapshotWriteTimeout bounds how long one snapshot stream may take to
// reach its client. The stream grows with the lake, so it is held neither
// to the request timeout nor to the server's write timeout.
const snapshotWriteTimeout = 10 * time.Minute

// handleSnapshot streams the platform's binary snapshot — the follower
// bootstrap path. The save pauses ingestion only to capture the platform,
// so the state is always job-consistent and its REPL section carries the
// changelog cursor to resume from. The bytes go to the connection as the
// save writes them, not through withTimeout's buffer, under a write
// deadline of their own; a client slower than the request timeout still
// receives the whole snapshot.
func (s *server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeError(w, http.StatusMethodNotAllowed, "method not allowed; use GET")
		return
	}
	// A writer with no connection under it (a test recorder) has no
	// deadline to set.
	err := http.NewResponseController(w).SetWriteDeadline(time.Now().Add(snapshotWriteTimeout))
	if err != nil && !errors.Is(err, http.ErrNotSupported) {
		slog.Warn("server: snapshot write deadline", "err", err)
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	if err := s.plat.SaveTo(w); err != nil {
		// Headers may already be on the wire; log rather than re-status.
		slog.Warn("server: snapshot stream failed", "err", err)
	}
}

// handleHealth serves the health body: liveness, generation, and the
// instance's replication role.
func (s *server) handleHealth(*http.Request) (any, error) {
	h := client.Health{Status: "ok", Generation: s.plat.Generation(), Role: "primary"}
	if s.replica != nil {
		h.Role = "replica"
		h.AppliedGeneration, h.LagSeconds = s.replica.ReplicaHealth()
	}
	return h, nil
}

// v1handler is one method's behavior on a v1 route.
type v1handler struct {
	// status is the success status code.
	status int
	// ctype overrides the response content type ("" = application/json).
	ctype string
	// etag enables conditional GET bound to the store generation.
	etag bool
	// fn produces the response DTO.
	fn func(r *http.Request) (any, error)
}

// route registers one pattern dispatching on method, with uniform 405
// envelopes (carrying Allow), conditional-GET handling, and JSON writing.
func (s *server) route(mux *http.ServeMux, pattern string, methods map[string]v1handler) {
	allowed := make([]string, 0, len(methods))
	for m := range methods {
		allowed = append(allowed, m)
	}
	sort.Strings(allowed)
	allow := strings.Join(allowed, ", ")

	mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		h, ok := methods[r.Method]
		if !ok {
			w.Header().Set("Allow", allow)
			writeError(w, http.StatusMethodNotAllowed, "method not allowed; use "+allow)
			return
		}
		if h.etag && r.Method == http.MethodGet && s.notModified(w, r) {
			return
		}
		v, err := h.fn(r)
		if err != nil {
			writeError(w, statusFor(err), err.Error())
			return
		}
		ctype := h.ctype
		if ctype == "" {
			ctype = "application/json"
		}
		writeJSONAs(w, h.status, ctype, v)
	})
}

// notModified implements conditional GET against the store generation: it
// stamps the response ETag and short-circuits with 304 when the client's
// If-None-Match still names the live generation. The generation is read
// once; a mutation racing the body computation at worst costs the client
// one extra revalidation, never a stale 304.
func (s *server) notModified(w http.ResponseWriter, r *http.Request) bool {
	etag := generationETag(s.plat.Generation())
	h := w.Header()
	h.Set("ETag", etag)
	h.Set("Cache-Control", "no-cache") // cacheable, but always revalidate
	if inm := r.Header.Get("If-None-Match"); inm != "" && etagMatches(inm, etag) {
		w.WriteHeader(http.StatusNotModified)
		return true
	}
	return false
}

// generationETag renders the entity tag for a store generation. The tag
// is qualified by the random per-process ID because the generation alone
// is not unique across instances: a restarted server (or a sibling
// replica behind a load balancer) can reach the same counter value with
// different content, and a validator held from the old instance must not
// produce a false 304 against the new one. Cross-instance revalidation
// therefore always misses — a cheap refetch, never a stale body.
func generationETag(gen uint64) string {
	return `"` + processID + "-" + strconv.FormatUint(gen, 10) + `"`
}

// etagMatches reports whether an If-None-Match header names etag (weak
// comparison; "*" matches anything).
func etagMatches(inm, etag string) bool {
	for _, part := range strings.Split(inm, ",") {
		part = strings.TrimSpace(part)
		part = strings.TrimPrefix(part, "W/")
		if part == "*" || part == etag {
			return true
		}
	}
	return false
}

// --- pagination -------------------------------------------------------------

// pageParams is a decoded cursor/limit pair.
type pageParams struct {
	offset, limit int
}

// parsePage reads cursor/limit. Absent values mean the first page at
// DefaultLimit; a malformed cursor or non-positive/non-numeric limit is a
// 400; oversized limits are clamped to MaxLimit.
func parsePage(r *http.Request) (pageParams, error) {
	limit, err := intParam(r, "limit", DefaultLimit, MaxLimit)
	if err != nil {
		return pageParams{}, err
	}
	offset := 0
	if c := r.URL.Query().Get("cursor"); c != "" {
		offset, err = decodeCursor(c)
		if err != nil {
			return pageParams{}, badRequest("invalid 'cursor' parameter")
		}
	}
	return pageParams{offset: offset, limit: limit}, nil
}

// cursorPrefix versions the cursor encoding.
const cursorPrefix = "v1:"

func encodeCursor(offset int) string {
	return base64.RawURLEncoding.EncodeToString([]byte(cursorPrefix + strconv.Itoa(offset)))
}

func decodeCursor(s string) (int, error) {
	raw, err := base64.RawURLEncoding.DecodeString(s)
	if err != nil {
		return 0, err
	}
	rest, ok := strings.CutPrefix(string(raw), cursorPrefix)
	if !ok {
		return 0, fmt.Errorf("bad cursor prefix")
	}
	off, err := strconv.Atoi(rest)
	if err != nil || off < 0 {
		return 0, fmt.Errorf("bad cursor offset")
	}
	return off, nil
}

// pageOf slices one page out of the full result set and mints the next
// cursor. Items is never null on the wire.
func pageOf[T any](items []T, p pageParams) client.Page[T] {
	off := p.offset
	if off > len(items) {
		off = len(items)
	}
	end := off + p.limit
	if end > len(items) {
		end = len(items)
	}
	page := client.Page[T]{Items: items[off:end], Total: len(items)}
	if page.Items == nil {
		page.Items = []T{}
	}
	if end < len(items) {
		page.NextCursor = encodeCursor(end)
	}
	return page
}

// tableKPage parses the table/k/cursor/limit parameter bundle shared by
// /api/v1/unionable and /api/v1/similar.
func tableKPage(r *http.Request) (table string, k int, pg pageParams, err error) {
	table = r.URL.Query().Get("table")
	if table == "" {
		return "", 0, pageParams{}, badRequest("missing 'table' parameter (\"dataset/table\")")
	}
	if k, err = intParam(r, "k", 10, MaxK); err != nil {
		return "", 0, pageParams{}, err
	}
	if pg, err = parsePage(r); err != nil {
		return "", 0, pageParams{}, err
	}
	return table, k, pg, nil
}

// --- DTO mapping ------------------------------------------------------------

// statsDTO converts internal stats to the stable wire shape.
func statsDTO(st kglids.Stats, gen uint64) client.Stats {
	return client.Stats{
		Triples:         st.Triples,
		Nodes:           st.Nodes,
		Predicates:      st.Predicates,
		NamedGraphs:     st.NamedGraphs,
		Columns:         st.Columns,
		Tables:          st.Tables,
		Datasets:        st.Datasets,
		SimilarityEdges: st.SimilarityEdges,
		Generation:      gen,
	}
}

// tableInfoDTO splits a "dataset/table" ID.
func tableInfoDTO(id string) client.TableInfo {
	info := client.TableInfo{ID: id, Name: id}
	if i := strings.IndexByte(id, '/'); i >= 0 {
		info.Dataset, info.Name = id[:i], id[i+1:]
	}
	return info
}

// nameOfID is the table-name component of a "dataset/table" ID.
func nameOfID(id string) string {
	if i := strings.IndexByte(id, '/'); i >= 0 {
		return id[i+1:]
	}
	return id
}

// hitDTOs converts discovery results to wire hits, translating internal
// resource IRIs back to "dataset/table" IDs — no rdf.Term ever reaches a
// v1 response body.
func hitDTOs(hits []kglids.TableResult) []client.TableHit {
	out := make([]client.TableHit, len(hits))
	for i, h := range hits {
		out[i] = client.TableHit{ID: tableIDFromIRI(h.Table.Value), Name: h.Name, Score: h.Score}
	}
	return out
}

// tableIDFromIRI inverts schema.TableIRI: strip the resource namespace and
// percent-unescape each path segment.
func tableIDFromIRI(iri string) string {
	p := strings.TrimPrefix(iri, rdf.ResourceNS)
	segs := strings.Split(p, "/")
	for i, seg := range segs {
		if u, err := url.PathUnescape(seg); err == nil {
			segs[i] = u
		}
	}
	return strings.Join(segs, "/")
}

// jobDTO converts an ingest job record to the wire shape.
func jobDTO(j ingest.Job) client.Job {
	return client.Job{
		ID:          j.ID,
		Kind:        string(j.Kind),
		State:       string(j.State),
		Error:       j.Error,
		Tables:      j.Tables,
		Added:       j.Added,
		Updated:     j.Updated,
		Skipped:     j.Skipped,
		Removed:     j.Removed,
		SubmittedAt: j.SubmittedAt,
		StartedAt:   j.StartedAt,
		FinishedAt:  j.FinishedAt,
	}
}

// sparqlQueryFrom extracts the query per the SPARQL 1.1 protocol: the
// query parameter on GET; a raw application/sparql-query body or a
// form-encoded query field on POST, either at most maxSPARQLBody bytes.
func sparqlQueryFrom(r *http.Request) (string, error) {
	if r.Method == http.MethodGet {
		q := r.URL.Query().Get("query")
		if q == "" {
			return "", badRequest("missing 'query' parameter")
		}
		return q, nil
	}
	ctype := r.Header.Get("Content-Type")
	mediaType := ctype
	if mt, _, err := mime.ParseMediaType(ctype); err == nil {
		mediaType = mt
	}
	r.Body = http.MaxBytesReader(nil, r.Body, maxSPARQLBody)
	switch mediaType {
	case "application/sparql-query":
		body, err := io.ReadAll(r.Body)
		if err != nil {
			return "", bodyError(fmt.Errorf("reading query body: %w", err))
		}
		q := strings.TrimSpace(string(body))
		if q == "" {
			return "", badRequest("empty query body")
		}
		return q, nil
	case "application/x-www-form-urlencoded":
		if err := r.ParseForm(); err != nil {
			return "", bodyError(fmt.Errorf("invalid form body: %w", err))
		}
		q := r.PostForm.Get("query")
		if q == "" {
			return "", badRequest("missing 'query' form field")
		}
		return q, nil
	default:
		return "", &httpError{status: http.StatusUnsupportedMediaType,
			msg: "POST /api/v1/sparql needs application/sparql-query or application/x-www-form-urlencoded"}
	}
}

// sparqlResultDTO renders a result as SPARQL 1.1 results-JSON. Unbound
// variables are omitted from their row, per spec.
func sparqlResultDTO(res *sparql.Result) client.SPARQLResult {
	out := client.SPARQLResult{
		Head:    client.SPARQLHead{Vars: append([]string{}, res.Vars...)},
		Results: client.SPARQLBindings{Bindings: make([]map[string]client.SPARQLTerm, len(res.Rows))},
	}
	for i, row := range res.Rows {
		b := make(map[string]client.SPARQLTerm, len(row))
		for _, v := range res.Vars {
			if t, ok := row[v]; ok {
				b[v] = sparqlTermDTO(t)
			}
		}
		out.Results.Bindings[i] = b
	}
	return out
}

// sparqlTermDTO maps an RDF term to its results-JSON form.
func sparqlTermDTO(t rdf.Term) client.SPARQLTerm {
	switch t.Kind {
	case rdf.KindIRI:
		return client.SPARQLTerm{Type: "uri", Value: t.Value}
	case rdf.KindBlank:
		return client.SPARQLTerm{Type: "bnode", Value: t.Value}
	case rdf.KindQuoted:
		// RDF-star quoted triples surface with their Turtle-star text; the
		// SPARQL 1.2 structured form would be overkill for the LiDS graph's
		// certainty annotations.
		return client.SPARQLTerm{Type: "triple", Value: t.String()}
	default:
		dt := t.Datatype
		if dt == rdf.XSDNS+"string" {
			dt = ""
		}
		return client.SPARQLTerm{Type: "literal", Value: t.Value, Datatype: dt}
	}
}
