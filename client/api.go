// Package client is the typed Go client for the kglids-server `/api/v1`
// surface — and, by construction, the definition of that surface's wire
// contract: internal/server marshals the DTO types in this file, so the
// client and the server cannot drift apart.
//
// The v1 contract, in brief:
//
//   - Every response body is a dedicated DTO — no internal representation
//     (rdf.Term, store IDs) ever appears on the wire. Table hits are
//     {"id","name","score"} with id = "dataset/table".
//   - Every list endpoint paginates with an opaque cursor and a
//     server-capped limit; pages carry {"items","total","next_cursor"}.
//   - Read endpoints answer conditional GETs: responses carry
//     `ETag: "<store generation>"`, and a request whose If-None-Match
//     still matches the live generation is answered 304 with no body.
//   - /api/v1/sparql speaks the SPARQL 1.1 protocol (GET ?query=, POST
//     application/sparql-query or form) and returns
//     application/sparql-results+json.
//   - Errors are a JSON envelope {"error":"..."} with a matching status,
//     surfaced here as *APIError.
package client

import (
	"fmt"
	"time"
)

// Stats is the LiDS graph statistics DTO (GET /api/v1/stats).
type Stats struct {
	Triples         int    `json:"triples"`
	Nodes           int    `json:"nodes"`
	Predicates      int    `json:"predicates"`
	NamedGraphs     int    `json:"named_graphs"`
	Columns         int    `json:"columns"`
	Tables          int    `json:"tables"`
	Datasets        int    `json:"datasets"`
	SimilarityEdges int    `json:"similarity_edges"`
	Generation      uint64 `json:"generation"`
}

// Health is the liveness DTO (GET /api/v1/healthz).
type Health struct {
	Status     string `json:"status"`
	Generation uint64 `json:"generation"`
	// Role is "primary" on a writable server and "replica" on a read-only
	// follower (empty from servers predating replication).
	Role string `json:"role,omitempty"`
	// AppliedGeneration and LagSeconds report a replica's replication
	// state: the store generation it has applied and how far (in seconds)
	// its newest applied record trails the primary. Both are zero on
	// primaries.
	AppliedGeneration uint64  `json:"applied_generation,omitempty"`
	LagSeconds        float64 `json:"lag_seconds,omitempty"`
}

// ChangeEntry is one replicated mutation record
// (GET /api/v1/changelog): one whole mutation of the primary. Payload is
// the binary-encoded record body (base64 on the wire); Kind selects its
// schema: "tables" carries a table addition, update or removal (the
// removed table IDs plus the added profiles, similarity edges and table
// embeddings), "pipelines" the scripts of one pipeline registration.
type ChangeEntry struct {
	// Seq is the record's position in the primary's changelog; records
	// apply strictly in Seq order.
	Seq uint64 `json:"seq"`
	// Generation is the primary's store generation after this record was
	// applied; a follower that applies it reaches the same value.
	Generation uint64 `json:"generation"`
	// TS is the primary's wall-clock append time (Unix nanoseconds), the
	// basis of follower lag measurement.
	TS      int64  `json:"ts"`
	Kind    string `json:"kind"`
	Payload []byte `json:"payload"`
}

// ChangelogPage is one page of the mutation changelog.
type ChangelogPage struct {
	Entries []ChangeEntry `json:"entries"`
	// Head is the primary's newest sequence number, Floor its compaction
	// floor: cursors below Floor are gone (410) and require a fresh
	// snapshot.
	Head  uint64 `json:"head"`
	Floor uint64 `json:"floor"`
	// AtHead reports that this page ends at Head — the follower is caught
	// up and should poll rather than immediately re-fetch.
	AtHead bool `json:"at_head"`
	// NextCursor is the cursor for the next page: the Seq of the last
	// entry, or the request cursor when the page is empty.
	NextCursor uint64 `json:"next_cursor"`
}

// TableHit is one ranked table result (search, unionable, similar).
type TableHit struct {
	// ID is the stable "dataset/table" identifier, usable with every
	// other endpoint (unionable, similar, DELETE /tables/{id}).
	ID    string  `json:"id"`
	Name  string  `json:"name"`
	Score float64 `json:"score"`
}

// TableInfo identifies one served table (GET /api/v1/tables).
type TableInfo struct {
	ID      string `json:"id"`
	Dataset string `json:"dataset"`
	Name    string `json:"name"`
}

// Library is one library-popularity row (GET /api/v1/libraries).
type Library struct {
	Library   string `json:"library"`
	Pipelines int    `json:"pipelines"`
}

// Page is the envelope of every paginated list response. Items holds one
// page, Total the size of the full result set, and NextCursor the opaque
// cursor of the next page ("" on the last page).
type Page[T any] struct {
	Items      []T    `json:"items"`
	Total      int    `json:"total"`
	NextCursor string `json:"next_cursor,omitempty"`
}

// PageOpts selects one page of a list endpoint. The zero value asks for
// the first page at the server's default limit.
type PageOpts struct {
	// Cursor is the opaque NextCursor of a previous page.
	Cursor string
	// Limit bounds the page size; 0 means the server default. The server
	// caps oversized limits.
	Limit int
}

// Job lifecycle states (mirroring internal/ingest).
const (
	JobQueued  = "queued"
	JobRunning = "running"
	JobDone    = "done"
	JobFailed  = "failed"
)

// Job is the DTO of one ingestion job (GET /api/v1/jobs/{id}).
type Job struct {
	ID    int    `json:"id"`
	Kind  string `json:"kind"` // "add" or "remove"
	State string `json:"state"`
	Error string `json:"error,omitempty"`
	// Tables are the "dataset/table" IDs the job was submitted with.
	Tables []string `json:"tables"`
	// Added, Updated, and Skipped partition an add job's tables by
	// outcome; Removed lists the IDs a remove job deleted.
	Added   []string `json:"added,omitempty"`
	Updated []string `json:"updated,omitempty"`
	Skipped []string `json:"skipped,omitempty"`
	Removed []string `json:"removed,omitempty"`

	SubmittedAt time.Time `json:"submitted_at"`
	StartedAt   time.Time `json:"started_at,omitempty"`
	FinishedAt  time.Time `json:"finished_at,omitempty"`
}

// Terminal reports whether the job has finished (successfully or not).
func (j Job) Terminal() bool { return j.State == JobDone || j.State == JobFailed }

// JobRef is the 202 acknowledgement of an accepted mutation.
type JobRef struct {
	Job   int    `json:"job"`
	State string `json:"state"`
}

// IngestColumn is one column of a submitted table. Values may be strings
// (parsed like CSV cells), numbers, booleans, or nil.
type IngestColumn struct {
	Name   string `json:"name"`
	Values []any  `json:"values"`
}

// IngestTable is the wire form of one table submitted to POST /api/v1/ingest.
type IngestTable struct {
	Dataset string         `json:"dataset"`
	Name    string         `json:"name"`
	Columns []IngestColumn `json:"columns"`
}

// IngestRequest is the POST /api/v1/ingest body.
type IngestRequest struct {
	Tables []IngestTable `json:"tables"`
}

// SPARQLTerm is one RDF term in a SPARQL results-JSON binding. Type is
// "uri", "literal", "bnode", or "triple" (RDF-star quoted triple, with its
// Turtle-star rendering as Value). Datatype is empty for xsd:string.
type SPARQLTerm struct {
	Type     string `json:"type"`
	Value    string `json:"value"`
	Datatype string `json:"datatype,omitempty"`
}

// SPARQLHead carries the projected variable names.
type SPARQLHead struct {
	Vars []string `json:"vars"`
}

// SPARQLBindings carries the solution sequence; unbound variables are
// absent from their row's map, per the SPARQL 1.1 results spec.
type SPARQLBindings struct {
	Bindings []map[string]SPARQLTerm `json:"bindings"`
}

// SPARQLResult is an application/sparql-results+json document.
type SPARQLResult struct {
	Head    SPARQLHead     `json:"head"`
	Results SPARQLBindings `json:"results"`
}

// ErrorEnvelope is the uniform error body of every non-2xx response.
type ErrorEnvelope struct {
	Error string `json:"error"`
}

// APIError is a non-2xx server response surfaced as a Go error.
type APIError struct {
	// StatusCode is the HTTP status.
	StatusCode int
	// Message is the server's error envelope text.
	Message string
	// RequestID echoes the response's X-Request-ID for log correlation.
	RequestID string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("kglids api: %d %s", e.StatusCode, e.Message)
}
