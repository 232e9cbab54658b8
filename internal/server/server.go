// Package server is the HTTP serving layer of kglids-server: the KGLiDS
// Interfaces (paper Section 5) exposed as a JSON API over a concurrently
// shared platform.
//
// The API has two generations:
//
//   - /api/v1 is the versioned, resource-oriented surface with a stable
//     wire contract: dedicated DTOs (package kglids/client, which the
//     handlers marshal so client and server cannot drift), cursor/limit
//     pagination on every list endpoint, conditional GET via
//     ETag/If-None-Match bound to the store generation, and a SPARQL 1.1
//     protocol endpoint. New integrations use this surface through the
//     typed client in package kglids/client.
//
//   - The original unversioned routes (/search, /sparql, /ingest, ...)
//     are legacy: their wire format — internal structs marshaled as-is —
//     is frozen for byte compatibility and they answer with a
//     `Deprecation: true` header plus a `Link: rel="successor-version"`
//     pointing at their /api/v1 replacement. See legacy.go.
//
// Every request passes a middleware chain — request-ID stamping, optional
// access logging, gzip compression, a per-request deadline with panic
// isolation — so one slow SPARQL query cannot wedge a worker forever and
// one crashing handler cannot kill the process. Errors use a uniform
// envelope {"error": "..."} with a matching HTTP status.
//
// With Options.Ingest set, the handler additionally exposes the live
// mutation API — submit tables, poll jobs, delete tables — backed by the
// asynchronous job queue of internal/ingest. Mutations are accepted with
// 202 and applied by the manager's worker pool; discovery endpoints keep
// serving throughout and see each mutation the moment it lands.
//
// The handler is an http.Handler so it can be mounted, wrapped, and tested
// with httptest without starting a listener; cmd/kglids-server adds the
// process-level concerns (flags, snapshot load/save, graceful shutdown).
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"time"

	"kglids"
	"kglids/internal/dataframe"
	"kglids/internal/ingest"
)

// DefaultRequestTimeout bounds request handling when Options.RequestTimeout
// is zero.
const DefaultRequestTimeout = 30 * time.Second

// MaxIngestBody bounds a POST /ingest request body (64 MiB).
const MaxIngestBody = 64 << 20

// Parameter bounds shared by the legacy and v1 surfaces.
const (
	// MaxK caps top-k parameters; larger requests are clamped.
	MaxK = 1000
	// DefaultLimit is the page size when a list request names none.
	DefaultLimit = 100
	// MaxLimit caps the page size; larger requests are clamped.
	MaxLimit = 500
)

// Options configures the handler.
type Options struct {
	// RequestTimeout is the per-request deadline; requests exceeding it
	// receive 504 {"error": "request timed out"}. Zero means
	// DefaultRequestTimeout.
	RequestTimeout time.Duration
	// Ingest enables the mutation endpoints (POST /{api/v1/}ingest,
	// GET /jobs, GET /jobs/{id}, DELETE /tables/{id}); nil serves
	// read-only.
	Ingest *ingest.Manager
	// Logger receives the server's structured logs (panics, write
	// failures, and — with AccessLog — one line per request carrying
	// request_id, route, method, status, bytes, and duration). Nil means
	// slog.Default().
	Logger *slog.Logger
	// AccessLog enables the per-request structured access-log line.
	AccessLog bool
	// ReadOnly rejects every mutation (POST /ingest, DELETE /tables)
	// with 405 — the replica serving mode, where writes must go to the
	// primary. Read and job endpoints are unaffected.
	ReadOnly bool
	// Replica, when non-nil, reports the follower's replication state on
	// the health endpoints. Nil means this server is a primary.
	Replica ReplicaStatus
}

// ReplicaStatus is the replication state a follower exposes on /healthz:
// the store generation it has applied and how many seconds its newest
// applied record trails the primary. kglids.ReplicaTracker implements it.
type ReplicaStatus interface {
	ReplicaHealth() (appliedGeneration uint64, lagSeconds float64)
}

// errorEnvelope is the uniform error response body.
type errorEnvelope struct {
	Error string `json:"error"`
}

// server carries the shared state of all endpoint groups.
type server struct {
	plat     *kglids.Platform
	ingest   *ingest.Manager
	readOnly bool
	replica  ReplicaStatus
}

// New returns the kglids HTTP API over a shared platform: the versioned
// /api/v1 surface (see v1.go) plus the frozen legacy routes (see
// legacy.go), wrapped in the middleware chain.
func New(plat *kglids.Platform, opts Options) http.Handler {
	timeout := opts.RequestTimeout
	if timeout <= 0 {
		timeout = DefaultRequestTimeout
	}
	cfg := chain{
		logger:    opts.Logger,
		accessLog: opts.AccessLog,
	}
	if cfg.logger == nil {
		cfg.logger = slog.Default()
	}
	s := &server{plat: plat, ingest: opts.Ingest, readOnly: opts.ReadOnly, replica: opts.Replica}
	mux := http.NewServeMux()
	s.registerLegacy(mux)
	s.registerV1(mux)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeError(w, http.StatusNotFound, "unknown endpoint "+r.URL.Path)
	})

	var h http.Handler = withTimeout(cfg, timeout, mux)
	h = withGzip(cfg, h)
	h = withObservability(cfg, h)
	return h
}

// errReadOnly is the uniform rejection of mutations on a replica: the
// write exists on the API but this instance never accepts it, so 405
// (not 503 — retrying here will never succeed) points the client at the
// primary.
var errReadOnly = &httpError{status: http.StatusMethodNotAllowed,
	msg: "read-only replica; send mutations to the primary"}

// manager returns the ingest manager or the uniform 503 when live
// mutation is disabled.
func (s *server) manager() (*ingest.Manager, error) {
	if s.ingest == nil {
		return nil, &httpError{status: http.StatusServiceUnavailable,
			msg: "ingestion disabled; start the server with -ingest"}
	}
	return s.ingest, nil
}

// submitIngest decodes a POST /ingest body and submits it as an add job.
// Shared by the legacy and v1 handlers, which differ only in their
// response envelope.
func (s *server) submitIngest(r *http.Request) (int, error) {
	if s.readOnly {
		return 0, errReadOnly
	}
	m, err := s.manager()
	if err != nil {
		return 0, err
	}
	tables, err := decodeTables(r.Body)
	if err != nil {
		return 0, badRequest(err.Error())
	}
	jobID, err := m.Submit(tables)
	if err != nil {
		return 0, ingestError(err)
	}
	return jobID, nil
}

// submitRemoval validates a "dataset/table" ID and submits its removal
// job (shared by the legacy and v1 DELETE handlers).
func (s *server) submitRemoval(id string) (int, error) {
	if s.readOnly {
		return 0, errReadOnly
	}
	m, err := s.manager()
	if err != nil {
		return 0, err
	}
	if !s.plat.HasTable(id) {
		return 0, notFound(fmt.Sprintf("unknown table %q", id))
	}
	jobID, err := m.SubmitRemoval(id)
	if err != nil {
		return 0, ingestError(err)
	}
	return jobID, nil
}

// jobByID resolves a /jobs/{id} path value to a job snapshot (shared by
// the legacy and v1 job handlers).
func (s *server) jobByID(r *http.Request) (ingest.Job, error) {
	m, err := s.manager()
	if err != nil {
		return ingest.Job{}, err
	}
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		return ingest.Job{}, badRequest("job ID must be an integer")
	}
	job, ok := m.Job(id)
	if !ok {
		return ingest.Job{}, notFound(fmt.Sprintf("unknown job %d", id))
	}
	return job, nil
}

// ingestTable is the wire form of one submitted table (identical for the
// legacy and v1 ingest endpoints).
type ingestTable struct {
	Dataset string `json:"dataset"`
	Name    string `json:"name"`
	Columns []struct {
		Name   string `json:"name"`
		Values []any  `json:"values"`
	} `json:"columns"`
}

// decodeTables parses a POST /ingest body into platform tables. Column
// values may be JSON strings (parsed like CSV cells), numbers, booleans,
// or null.
func decodeTables(body io.Reader) ([]kglids.Table, error) {
	var req struct {
		Tables []ingestTable `json:"tables"`
	}
	dec := json.NewDecoder(io.LimitReader(body, MaxIngestBody))
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("invalid JSON body: %v", err)
	}
	if len(req.Tables) == 0 {
		return nil, fmt.Errorf("body needs a non-empty 'tables' array")
	}
	out := make([]kglids.Table, 0, len(req.Tables))
	// ingest.Manager.Submit checks the names, as every route in does.
	for _, t := range req.Tables {
		if len(t.Columns) == 0 {
			return nil, fmt.Errorf("table %q needs at least one column", t.Name)
		}
		df := dataframe.New(t.Name)
		for ci, col := range t.Columns {
			if col.Name == "" {
				return nil, fmt.Errorf("table %q column %d needs a name", t.Name, ci)
			}
			if df.HasColumn(col.Name) {
				return nil, fmt.Errorf("table %q has duplicate column %q", t.Name, col.Name)
			}
			if len(col.Values) != len(t.Columns[0].Values) {
				return nil, fmt.Errorf("table %q column %q has %d values, expected %d",
					t.Name, col.Name, len(col.Values), len(t.Columns[0].Values))
			}
			s := &dataframe.Series{Name: col.Name}
			for _, v := range col.Values {
				s.Cells = append(s.Cells, cellOf(v))
			}
			df.AddColumn(s)
		}
		out = append(out, kglids.Table{Dataset: t.Dataset, Frame: df})
	}
	return out, nil
}

// cellOf maps a decoded JSON value to a frame cell.
func cellOf(v any) dataframe.Cell {
	switch x := v.(type) {
	case nil:
		return dataframe.NullCell()
	case bool:
		return dataframe.BoolCell(x)
	case float64:
		return dataframe.NumberCell(x)
	case string:
		return dataframe.ParseCell(x)
	default:
		return dataframe.TextCell(fmt.Sprint(x))
	}
}

// ingestError maps manager submission failures to HTTP statuses: a full
// queue is back-pressure (429), a closed manager means shutdown (503).
func ingestError(err error) error {
	switch {
	case errors.Is(err, ingest.ErrQueueFull):
		return &httpError{status: http.StatusTooManyRequests, msg: err.Error()}
	case errors.Is(err, ingest.ErrClosed):
		return &httpError{status: http.StatusServiceUnavailable, msg: err.Error()}
	default:
		return badRequest(err.Error())
	}
}

// intParam reads a positive integer query parameter. An absent parameter
// yields def; a non-numeric or non-positive value is a 400 (no silent
// defaults); values above max are clamped.
func intParam(r *http.Request, name string, def, max int) (int, error) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return def, nil
	}
	v, err := strconv.Atoi(raw)
	if err != nil || v <= 0 {
		return 0, badRequest(fmt.Sprintf("parameter %q must be a positive integer (got %q)", name, raw))
	}
	if max > 0 && v > max {
		v = max
	}
	return v, nil
}

// httpError pairs a message with a status code.
type httpError struct {
	status int
	msg    string
}

func (e *httpError) Error() string { return e.msg }

func badRequest(msg string) error { return &httpError{status: http.StatusBadRequest, msg: msg} }
func notFound(msg string) error   { return &httpError{status: http.StatusNotFound, msg: msg} }

func statusFor(err error) int {
	if he, ok := err.(*httpError); ok {
		return he.status
	}
	return http.StatusInternalServerError
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	writeJSONAs(w, status, "application/json", v)
}

// writeJSONAs writes a JSON body under an explicit content type (the
// SPARQL protocol endpoint answers application/sparql-results+json).
func writeJSONAs(w http.ResponseWriter, status int, contentType string, v any) {
	w.Header().Set("Content-Type", contentType)
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		slog.Warn("server: encode response failed", "err", err)
	}
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, errorEnvelope{Error: msg})
}
