// Package connector is the lake-ingress subsystem of the KGLiDS
// reproduction: a registry of pluggable source connectors behind one
// streaming interface, so data enters the platform as bounded column
// chunks instead of fully materialized tables. Profiling a lake no longer
// requires it to fit in memory — peak usage is O(open readers × chunk)
// regardless of lake size (see internal/profiler's streaming path).
//
// A connector is registered under a URI scheme and opened by URI:
//
//	src, err := connector.Open("dir:///data/lake")
//	refs, err := src.Tables(ctx)
//	r, err := src.Open(ctx, refs[0])
//	for {
//		chunk, err := r.Next(ctx)
//		if err == io.EOF { break }
//		...
//	}
//
// First-party schemes:
//
//	dir://PATH        filesystem walker over CSV/TSV files
//	jsonl://PATH      filesystem walker over JSONL/NDJSON files
//	http(s)://URL     single remote CSV fetched with retry/backoff
//	lakegen://wide    deterministic generated lake (tests, benchmarks)
//
// The chunk contract: Next returns batches of typed cells in columnar
// layout until the table is exhausted, then (nil, io.EOF). Every column
// slice of a chunk has the same length. Next honors context cancellation
// between chunks, so a streaming ingest can be aborted mid-table. A
// TableRef carries a connector-reported content fingerprint (file
// size+mtime, HTTP validators, generator spec) that the ingest job
// manager uses to skip unchanged tables without opening them; zero means
// "unknown, never skip".
package connector

import (
	"context"
	"fmt"
	"net/url"
	"sort"
	"strings"
	"sync"

	"kglids/internal/dataframe"
)

// DefaultChunkRows is the chunk size connectors use when the opener did
// not override it: large enough to amortize per-chunk overhead, small
// enough that workers × chunk stays a rounding error next to a lake.
const DefaultChunkRows = 256

// TableRef identifies one table a source can stream.
type TableRef struct {
	// Dataset and Table form the platform table ID "dataset/table".
	Dataset string
	Table   string
	// Locator is the source-specific address of the table (file path,
	// URL, generator coordinate), for logs and errors.
	Locator string
}

// ID returns the platform table ID "dataset/table".
func (r TableRef) ID() string { return r.Dataset + "/" + r.Table }

// Chunk is one batch of rows in columnar layout: Cols[i] holds the cells
// of column i for the chunk's rows, aligned with TableReader.Columns().
// All column slices have equal length.
type Chunk struct {
	Cols [][]dataframe.Cell
}

// Rows returns the number of rows in the chunk.
func (c *Chunk) Rows() int {
	if len(c.Cols) == 0 {
		return 0
	}
	return len(c.Cols[0])
}

// TableReader streams one table as column chunks.
type TableReader interface {
	// Columns returns the column names, known from the moment the reader
	// is opened (the CSV header, the JSONL key union, the generator
	// schema) and fixed for the reader's lifetime.
	Columns() []string
	// Next returns the next chunk, or (nil, io.EOF) once the table is
	// exhausted. Next checks ctx between chunks and returns ctx.Err()
	// when the context is done. A non-EOF error is terminal.
	Next(ctx context.Context) (*Chunk, error)
	// Close releases the reader's resources. Safe after EOF and after
	// errors; required even if Next was never called.
	Close() error
}

// Source is one opened connector instance: it enumerates the tables the
// URI designates and opens them for streaming.
type Source interface {
	// Tables enumerates the source's tables in deterministic order.
	Tables(ctx context.Context) ([]TableRef, error)
	// Open starts streaming one enumerated table.
	Open(ctx context.Context, ref TableRef) (TableReader, error)
}

// Options tunes how a source streams. The zero value selects defaults.
type Options struct {
	// ChunkRows is the number of rows per chunk (DefaultChunkRows if 0).
	ChunkRows int
}

func (o Options) chunkRows() int {
	if o.ChunkRows > 0 {
		return o.ChunkRows
	}
	return DefaultChunkRows
}

// URI is a parsed connector locator: scheme://opaque?query.
type URI struct {
	Raw    string
	Scheme string
	// Opaque is everything between "scheme://" and the query: a
	// filesystem path for dir/jsonl, the generator name for lakegen, the
	// full host+path for http(s).
	Opaque string
	Query  url.Values
}

// ParseURI splits a connector locator without the normalization
// url.Parse applies to hierarchical URLs (a dir://relative/path must
// keep "relative" as path, not host).
func ParseURI(raw string) (*URI, error) {
	i := strings.Index(raw, "://")
	if i <= 0 {
		return nil, fmt.Errorf("connector: %q has no scheme (want scheme://...)", raw)
	}
	u := &URI{Raw: raw, Scheme: strings.ToLower(raw[:i]), Opaque: raw[i+3:]}
	if j := strings.IndexByte(u.Opaque, '?'); j >= 0 {
		q, err := url.ParseQuery(u.Opaque[j+1:])
		if err != nil {
			return nil, fmt.Errorf("connector: %q: bad query: %w", raw, err)
		}
		u.Query = q
		u.Opaque = u.Opaque[:j]
	} else {
		u.Query = url.Values{}
	}
	return u, nil
}

// Opener constructs a Source for a parsed URI.
type Opener func(u *URI, opts Options) (Source, error)

// Registry maps URI schemes to connector openers.
type Registry struct {
	mu      sync.RWMutex
	openers map[string]Opener
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{openers: map[string]Opener{}}
}

// Register binds a scheme to an opener. Registering a scheme twice
// panics: connectors are wired once, at init time, and a silent override
// would make ingestion behavior depend on package-init order.
func (r *Registry) Register(scheme string, o Opener) {
	scheme = strings.ToLower(scheme)
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.openers[scheme]; dup {
		panic(fmt.Sprintf("connector: scheme %q registered twice", scheme))
	}
	r.openers[scheme] = o
}

// Schemes returns the registered schemes, sorted.
func (r *Registry) Schemes() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.openers))
	for s := range r.openers {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// Open parses the URI and dispatches to the registered opener.
func (r *Registry) Open(uri string, opts Options) (Source, error) {
	u, err := ParseURI(uri)
	if err != nil {
		return nil, err
	}
	r.mu.RLock()
	o := r.openers[u.Scheme]
	r.mu.RUnlock()
	if o == nil {
		mErrors.WithLabelValues(u.Scheme, "open").Inc()
		return nil, fmt.Errorf("connector: no connector registered for scheme %q (have %s)",
			u.Scheme, strings.Join(r.Schemes(), ", "))
	}
	src, err := o(u, opts)
	if err != nil {
		mErrors.WithLabelValues(u.Scheme, "open").Inc()
		return nil, err
	}
	return src, nil
}

// Default is the process-wide registry the first-party connectors
// register into at init time.
var Default = NewRegistry()

// Open opens a URI against the default registry with default options.
func Open(uri string) (Source, error) { return Default.Open(uri, Options{}) }

// OpenWith opens a URI against the default registry with explicit
// options.
func OpenWith(uri string, opts Options) (Source, error) { return Default.Open(uri, opts) }
