package client

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"
)

// MaxResponseBody bounds how much of a response the client will read
// (64 MiB), protecting callers from a misbehaving server.
const MaxResponseBody = 64 << 20

// ErrResponseTooLarge reports a response body, compressed or not, longer
// than MaxResponseBody. The body is not truncated to fit: a changelog page
// too large for the limit fails with this error, and a smaller page limit
// fetches it.
var ErrResponseTooLarge = fmt.Errorf("client: response body exceeds MaxResponseBody (%d bytes)", MaxResponseBody)

// defaultRetries is how many times a 429 (ingest queue full) is retried
// with exponential backoff before being surfaced as an *APIError.
const defaultRetries = 3

// etagCacheLimit bounds the conditional-GET body cache.
const etagCacheLimit = 256

// Client is a typed client for the kglids-server /api/v1 surface. It is
// safe for concurrent use.
//
// GET responses carrying an ETag (the server's store generation) are
// cached; subsequent identical requests send If-None-Match and decode the
// cached body when the server answers 304 — repeated polling of an
// unchanged server costs headers, not payloads. Mutations rejected with
// 429 (bounded ingest queue) are retried with exponential backoff.
type Client struct {
	base    *url.URL
	hc      *http.Client
	retries int
	backoff time.Duration

	mu    sync.Mutex
	etags map[string]etagEntry
}

type etagEntry struct {
	etag string
	body []byte
}

// Option customizes a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (timeouts,
// transports, test doubles).
func WithHTTPClient(hc *http.Client) Option { return func(c *Client) { c.hc = hc } }

// WithRetries sets how many times 429 responses are retried (0 disables).
func WithRetries(n int) Option { return func(c *Client) { c.retries = n } }

// WithBackoff sets the base backoff between 429 retries (doubled each
// attempt; a Retry-After header overrides it).
func WithBackoff(d time.Duration) Option { return func(c *Client) { c.backoff = d } }

// New returns a client for a server base URL such as "http://host:8080".
func New(baseURL string, opts ...Option) (*Client, error) {
	u, err := url.Parse(baseURL)
	if err != nil {
		return nil, fmt.Errorf("client: parse base URL: %w", err)
	}
	if u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("client: base URL %q needs a scheme and host", baseURL)
	}
	u.Path = strings.TrimSuffix(u.Path, "/")
	c := &Client{
		base:    u,
		hc:      http.DefaultClient,
		retries: defaultRetries,
		backoff: 250 * time.Millisecond,
		etags:   map[string]etagEntry{},
	}
	for _, o := range opts {
		o(c)
	}
	return c, nil
}

// Health checks liveness.
func (c *Client) Health(ctx context.Context) (Health, error) {
	var out Health
	err := c.get(ctx, "/api/v1/healthz", nil, &out)
	return out, err
}

// Stats fetches graph statistics.
func (c *Client) Stats(ctx context.Context) (Stats, error) {
	var out Stats
	err := c.get(ctx, "/api/v1/stats", nil, &out)
	return out, err
}

// Tables lists one page of served tables.
func (c *Client) Tables(ctx context.Context, p PageOpts) (Page[TableInfo], error) {
	var out Page[TableInfo]
	err := c.get(ctx, "/api/v1/tables", pageQuery(nil, p), &out)
	return out, err
}

// AllTables walks the pagination cursor to return every served table.
func (c *Client) AllTables(ctx context.Context) ([]TableInfo, error) {
	return walk(ctx, func(ctx context.Context, p PageOpts) (Page[TableInfo], error) {
		return c.Tables(ctx, p)
	})
}

// Search finds tables matching keywords (comma-separated keywords are
// AND'd, mirroring search_keywords with one conjunction).
func (c *Client) Search(ctx context.Context, q string, p PageOpts) (Page[TableHit], error) {
	var out Page[TableHit]
	err := c.get(ctx, "/api/v1/search", pageQuery(url.Values{"q": {q}}, p), &out)
	return out, err
}

// SearchAll walks the cursor to return every hit for q.
func (c *Client) SearchAll(ctx context.Context, q string) ([]TableHit, error) {
	return walk(ctx, func(ctx context.Context, p PageOpts) (Page[TableHit], error) {
		return c.Search(ctx, q, p)
	})
}

// Unionable returns the top-k tables unionable with a "dataset/table" ID.
func (c *Client) Unionable(ctx context.Context, tableID string, k int, p PageOpts) (Page[TableHit], error) {
	var out Page[TableHit]
	err := c.get(ctx, "/api/v1/unionable", pageQuery(kQuery(tableID, k), p), &out)
	return out, err
}

// Similar returns the top-k tables most similar to a "dataset/table" ID
// by embedding cosine (HNSW index).
func (c *Client) Similar(ctx context.Context, tableID string, k int, p PageOpts) (Page[TableHit], error) {
	var out Page[TableHit]
	err := c.get(ctx, "/api/v1/similar", pageQuery(kQuery(tableID, k), p), &out)
	return out, err
}

// Libraries returns the k most-used libraries across pipelines.
func (c *Client) Libraries(ctx context.Context, k int, p PageOpts) (Page[Library], error) {
	q := url.Values{}
	if k > 0 {
		q.Set("k", strconv.Itoa(k))
	}
	var out Page[Library]
	err := c.get(ctx, "/api/v1/libraries", pageQuery(q, p), &out)
	return out, err
}

// SPARQL executes a SPARQL SELECT via the 1.1 protocol (POST with an
// application/sparql-query body) and returns the results-JSON document.
func (c *Client) SPARQL(ctx context.Context, query string) (*SPARQLResult, error) {
	var out SPARQLResult
	err := c.do(ctx, http.MethodPost, "/api/v1/sparql", nil,
		[]byte(query), "application/sparql-query", &out)
	if err != nil {
		return nil, err
	}
	return &out, nil
}

// Changelog fetches one page of the primary's mutation changelog starting
// after cursor (0 = from the compaction floor). limit bounds the page
// size; 0 means the server default. A cursor below the compaction floor
// or beyond the head fails with ErrCursorGone: the follower must re-seed
// from a fresh snapshot.
func (c *Client) Changelog(ctx context.Context, cursor uint64, limit int) (ChangelogPage, error) {
	q := url.Values{"cursor": {strconv.FormatUint(cursor, 10)}}
	if limit > 0 {
		q.Set("limit", strconv.Itoa(limit))
	}
	var out ChangelogPage
	err := c.get(ctx, "/api/v1/changelog", q, &out)
	if ae, ok := AsAPIError(err); ok && ae.StatusCode == http.StatusGone {
		return out, fmt.Errorf("%w: %s", ErrCursorGone, ae.Message)
	}
	return out, err
}

// Snapshot streams the server's current platform snapshot (the raw binary
// format of internal/snapshot). The caller must Close the reader. Unlike
// JSON endpoints, the body is not bounded by MaxResponseBody — snapshots
// of large lakes legitimately exceed it.
func (c *Client) Snapshot(ctx context.Context) (io.ReadCloser, error) {
	target, err := c.base.Parse(c.base.Path + "/api/v1/snapshot")
	if err != nil {
		return nil, fmt.Errorf("client: build snapshot URL: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, target.String(), nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode < 200 || resp.StatusCode >= 300 {
		payload, _ := readBody(resp) // the status is the error; a body only adds its message
		resp.Body.Close()
		return nil, apiError(resp, payload)
	}
	return resp.Body, nil
}

// Ingest submits tables as one asynchronous add job; the returned JobRef
// can be polled with Job or awaited with WaitJob. Queue-full rejections
// are retried with backoff before surfacing as an *APIError with status
// 429.
func (c *Client) Ingest(ctx context.Context, tables []IngestTable) (JobRef, error) {
	body, err := json.Marshal(IngestRequest{Tables: tables})
	if err != nil {
		return JobRef{}, err
	}
	var out JobRef
	err = c.do(ctx, http.MethodPost, "/api/v1/ingest", nil, body, "application/json", &out)
	return out, err
}

// DeleteTable submits an asynchronous removal of a "dataset/table" ID.
// The ID's segments are percent-escaped, so names with slashes, spaces,
// or percent signs round-trip.
func (c *Client) DeleteTable(ctx context.Context, tableID string) (JobRef, error) {
	var out JobRef
	err := c.do(ctx, http.MethodDelete, "/api/v1/tables/"+escapeID(tableID), nil, nil, "", &out)
	return out, err
}

// Job fetches one job's current state.
func (c *Client) Job(ctx context.Context, id int) (Job, error) {
	var out Job
	err := c.get(ctx, "/api/v1/jobs/"+strconv.Itoa(id), nil, &out)
	return out, err
}

// Jobs lists one page of the job history (submission order).
func (c *Client) Jobs(ctx context.Context, p PageOpts) (Page[Job], error) {
	var out Page[Job]
	err := c.get(ctx, "/api/v1/jobs", pageQuery(nil, p), &out)
	return out, err
}

// WaitJob polls a job until it reaches a terminal state (done or failed)
// or ctx expires. poll <= 0 defaults to 100ms.
func (c *Client) WaitJob(ctx context.Context, id int, poll time.Duration) (Job, error) {
	if poll <= 0 {
		poll = 100 * time.Millisecond
	}
	for {
		j, err := c.Job(ctx, id)
		if err != nil {
			return Job{}, err
		}
		if j.Terminal() {
			return j, nil
		}
		select {
		case <-ctx.Done():
			return j, ctx.Err()
		case <-time.After(poll):
		}
	}
}

// walk accumulates every page of a list endpoint.
func walk[T any](ctx context.Context, fetch func(context.Context, PageOpts) (Page[T], error)) ([]T, error) {
	var out []T
	p := PageOpts{}
	for {
		page, err := fetch(ctx, p)
		if err != nil {
			return nil, err
		}
		out = append(out, page.Items...)
		if page.NextCursor == "" {
			return out, nil
		}
		p.Cursor = page.NextCursor
	}
}

func kQuery(tableID string, k int) url.Values {
	q := url.Values{"table": {tableID}}
	if k > 0 {
		q.Set("k", strconv.Itoa(k))
	}
	return q
}

func pageQuery(q url.Values, p PageOpts) url.Values {
	if q == nil {
		q = url.Values{}
	}
	if p.Cursor != "" {
		q.Set("cursor", p.Cursor)
	}
	if p.Limit > 0 {
		q.Set("limit", strconv.Itoa(p.Limit))
	}
	return q
}

// escapeID percent-escapes each segment of a "dataset/table" ID for use
// in a URL path, preserving the slashes between segments.
func escapeID(id string) string {
	segs := strings.Split(id, "/")
	for i, s := range segs {
		segs[i] = url.PathEscape(s)
	}
	return strings.Join(segs, "/")
}

// get issues a conditional GET: cached ETags ride along as If-None-Match
// and a 304 decodes the cached body.
func (c *Client) get(ctx context.Context, path string, q url.Values, out any) error {
	return c.do(ctx, http.MethodGet, path, q, nil, "", out)
}

// do is the transport core: URL assembly, conditional GET, bounded 429
// retry, error-envelope decoding.
func (c *Client) do(ctx context.Context, method, path string, q url.Values, body []byte, contentType string, out any) error {
	// base.Parse keeps percent-escaping intact (RawPath), so escaped IDs
	// survive the round-trip.
	target, err := c.base.Parse(c.base.Path + path)
	if err != nil {
		return fmt.Errorf("client: build URL for %s: %w", path, err)
	}
	if len(q) > 0 {
		target.RawQuery = q.Encode()
	}
	urlKey := target.String()

	for attempt := 0; ; attempt++ {
		var reqBody io.Reader
		if body != nil {
			reqBody = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, urlKey, reqBody)
		if err != nil {
			return err
		}
		if contentType != "" {
			req.Header.Set("Content-Type", contentType)
		}
		// Asked for explicitly, gzip is not undone by the transport, and
		// readBody learns the body's size from the gzip trailer.
		req.Header.Set("Accept-Encoding", "gzip")
		var cached etagEntry
		if method == http.MethodGet {
			c.mu.Lock()
			cached = c.etags[urlKey]
			c.mu.Unlock()
			if cached.etag != "" {
				req.Header.Set("If-None-Match", cached.etag)
			}
		}

		resp, err := c.hc.Do(req)
		if err != nil {
			return err
		}
		payload, err := readBody(resp)
		resp.Body.Close()
		if err != nil {
			return fmt.Errorf("client: read %s %s response: %w", method, path, err)
		}

		switch {
		case resp.StatusCode == http.StatusNotModified && cached.etag != "":
			payload = cached.body
		case resp.StatusCode >= 200 && resp.StatusCode < 300:
			if method == http.MethodGet {
				if etag := resp.Header.Get("ETag"); etag != "" {
					c.storeETag(urlKey, etag, payload)
				}
			}
		case resp.StatusCode == http.StatusTooManyRequests && attempt < c.retries:
			if err := sleepBackoff(ctx, retryDelay(resp, c.backoff, attempt)); err != nil {
				return err
			}
			continue
		default:
			return apiError(resp, payload)
		}

		if out == nil {
			return nil
		}
		if err := json.Unmarshal(payload, out); err != nil {
			return fmt.Errorf("client: decode %s %s response: %w", method, path, err)
		}
		return nil
	}
}

// gzipReaders recycles decompressors across responses.
var gzipReaders sync.Pool

// readBody reads a whole response body, decompressing a gzip one, into a
// buffer of the body's final size: the Content-Length of an identity body,
// or the length a gzip body's trailer records. (io.ReadAll grows its
// buffer by a quarter at a time and allocates a large body about five
// times over.) A body longer than MaxResponseBody fails with
// ErrResponseTooLarge.
func readBody(resp *http.Response) ([]byte, error) {
	raw, err := readAtMost(resp.Body, resp.ContentLength)
	if err != nil || len(raw) == 0 || resp.Header.Get("Content-Encoding") != "gzip" {
		return raw, err
	}
	zr, _ := gzipReaders.Get().(*gzip.Reader)
	if zr == nil {
		zr, err = gzip.NewReader(bytes.NewReader(raw))
	} else {
		err = zr.Reset(bytes.NewReader(raw))
	}
	if err != nil {
		return nil, fmt.Errorf("gunzip: %w", err)
	}
	defer gzipReaders.Put(zr)
	// ISIZE, the last four bytes, is the uncompressed length modulo 2^32
	// of the last gzip member; readAtMost treats it only as a hint.
	size := int64(-1)
	if len(raw) >= 4 {
		size = int64(binary.LittleEndian.Uint32(raw[len(raw)-4:]))
	}
	body, err := readAtMost(zr, size)
	if err != nil && !errors.Is(err, ErrResponseTooLarge) {
		err = fmt.Errorf("gunzip: %w", err)
	}
	return body, err
}

// readAtMost reads r to EOF into a buffer of capacity size+1 when size is
// known (the extra byte lets the final read see EOF without growing),
// doubling it when r turns out longer. It reads at most one byte past
// MaxResponseBody, so an oversize body fails with ErrResponseTooLarge
// rather than being silently truncated.
func readAtMost(r io.Reader, size int64) ([]byte, error) {
	const limit = MaxResponseBody + 1
	if size > MaxResponseBody {
		return nil, ErrResponseTooLarge
	}
	c := 512
	if size >= 0 {
		c = int(size) + 1
	}
	buf := make([]byte, 0, c)
	r = io.LimitReader(r, limit)
	for {
		if len(buf) == cap(buf) {
			buf = append(make([]byte, 0, min(2*cap(buf), limit)), buf...)
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		switch {
		case len(buf) > MaxResponseBody:
			return nil, ErrResponseTooLarge
		case err == io.EOF:
			return buf, nil
		case err != nil:
			return nil, err
		}
	}
}

func (c *Client) storeETag(urlKey, etag string, body []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.etags) >= etagCacheLimit {
		// Evict an arbitrary entry; the cache is an optimization, not a
		// correctness surface.
		for k := range c.etags {
			delete(c.etags, k)
			break
		}
	}
	c.etags[urlKey] = etagEntry{etag: etag, body: body}
}

// retryDelay honors Retry-After seconds when present, else doubles the
// base backoff per attempt.
func retryDelay(resp *http.Response, base time.Duration, attempt int) time.Duration {
	if s := resp.Header.Get("Retry-After"); s != "" {
		if secs, err := strconv.Atoi(s); err == nil && secs >= 0 {
			return time.Duration(secs) * time.Second
		}
	}
	return base << attempt
}

func sleepBackoff(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

func apiError(resp *http.Response, payload []byte) error {
	var env ErrorEnvelope
	msg := strings.TrimSpace(string(payload))
	if err := json.Unmarshal(payload, &env); err == nil && env.Error != "" {
		msg = env.Error
	}
	return &APIError{
		StatusCode: resp.StatusCode,
		Message:    msg,
		RequestID:  resp.Header.Get("X-Request-ID"),
	}
}

// AsAPIError unwraps an *APIError from err, if present.
func AsAPIError(err error) (*APIError, bool) {
	var ae *APIError
	if errors.As(err, &ae) {
		return ae, true
	}
	return nil, false
}
