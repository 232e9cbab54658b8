package connector

import (
	"context"
	"fmt"
	"net/http"
	"path"
	"strings"
	"time"
)

// httpSource streams one remote CSV/TSV over HTTP(S) — a single-table
// source (the URI names one file, not a listing). Transient failures
// (transport errors, 5xx, 429) are retried with exponential backoff; 4xx
// other than 429 fail immediately. Enumeration sends no request: the one
// table is named from the URI.
type httpSource struct {
	scheme string // "http" or "https"
	rawURL string
	opts   Options
}

// httpClient bounds how long one response can take end to end. The
// timeout covers the whole body read, which is what a streaming reader
// actually consumes — a stalled lake download should fail, not hang an
// ingest worker forever.
var httpClient = &http.Client{Timeout: 5 * time.Minute}

func init() {
	for _, scheme := range []string{"http", "https"} {
		scheme := scheme
		Default.Register(scheme, func(u *URI, opts Options) (Source, error) {
			if u.Opaque == "" {
				return nil, fmt.Errorf("connector: %s:// needs a host and path", scheme)
			}
			return &httpSource{scheme: scheme, rawURL: u.Raw, opts: opts}, nil
		})
	}
}

// httpRetries is the http connector's retry budget per request, after the
// first attempt, and httpBackoff the wait before the first retry, doubled
// per attempt. Tests shrink the backoff.
var (
	httpRetries = 3
	httpBackoff = 250 * time.Millisecond
)

// retryable reports whether a response status is worth another attempt.
func retryable(status int) bool {
	return status >= 500 || status == http.StatusTooManyRequests
}

// getWithRetry issues the GET, retrying transport errors and
// retryable statuses with exponential backoff. The caller owns the
// returned response body.
func (s *httpSource) getWithRetry(ctx context.Context) (*http.Response, error) {
	var lastErr error
	delay := httpBackoff
	for attempt := 0; attempt <= httpRetries; attempt++ {
		if attempt > 0 {
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(delay):
			}
			delay *= 2
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.rawURL, nil)
		if err != nil {
			return nil, err
		}
		resp, err := httpClient.Do(req)
		if err != nil {
			lastErr = err
			continue
		}
		if resp.StatusCode == http.StatusOK {
			return resp, nil
		}
		resp.Body.Close()
		lastErr = fmt.Errorf("connector: GET %s: %s", s.rawURL, resp.Status)
		if !retryable(resp.StatusCode) {
			return nil, lastErr
		}
	}
	return nil, fmt.Errorf("connector: giving up after %d attempts: %w", httpRetries+1, lastErr)
}

func (s *httpSource) Tables(ctx context.Context) ([]TableRef, error) {
	// Dataset = host, table = last path segment: http://data.org/x/trips.csv
	// lands as table "data.org/trips.csv".
	host, rest := u2hostpath(s.rawURL)
	table := path.Base(rest)
	if table == "." || table == "/" || table == "" {
		table = "table.csv"
	}
	return []TableRef{{Dataset: host, Table: table, Locator: s.rawURL}}, nil
}

func (s *httpSource) Open(ctx context.Context, ref TableRef) (TableReader, error) {
	resp, err := s.getWithRetry(ctx)
	if err != nil {
		mErrors.WithLabelValues(s.scheme, "open").Inc()
		return nil, err
	}
	comma := ','
	if strings.HasSuffix(strings.ToLower(ref.Table), ".tsv") {
		comma = '\t'
	}
	r, err := newCSVChunkReader(s.scheme, s.rawURL, resp.Body, comma, s.opts.chunkRows())
	if err != nil {
		mErrors.WithLabelValues(s.scheme, "open").Inc()
		return nil, err
	}
	return r, nil
}

// u2hostpath splits "scheme://host/path" into host and path without
// url.Parse normalization surprises.
func u2hostpath(raw string) (host, rest string) {
	s := raw
	if i := strings.Index(s, "://"); i >= 0 {
		s = s[i+3:]
	}
	if i := strings.IndexByte(s, '?'); i >= 0 {
		s = s[:i]
	}
	if i := strings.IndexByte(s, '/'); i >= 0 {
		return s[:i], s[i:]
	}
	return s, "/"
}
