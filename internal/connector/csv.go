package connector

import (
	"bufio"
	"context"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"strings"

	"kglids/internal/dataframe"
)

// csvChunkReader streams one CSV/TSV byte stream as column chunks. It is
// the shared engine of the dir and http connectors, hardened for lake
// reality: quoted fields with embedded delimiters and newlines
// (encoding/csv), a UTF-8 BOM before the header, stray quotes inside
// unquoted fields (LazyQuotes), and ragged rows — a record whose field
// count differs from the header is skipped and counted, never padded and
// never a panic. Header normalization (trim, empty → col_N, duplicate →
// name_N) matches dataframe.ReadCSV so a table streamed through a
// connector profiles under the same column names as one materialized by
// the in-memory path.
type csvChunkReader struct {
	scheme    string
	rc        io.Closer
	cr        *csv.Reader
	cols      []string
	chunkRows int
	skipped   uint64
	done      bool
}

// countingReader counts raw source bytes into the per-scheme metric as
// they are consumed.
type countingReader struct {
	r      io.Reader
	scheme string
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	if n > 0 {
		mBytesRead.WithLabelValues(c.scheme).Add(uint64(n))
	}
	return n, err
}

// utf8BOM is the byte-order mark some exporters prepend to CSV files.
var utf8BOM = []byte{0xEF, 0xBB, 0xBF}

// newCSVChunkReader wraps a raw byte stream. comma selects the delimiter
// (',' for CSV, '\t' for TSV). The header row is consumed immediately;
// an empty stream is an open error, not a reader that EOFs on the first
// Next.
func newCSVChunkReader(scheme, name string, rc io.ReadCloser, comma rune, chunkRows int) (*csvChunkReader, error) {
	br := bufio.NewReader(&countingReader{r: rc, scheme: scheme})
	if head, err := br.Peek(len(utf8BOM)); err == nil && string(head) == string(utf8BOM) {
		br.Discard(len(utf8BOM))
	}
	cr := csv.NewReader(br)
	cr.Comma = comma
	cr.FieldsPerRecord = -1
	cr.LazyQuotes = true
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		rc.Close()
		return nil, fmt.Errorf("connector: %s: reading header: %w", name, err)
	}
	cols := make([]string, 0, len(header))
	seen := map[string]bool{}
	for i, h := range header {
		h = strings.TrimSpace(h)
		if h == "" {
			h = fmt.Sprintf("col_%d", i)
		}
		base, n := h, 1
		for seen[h] {
			n++
			h = fmt.Sprintf("%s_%d", base, n)
		}
		seen[h] = true
		cols = append(cols, h)
	}
	mTables.WithLabelValues(scheme).Inc()
	return &csvChunkReader{scheme: scheme, rc: rc, cr: cr, cols: cols, chunkRows: chunkRows}, nil
}

func (r *csvChunkReader) Columns() []string { return r.cols }

func (r *csvChunkReader) Next(ctx context.Context) (*Chunk, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if r.done {
		return nil, io.EOF
	}
	cols := make([][]dataframe.Cell, len(r.cols))
	for i := range cols {
		cols[i] = make([]dataframe.Cell, 0, r.chunkRows)
	}
	n := 0
	for n < r.chunkRows {
		rec, err := r.cr.Read()
		if err == io.EOF {
			r.done = true
			break
		}
		if err != nil {
			// encoding/csv resumes at the next record after a ParseError,
			// so a malformed record costs one skipped row, not the table.
			var pe *csv.ParseError
			if errors.As(err, &pe) {
				r.skip()
				continue
			}
			mErrors.WithLabelValues(r.scheme, "read").Inc()
			return nil, err
		}
		if len(rec) != len(r.cols) {
			r.skip()
			continue
		}
		for i := range r.cols {
			cols[i] = append(cols[i], dataframe.ParseCell(rec[i]))
		}
		n++
	}
	if n == 0 {
		return nil, io.EOF
	}
	mChunks.WithLabelValues(r.scheme).Inc()
	mRows.WithLabelValues(r.scheme).Add(uint64(n))
	return &Chunk{Cols: cols}, nil
}

func (r *csvChunkReader) skip() {
	r.skipped++
	mRowsSkipped.WithLabelValues(r.scheme).Inc()
}

func (r *csvChunkReader) Close() error {
	if r.rc == nil {
		return nil
	}
	err := r.rc.Close()
	r.rc = nil
	return err
}
