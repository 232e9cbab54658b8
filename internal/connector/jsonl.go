package connector

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"kglids/internal/dataframe"
)

// jsonlSource walks a directory for JSONL/NDJSON files (one flat JSON
// object per line). Unlike CSV, a JSONL table's schema is not declared up
// front — the column set is the union of keys across all records — so
// opening a table makes two passes over the file: pass one scans for
// keys (bounded memory: only the key set is held), pass two streams
// chunks. Column order is first-seen across records, keys sorted within
// a record.
type jsonlSource struct {
	root string
	opts Options
}

func init() {
	Default.Register("jsonl", func(u *URI, opts Options) (Source, error) {
		root := u.Opaque
		if root == "" {
			return nil, fmt.Errorf("connector: jsonl:// needs a path (jsonl:///data/lake)")
		}
		info, err := os.Stat(root)
		if err != nil {
			return nil, fmt.Errorf("connector: jsonl://%s: %w", root, err)
		}
		if !info.IsDir() {
			return nil, fmt.Errorf("connector: jsonl://%s: not a directory", root)
		}
		return &jsonlSource{root: root, opts: opts}, nil
	})
}

func (s *jsonlSource) Tables(ctx context.Context) ([]TableRef, error) {
	var refs []TableRef
	err := filepath.Walk(s.root, func(path string, info os.FileInfo, err error) error {
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		if err != nil || info.IsDir() {
			return err
		}
		switch strings.ToLower(filepath.Ext(path)) {
		case ".jsonl", ".ndjson":
		default:
			return nil
		}
		refs = append(refs, TableRef{
			Dataset: filepath.Base(filepath.Dir(path)),
			Table:   filepath.Base(path),
			Locator: path,
		})
		return nil
	})
	if err != nil {
		mErrors.WithLabelValues("jsonl", "open").Inc()
		return nil, err
	}
	return refs, nil
}

// maxJSONLLine bounds one record; a line beyond this is a terminal read
// error rather than an unbounded allocation.
const maxJSONLLine = 16 << 20

func (s *jsonlSource) Open(ctx context.Context, ref TableRef) (TableReader, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cols, err := scanJSONLColumns(ctx, ref.Locator)
	if err != nil {
		mErrors.WithLabelValues("jsonl", "open").Inc()
		return nil, err
	}
	f, err := os.Open(ref.Locator)
	if err != nil {
		mErrors.WithLabelValues("jsonl", "open").Inc()
		return nil, err
	}
	sc := bufio.NewScanner(&countingReader{r: f, scheme: "jsonl"})
	sc.Buffer(make([]byte, 64<<10), maxJSONLLine)
	mTables.WithLabelValues("jsonl").Inc()
	return &jsonlReader{
		f: f, sc: sc, cols: cols, chunkRows: s.opts.chunkRows(), locator: ref.Locator,
	}, nil
}

// scanJSONLColumns is pass one: the union of object keys, first-seen
// order across records with keys sorted within each record. Malformed
// lines are ignored here; pass two counts them as skipped.
func scanJSONLColumns(ctx context.Context, path string) ([]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), maxJSONLLine)
	var order []string
	seen := map[string]bool{}
	line := 0
	for sc.Scan() {
		line++
		if line%1024 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		b := sc.Bytes()
		if len(strings.TrimSpace(string(b))) == 0 {
			continue
		}
		var rec map[string]json.RawMessage
		if err := json.Unmarshal(b, &rec); err != nil {
			continue
		}
		keys := make([]string, 0, len(rec))
		for k := range rec {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if !seen[k] {
				seen[k] = true
				order = append(order, k)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("connector: %s: %w", path, err)
	}
	if len(order) == 0 {
		return nil, fmt.Errorf("connector: %s: no JSON objects", path)
	}
	return order, nil
}

type jsonlReader struct {
	f         *os.File
	sc        *bufio.Scanner
	cols      []string
	chunkRows int
	locator   string
	skipped   uint64
	done      bool
}

func (r *jsonlReader) Columns() []string { return r.cols }

func (r *jsonlReader) Next(ctx context.Context) (*Chunk, error) {
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
		if !r.sc.Scan() {
			if err := r.sc.Err(); err != nil {
				mErrors.WithLabelValues("jsonl", "read").Inc()
				return nil, fmt.Errorf("connector: %s: %w", r.locator, err)
			}
			r.done = true
			break
		}
		b := r.sc.Bytes()
		if len(strings.TrimSpace(string(b))) == 0 {
			continue
		}
		var rec map[string]any
		if err := json.Unmarshal(b, &rec); err != nil {
			r.skipped++
			mRowsSkipped.WithLabelValues("jsonl").Inc()
			continue
		}
		for i, name := range r.cols {
			cols[i] = append(cols[i], jsonCell(rec[name]))
		}
		n++
	}
	if n == 0 {
		return nil, io.EOF
	}
	mChunks.WithLabelValues("jsonl").Inc()
	mRows.WithLabelValues("jsonl").Add(uint64(n))
	return &Chunk{Cols: cols}, nil
}

// jsonCell converts one decoded JSON value into a cell: numbers and
// booleans keep their kind, strings are parsed like CSV fields, and
// nested values are kept as their JSON text.
func jsonCell(v any) dataframe.Cell {
	switch x := v.(type) {
	case nil:
		return dataframe.NullCell()
	case float64:
		return dataframe.NumberCell(x)
	case bool:
		return dataframe.BoolCell(x)
	case string:
		return dataframe.ParseCell(x)
	default:
		b, _ := json.Marshal(x)
		return dataframe.TextCell(string(b))
	}
}

func (r *jsonlReader) Close() error {
	if r.f == nil {
		return nil
	}
	err := r.f.Close()
	r.f = nil
	return err
}
