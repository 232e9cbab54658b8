package connector

import (
	"context"
	"fmt"
	"io"
	"strconv"

	"kglids/internal/dataframe"
	"kglids/internal/lakegen"
)

// lakegenSource streams a deterministically generated lake — the test
// and benchmark connector. Nothing is materialized: cells are generated
// chunk by chunk from per-table seeds, so the "lake" can be made
// arbitrarily larger than memory at zero disk cost. The same URI always
// yields the same data.
//
//	lakegen://wide?tables=40&cols=8&rows=5000&seed=7
type lakegenSource struct {
	spec lakegen.WideStream
	raw  string
	opts Options
}

func init() {
	Default.Register("lakegen", func(u *URI, opts Options) (Source, error) {
		if u.Opaque != "wide" {
			return nil, fmt.Errorf("connector: unknown lakegen generator %q (want lakegen://wide)", u.Opaque)
		}
		spec := lakegen.WideStream{Tables: 20, Cols: 6, Rows: 1000, Seed: 1}
		var err error
		if spec.Tables, err = queryInt(u, "tables", spec.Tables); err != nil {
			return nil, err
		}
		if spec.Cols, err = queryInt(u, "cols", spec.Cols); err != nil {
			return nil, err
		}
		if spec.Rows, err = queryInt(u, "rows", spec.Rows); err != nil {
			return nil, err
		}
		seed, err := queryInt(u, "seed", int(spec.Seed))
		if err != nil {
			return nil, err
		}
		spec.Seed = int64(seed)
		if spec.Tables < 1 || spec.Cols < 1 || spec.Rows < 0 {
			return nil, fmt.Errorf("connector: %s: tables and cols must be >= 1, rows >= 0", u.Raw)
		}
		return &lakegenSource{spec: spec, raw: u.Raw, opts: opts}, nil
	})
}

func queryInt(u *URI, key string, def int) (int, error) {
	v := u.Query.Get(key)
	if v == "" {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("connector: %s: bad %s=%q", u.Raw, key, v)
	}
	return n, nil
}

func (s *lakegenSource) Tables(ctx context.Context) ([]TableRef, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	refs := make([]TableRef, s.spec.Tables)
	for t := range refs {
		refs[t] = TableRef{
			Dataset: s.spec.DatasetName(t),
			Table:   s.spec.TableName(t),
			Locator: fmt.Sprintf("%s#%d", s.raw, t),
		}
	}
	return refs, nil
}

func (s *lakegenSource) Open(ctx context.Context, ref TableRef) (TableReader, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var t int
	if _, err := fmt.Sscanf(ref.Table, "stream_%d.csv", &t); err != nil || t < 0 || t >= s.spec.Tables {
		mErrors.WithLabelValues("lakegen", "open").Inc()
		return nil, fmt.Errorf("connector: %s: unknown lakegen table %q", s.raw, ref.Table)
	}
	mTables.WithLabelValues("lakegen").Inc()
	return &lakegenReader{
		spec: s.spec, t: t, cols: s.spec.Columns(t), chunkRows: s.opts.chunkRows(),
	}, nil
}

type lakegenReader struct {
	spec      lakegen.WideStream
	t         int
	cols      []string
	chunkRows int
	row       int
	gen       func(slot int) string
}

func (r *lakegenReader) Columns() []string { return r.cols }

func (r *lakegenReader) Next(ctx context.Context) (*Chunk, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if r.row >= r.spec.Rows {
		return nil, io.EOF
	}
	n := r.spec.Rows - r.row
	if n > r.chunkRows {
		n = r.chunkRows
	}
	if r.gen == nil {
		rng := r.spec.TableRNG(r.t)
		r.gen = func(slot int) string { return r.spec.Value(rng, r.t, slot) }
	}
	cols := make([][]dataframe.Cell, len(r.cols))
	for i := range cols {
		cols[i] = make([]dataframe.Cell, 0, n)
	}
	var bytes uint64
	for i := 0; i < n; i++ {
		for slot := range r.cols {
			v := r.gen(slot)
			bytes += uint64(len(v))
			cols[slot] = append(cols[slot], dataframe.ParseCell(v))
		}
	}
	r.row += n
	mBytesRead.WithLabelValues("lakegen").Add(bytes)
	mChunks.WithLabelValues("lakegen").Inc()
	mRows.WithLabelValues("lakegen").Add(uint64(n))
	return &Chunk{Cols: cols}, nil
}

func (r *lakegenReader) Close() error { return nil }
