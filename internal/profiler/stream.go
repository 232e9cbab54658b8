package profiler

import (
	"cmp"
	"context"
	"io"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"kglids/internal/connector"
	"kglids/internal/dataframe"
	"kglids/internal/embed"
)

// Algorithm 2 as one pass: a ColumnAccumulator folds a column's chunks
// into counters, a Welford pair, the type-inference prefix, a value
// reservoir and a distinct-value set, and emits the ColumnProfile at
// Finish. Every table is profiled this way: a connector stream chunk by
// chunk, a resident frame (Frames, ProfileTable) as one chunk. For a
// resident frame the reservoir and distinct bounds are lifted to its row
// count, so its profile is exact whatever the configured bounds; a
// streamed column costs O(ReservoirSize + ExactDistinct) memory however
// many rows it has.
//
// While the bounds cover the column, the profile equals the whole-column
// reference profiler in this package's tests, byte for byte:
//
//   - Total/Missing/Min/Max/TrueRatio are exact counters.
//   - Mean is the same running sum in the same row order.
//   - Type inference examines the same first-InferSampleSize non-null
//     prefix Infer samples.
//   - The reservoir holds every non-null value in row order, so the
//     embedding comes from the same EncodeColumn call. Past its bound it
//     keeps the values with the smallest embed.SampleHash, the selection
//     rule of CoLR's sampler, and the embedding is computed from the
//     hash-order prefix of the true sample.
//   - Std is the same two-pass sum over the retained numeric values;
//     past the reservoir bound, Welford's M2 (agrees to ~1e-9 relative).
//   - Distinct is an exact set; past ExactDistinct a k-minimum-values
//     sketch, seeded from the set, estimates (k=1024, ~3% standard error).

const (
	// DefaultReservoirSize is the per-column bounded sample. At CoLR's
	// default 10% fraction this keeps embeddings byte-identical for
	// columns up to ~100k non-null values.
	DefaultReservoirSize = 10_000
	// DefaultExactDistinct is the per-column exact distinct-set bound.
	DefaultExactDistinct = 65_536
	// kmvK is the k of the KMV distinct estimator.
	kmvK = 1024
)

func (p *Profiler) reservoirSize() int {
	if p.ReservoirSize > 0 {
		return p.ReservoirSize
	}
	return DefaultReservoirSize
}

func (p *Profiler) exactDistinct() int {
	if p.ExactDistinct > 0 {
		return p.ExactDistinct
	}
	return DefaultExactDistinct
}

// ColumnAccumulator folds chunks of one column into bounded profiling
// state. Not safe for concurrent use; one goroutine owns one column.
type ColumnAccumulator struct {
	p                       *Profiler
	dataset, table, column  string
	rows                    int // known row count of a resident frame; 0 when streamed
	total, missing, nonNull int
	prefix                  []dataframe.Cell // first InferSampleSize non-null cells
	numCount                int
	numSum, numMin, numMax  float64
	numBuf                  []float64 // exact-std buffer until the reservoir bound
	numOverflow             bool
	welfordMean, welfordM2  float64
	trues                   int
	exact                   map[string]struct{} // exact distinct until exactBound; nil after
	exactBound              int
	kmv                     kmvSketch // distinct estimator once exact overflowed
	res                     sampleReservoir
}

// NewColumnAccumulator starts streaming one column of unknown length.
func (p *Profiler) NewColumnAccumulator(dataset, table, column string) *ColumnAccumulator {
	return p.newColumnAccumulator(dataset, table, column, 0)
}

// newColumnAccumulator starts one column. rows > 0 is the row count of a
// resident frame: the bounds are lifted to it, so nothing is sketched,
// and the buffers start at the size the column needs.
func (p *Profiler) newColumnAccumulator(dataset, table, column string, rows int) *ColumnAccumulator {
	a := &ColumnAccumulator{
		p: p, dataset: dataset, table: table, column: column, rows: rows,
		exact:      make(map[string]struct{}),
		exactBound: max(p.exactDistinct(), rows),
		res:        sampleReservoir{cap: max(p.reservoirSize(), rows)},
	}
	if rows > 0 {
		a.prefix = make([]dataframe.Cell, 0, min(rows, InferSampleSize))
		a.res.vals = make([]string, 0, rows)
	}
	return a
}

// Add folds one chunk of cells, in row order.
func (a *ColumnAccumulator) Add(cells []dataframe.Cell) {
	for _, c := range cells {
		a.total++
		if c.IsNull() {
			a.missing++
			continue
		}
		i := a.nonNull
		a.nonNull++
		if len(a.prefix) < InferSampleSize {
			a.prefix = append(a.prefix, c)
		}
		if c.Kind == dataframe.Number || c.Kind == dataframe.Boolean {
			v := c.F
			if a.numCount == 0 {
				a.numMin, a.numMax = v, v
				if a.rows > 0 {
					a.numBuf = make([]float64, 0, a.rows)
				}
			} else {
				if v < a.numMin {
					a.numMin = v
				}
				if v > a.numMax {
					a.numMax = v
				}
			}
			a.numCount++
			a.numSum += v
			if v == 1 {
				a.trues++
			}
			d := v - a.welfordMean
			a.welfordMean += d / float64(a.numCount)
			a.welfordM2 += d * (v - a.welfordMean)
			if !a.numOverflow {
				if len(a.numBuf) < a.res.cap {
					a.numBuf = append(a.numBuf, v)
				} else {
					a.numOverflow = true
					a.numBuf = nil
				}
			}
		}
		if a.exact != nil {
			a.exact[c.S] = struct{}{}
			if len(a.exact) > a.exactBound {
				a.kmv, a.exact = newKMV(a.exact), nil
			}
		} else {
			a.kmv.add(c.S)
		}
		a.res.add(c.S, i)
	}
}

// Finish infers the type and emits the profile. The accumulator must not
// be used afterwards.
func (a *ColumnAccumulator) Finish() *ColumnProfile {
	fgt := a.p.Types.InferCells(a.prefix)
	cp := &ColumnProfile{
		Dataset: a.dataset,
		Table:   a.table,
		Column:  a.column,
		Type:    fgt,
		Stats: ColumnStats{
			Total:    a.total,
			Missing:  a.missing,
			Distinct: a.distinct(),
		},
	}
	switch fgt {
	case embed.TypeInt, embed.TypeFloat:
		if a.numCount > 0 {
			cp.Stats.Min, cp.Stats.Max = a.numMin, a.numMax
			cp.Stats.Mean = a.numSum / float64(a.numCount)
			cp.Stats.Std = a.std()
		}
	case embed.TypeBoolean:
		if a.nonNull > 0 {
			cp.Stats.TrueRatio = float64(a.trues) / float64(a.nonNull)
		}
	}
	cp.Embed = a.embed(fgt)
	return cp
}

// std is the reference two-pass value (same sum, same order) while the
// numeric values fit the buffer; Welford beyond.
func (a *ColumnAccumulator) std() float64 {
	if !a.numOverflow {
		m := a.numSum / float64(a.numCount)
		var ss float64
		for _, v := range a.numBuf {
			d := v - m
			ss += d * d
		}
		return math.Sqrt(ss / float64(a.numCount))
	}
	return math.Sqrt(a.welfordM2 / float64(a.numCount))
}

func (a *ColumnAccumulator) distinct() int {
	if a.exact != nil {
		return len(a.exact)
	}
	return a.kmv.estimate()
}

// embed encodes the reservoir. While it holds every non-null value, in
// row order, that is the EncodeColumn call of the whole column. On
// overflow its contents, ordered by (hash, position) as the sampler
// orders, are the leading portion of the exact sample; they are truncated
// to the true sample size (or the whole reservoir if smaller) and encoded
// pre-sampled.
func (a *ColumnAccumulator) embed(fgt embed.Type) embed.Vector {
	if a.res.items == nil {
		return a.p.CoLR.EncodeColumn(a.res.vals, fgt)
	}
	items := a.res.items
	slices.SortFunc(items, func(x, y resItem) int {
		if c := cmp.Compare(x.hash, y.hash); c != 0 {
			return c
		}
		return cmp.Compare(x.idx, y.idx)
	})
	n := min(a.p.CoLR.SampleSize(a.nonNull), len(items))
	vals := make([]string, n)
	for i := range vals {
		vals[i] = items[i].val
	}
	return a.p.CoLR.EncodeSampled(vals, fgt)
}

// --- bounded deterministic reservoir ---------------------------------------

type resItem struct {
	hash uint64
	idx  int
	val  string
}

// sampleReservoir holds a column's non-null values in row order up to
// cap. The value that would exceed cap turns it into a max-heap by
// embed.SampleHash of the cap values with the smallest hashes, so the
// current worst is evictable in O(log cap); values are only hashed from
// then on.
type sampleReservoir struct {
	cap   int
	vals  []string  // row order, until overflow
	items []resItem // max-heap by hash, after overflow
}

// down sifts items[i] below any child with a larger hash.
func (r *sampleReservoir) down(i int) {
	h := r.items
	for c := 2*i + 1; c < len(h); i, c = c, 2*c+1 {
		if c+1 < len(h) && h[c+1].hash > h[c].hash {
			c++
		}
		if h[c].hash <= h[i].hash {
			return
		}
		h[i], h[c] = h[c], h[i]
	}
}

// add keeps val, the column's idx-th non-null value.
func (r *sampleReservoir) add(val string, idx int) {
	if r.items == nil {
		if len(r.vals) < r.cap {
			r.vals = append(r.vals, val)
			return
		}
		r.items = make([]resItem, len(r.vals))
		for i, v := range r.vals {
			r.items[i] = resItem{hash: embed.SampleHash(v, i), idx: i, val: v}
		}
		r.vals = nil
		for i := len(r.items)/2 - 1; i >= 0; i-- {
			r.down(i)
		}
	}
	if h := embed.SampleHash(val, idx); h < r.items[0].hash {
		r.items[0] = resItem{hash: h, idx: idx, val: val}
		r.down(0)
	}
}

// --- KMV distinct estimator -------------------------------------------------

// kmvSketch estimates distinct counts from the k smallest distinct value
// hashes, kept in ascending order: if the k-th smallest of D uniform
// hashes sits at fraction f of the hash space, D ≈ (k-1)/f. Those k hashes
// do not depend on the order values arrive in, so a sketch seeded from the
// exact set at its overflow holds what one fed from the first value would.
type kmvSketch []uint64

// newKMV returns the sketch of the distinct values in seen.
func newKMV(seen map[string]struct{}) kmvSketch {
	hs := make([]uint64, 0, len(seen))
	for v := range seen {
		hs = append(hs, embed.Hash64(v))
	}
	slices.Sort(hs)
	hs = slices.Compact(hs)
	return slices.Clone(hs[:min(len(hs), kmvK)])
}

func (s *kmvSketch) add(v string) {
	h := embed.Hash64(v)
	if len(*s) == kmvK && h >= (*s)[kmvK-1] {
		return
	}
	if i, dup := slices.BinarySearch(*s, h); !dup {
		*s = slices.Insert(*s, i, h)
		*s = (*s)[:min(len(*s), kmvK)]
	}
}

func (s kmvSketch) estimate() int {
	if len(s) < kmvK {
		return len(s)
	}
	frac := float64(s[kmvK-1]) / math.Exp2(64)
	if frac <= 0 {
		return len(s)
	}
	return int(math.Round(float64(kmvK-1) / frac))
}

// --- table- and source-level streaming --------------------------------------

// ProfileTableStream drains one connector table reader into per-column
// accumulators, finishes the columns in parallel, and returns the column
// profiles in column order. The reader is not closed; the caller owns it.
// A resident frame's reader (see Frames) tells the accumulators its row
// count.
func (p *Profiler) ProfileTableStream(ctx context.Context, dataset, table string, r connector.TableReader) ([]*ColumnProfile, error) {
	rows := 0
	if fr, ok := r.(*frameReader); ok {
		rows = fr.df.NumRows()
	}
	cols := r.Columns()
	accs := make([]*ColumnAccumulator, len(cols))
	for i, name := range cols {
		accs[i] = p.newColumnAccumulator(dataset, table, name, rows)
	}
	for {
		chunk, err := r.Next(ctx)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		for i := range accs {
			if i < len(chunk.Cols) {
				accs[i].Add(chunk.Cols[i])
			}
		}
	}
	out := make([]*ColumnProfile, len(accs))
	p.each(len(accs), func(i int) { out[i] = accs[i].Finish() })
	return out, nil
}

// each calls f(0), ..., f(n-1) on up to Workers goroutines (at least one).
func (p *Profiler) each(n int, f func(i int)) {
	workers := min(max(p.Workers, 1), n)
	if workers <= 1 {
		for i := range n {
			f(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				f(i)
			}
		}()
	}
	wg.Wait()
}

// ProfileSource enumerates src and streams every table through the
// worker pool, one table per worker at a time (a table's chunks must be
// read sequentially; its columns finish in parallel). Profiles come back
// in deterministic (table, column) order. Tables that fail to open or
// stream are skipped and reported in the returned map by table ID, while
// a failed enumeration or a canceled context fails the whole call.
func (p *Profiler) ProfileSource(ctx context.Context, src connector.Source) ([]*ColumnProfile, map[string]error, error) {
	refs, err := src.Tables(ctx)
	if err != nil {
		return nil, nil, err
	}
	results := make([][]*ColumnProfile, len(refs))
	tableErrs := map[string]error{}
	var errMu sync.Mutex
	p.each(len(refs), func(i int) {
		ps, err := p.profileRef(ctx, src, refs[i])
		if err != nil {
			errMu.Lock()
			tableErrs[refs[i].ID()] = err
			errMu.Unlock()
			return
		}
		results[i] = ps
	})
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	var out []*ColumnProfile
	for _, ps := range results {
		out = append(out, ps...)
	}
	return out, tableErrs, nil
}

func (p *Profiler) profileRef(ctx context.Context, src connector.Source, ref connector.TableRef) ([]*ColumnProfile, error) {
	r, err := src.Open(ctx, ref)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	return p.ProfileTableStream(ctx, ref.Dataset, ref.Table, r)
}

// MaterializeSource drains a source into in-memory tables, for tests that
// compare a streamed source with the same tables held as frames.
// Everything is held at once; only use it on lakes that fit in memory.
func MaterializeSource(ctx context.Context, src connector.Source) ([]Table, error) {
	refs, err := src.Tables(ctx)
	if err != nil {
		return nil, err
	}
	var out []Table
	for _, ref := range refs {
		r, err := src.Open(ctx, ref)
		if err != nil {
			return nil, err
		}
		cols := r.Columns()
		series := make([]*dataframe.Series, len(cols))
		for i, name := range cols {
			series[i] = &dataframe.Series{Name: name}
		}
		for {
			chunk, err := r.Next(ctx)
			if err == io.EOF {
				break
			}
			if err != nil {
				r.Close()
				return nil, err
			}
			for i := range series {
				if i < len(chunk.Cols) {
					series[i].Cells = append(series[i].Cells, chunk.Cols[i]...)
				}
			}
		}
		r.Close()
		df := dataframe.New(ref.Table)
		for _, s := range series {
			df.AddColumn(s)
		}
		out = append(out, Table{Dataset: ref.Dataset, Frame: df})
	}
	return out, nil
}
