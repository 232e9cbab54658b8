package profiler

import (
	"cmp"
	"container/heap"
	"context"
	"io"
	"math"
	"slices"
	"sync"

	"kglids/internal/connector"
	"kglids/internal/dataframe"
	"kglids/internal/embed"
)

// The streaming half of Algorithm 2: instead of materializing a table
// and handing whole columns to ProfileColumn, a ColumnAccumulator folds
// connector chunks into bounded state — counters, a Welford pair, a
// type-inference prefix, a hash-ranked value reservoir, and an
// exact-until-threshold distinct tracker — and emits the ColumnProfile
// at Finish. Peak memory per column is O(ReservoirSize + ExactDistinct)
// no matter how many rows stream through.
//
// Equivalence with the in-memory path is by construction, not accident:
//
//   - Total/Missing/Min/Max/TrueRatio are exact counters — always
//     byte-identical.
//   - Mean keeps the same running sum in the same row order the
//     in-memory Series.Mean computes — always byte-identical.
//   - Type inference examines the same first-InferSampleSize non-null
//     prefix Infer samples — always identical.
//   - The reservoir keeps the values with the smallest
//     embed.SampleHash — exactly the selection rule of CoLR's sampler —
//     so embeddings are byte-identical until a column's sample size
//     exceeds the reservoir (non-null count > ~10x ReservoirSize at the
//     default 10% fraction), after which the embedding is computed from
//     the hash-order prefix of the true sample.
//   - Std is recomputed two-pass from retained numeric values while
//     they fit the reservoir budget (byte-identical), falling back to
//     Welford's M2 beyond it (agrees to ~1e-9 relative).
//   - Distinct is an exact set until ExactDistinct values, then a
//     k-minimum-values estimate (k=1024, ~3% standard error).

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
	total, missing, nonNull int
	prefix                  []dataframe.Cell // first InferSampleSize non-null cells
	numCount                int
	numSum, numMin, numMax  float64
	numBuf                  []float64 // exact-std buffer until reservoirSize
	numOverflow             bool
	welfordMean, welfordM2  float64
	trues                   int
	exact                   map[string]struct{} // exact distinct until exactDistinct
	distinctOverflow        bool
	kmv                     kmvSketch
	res                     sampleReservoir
}

// NewColumnAccumulator starts streaming one column.
func (p *Profiler) NewColumnAccumulator(dataset, table, column string) *ColumnAccumulator {
	return &ColumnAccumulator{
		p: p, dataset: dataset, table: table, column: column,
		exact: make(map[string]struct{}),
		kmv:   kmvSketch{k: kmvK, in: make(map[uint64]struct{}, kmvK)},
		res:   sampleReservoir{cap: p.reservoirSize()},
	}
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
				if len(a.numBuf) < a.p.reservoirSize() {
					a.numBuf = append(a.numBuf, v)
				} else {
					a.numOverflow = true
					a.numBuf = nil
				}
			}
		}
		if !a.distinctOverflow {
			a.exact[c.S] = struct{}{}
			if len(a.exact) > a.p.exactDistinct() {
				a.distinctOverflow = true
				a.exact = nil
			}
		}
		a.kmv.add(c.S)
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

// std matches Series.Std bit-for-bit while the numeric values fit the
// buffer (same two-pass, same order); Welford beyond.
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
	if !a.distinctOverflow {
		return len(a.exact)
	}
	return a.kmv.estimate()
}

// embed encodes the reservoir. While the reservoir held every non-null
// value, the values are restored to row order and pushed through the
// normal EncodeColumn path — identical to the in-memory profile. On
// overflow the reservoir's contents, ordered by (hash, position) as the
// sampler orders, are the leading portion of the exact sample; they are
// truncated to the true sample size (or the whole reservoir if smaller)
// and encoded pre-sampled.
func (a *ColumnAccumulator) embed(fgt embed.Type) embed.Vector {
	items := a.res.items
	if !a.res.overflow {
		slices.SortFunc(items, func(x, y resItem) int { return cmp.Compare(x.idx, y.idx) })
		vals := make([]string, len(items))
		for i, it := range items {
			vals[i] = it.val
		}
		return a.p.CoLR.EncodeColumn(vals, fgt)
	}
	slices.SortFunc(items, func(x, y resItem) int {
		if c := cmp.Compare(x.hash, y.hash); c != 0 {
			return c
		}
		return cmp.Compare(x.idx, y.idx)
	})
	n := a.p.CoLR.SampleSize(a.nonNull)
	if n > len(items) {
		n = len(items)
	}
	vals := make([]string, n)
	for i := 0; i < n; i++ {
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

// sampleReservoir keeps the cap values with the smallest
// embed.SampleHash, via a max-heap so the current worst is evictable in
// O(log cap).
type sampleReservoir struct {
	cap      int
	items    []resItem // max-heap by hash
	overflow bool
}

func (r *sampleReservoir) Len() int           { return len(r.items) }
func (r *sampleReservoir) Less(i, j int) bool { return r.items[i].hash > r.items[j].hash }
func (r *sampleReservoir) Swap(i, j int)      { r.items[i], r.items[j] = r.items[j], r.items[i] }
func (r *sampleReservoir) Push(x any)         { r.items = append(r.items, x.(resItem)) }
func (r *sampleReservoir) Pop() any {
	last := r.items[len(r.items)-1]
	r.items = r.items[:len(r.items)-1]
	return last
}

func (r *sampleReservoir) add(val string, idx int) {
	it := resItem{hash: embed.SampleHash(val, idx), idx: idx, val: val}
	if len(r.items) < r.cap {
		heap.Push(r, it)
		return
	}
	r.overflow = true
	if it.hash < r.items[0].hash {
		r.items[0] = it
		heap.Fix(r, 0)
	}
}

// --- KMV distinct estimator -------------------------------------------------

// kmvSketch estimates distinct counts from the k smallest distinct value
// hashes: if the k-th smallest of D uniform hashes sits at fraction f of
// the hash space, D ≈ (k-1)/f. Fed from the first value so the estimate
// is ready the moment the exact set overflows.
type kmvSketch struct {
	k     int
	heap_ []uint64            // max-heap of the k smallest hashes
	in    map[uint64]struct{} // members of heap_, for dedup
}

func (s *kmvSketch) add(v string) {
	hv := embed.Hash64(v)
	if _, dup := s.in[hv]; dup {
		return
	}
	if len(s.heap_) < s.k {
		s.in[hv] = struct{}{}
		s.heap_ = append(s.heap_, hv)
		s.up(len(s.heap_) - 1)
		return
	}
	if hv >= s.heap_[0] {
		return
	}
	delete(s.in, s.heap_[0])
	s.in[hv] = struct{}{}
	s.heap_[0] = hv
	s.down(0)
}

func (s *kmvSketch) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if s.heap_[parent] >= s.heap_[i] {
			return
		}
		s.heap_[parent], s.heap_[i] = s.heap_[i], s.heap_[parent]
		i = parent
	}
}

func (s *kmvSketch) down(i int) {
	n := len(s.heap_)
	for {
		l, r, big := 2*i+1, 2*i+2, i
		if l < n && s.heap_[l] > s.heap_[big] {
			big = l
		}
		if r < n && s.heap_[r] > s.heap_[big] {
			big = r
		}
		if big == i {
			return
		}
		s.heap_[i], s.heap_[big] = s.heap_[big], s.heap_[i]
		i = big
	}
}

func (s *kmvSketch) estimate() int {
	if len(s.heap_) < s.k {
		return len(s.heap_)
	}
	frac := float64(s.heap_[0]) / math.Exp2(64)
	if frac <= 0 {
		return len(s.heap_)
	}
	return int(math.Round(float64(s.k-1) / frac))
}

// --- table- and source-level streaming --------------------------------------

// ProfileTableStream drains one connector table reader into per-column
// accumulators and returns the column profiles in column order. The
// reader is not closed; the caller owns it.
func (p *Profiler) ProfileTableStream(ctx context.Context, dataset, table string, r connector.TableReader) ([]*ColumnProfile, error) {
	cols := r.Columns()
	accs := make([]*ColumnAccumulator, len(cols))
	for i, name := range cols {
		accs[i] = p.NewColumnAccumulator(dataset, table, name)
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
	for i, acc := range accs {
		out[i] = acc.Finish()
	}
	return out, nil
}

// ProfileSource enumerates src and streams every table through the
// worker pool — the streaming analogue of ProfileAll, with per-table
// instead of per-column parallelism (a table's chunks must be read
// sequentially). Profiles come back in deterministic (table, column)
// order. Tables that fail to open or stream are skipped and reported in
// the returned map by table ID — matching the lake walker's
// skip-unreadable-files behavior — while a failed enumeration or a
// canceled context fails the whole call.
func (p *Profiler) ProfileSource(ctx context.Context, src connector.Source) ([]*ColumnProfile, map[string]error, error) {
	refs, err := src.Tables(ctx)
	if err != nil {
		return nil, nil, err
	}
	results := make([][]*ColumnProfile, len(refs))
	tableErrs := map[string]error{}
	var errMu sync.Mutex
	workers := p.Workers
	if workers < 1 {
		workers = 1
	}
	var wg sync.WaitGroup
	ch := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ch {
				ref := refs[i]
				ps, err := p.profileRef(ctx, src, ref)
				if err != nil {
					errMu.Lock()
					tableErrs[ref.ID()] = err
					errMu.Unlock()
					continue
				}
				results[i] = ps
			}
		}()
	}
	for i := range refs {
		ch <- i
	}
	close(ch)
	wg.Wait()
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

// MaterializeSource drains a source into in-memory tables — the
// pre-connector behavior, kept for the materialized bench baseline and
// the streaming-equivalence tests. Everything is held at once; only use
// it on lakes that fit in memory.
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
