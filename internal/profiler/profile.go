package profiler

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sync"

	"kglids/internal/dataframe"
	"kglids/internal/embed"
)

// ColumnProfile is the JSON document Algorithm 2 emits per column: table
// and dataset membership (M), fine-grained type (fgt), statistics (S), and
// the CoLR embedding (E).
type ColumnProfile struct {
	Dataset string       `json:"dataset"`
	Table   string       `json:"table"`
	Column  string       `json:"column"`
	Type    embed.Type   `json:"fine_grained_type"`
	Stats   ColumnStats  `json:"stats"`
	Embed   embed.Vector `json:"embedding"`
}

// ColumnStats holds the statistics collected per column (Algorithm 2
// line 7).
type ColumnStats struct {
	Total     int     `json:"total_values"`
	Missing   int     `json:"missing_values"`
	Distinct  int     `json:"distinct_values"`
	Min       float64 `json:"min,omitempty"`
	Max       float64 `json:"max,omitempty"`
	Mean      float64 `json:"mean,omitempty"`
	Std       float64 `json:"std,omitempty"`
	TrueRatio float64 `json:"true_ratio,omitempty"`
}

// ID returns a stable identifier "dataset/table/column".
func (cp *ColumnProfile) ID() string {
	return fmt.Sprintf("%s/%s/%s", cp.Dataset, cp.Table, cp.Column)
}

// TableID returns "dataset/table".
func (cp *ColumnProfile) TableID() string {
	return fmt.Sprintf("%s/%s", cp.Dataset, cp.Table)
}

// JSON serializes the profile (Algorithm 2 line 12).
func (cp *ColumnProfile) JSON() ([]byte, error) { return json.Marshal(cp) }

// Profiler runs Algorithm 2: it decomposes tables into columns and profiles
// each column independently in parallel (the Spark-map substitution).
type Profiler struct {
	CoLR    *embed.CoLR
	Types   *TypeInferencer
	Workers int

	// ReservoirSize bounds the per-column value sample the streaming path
	// retains for embeddings and exact std (see stream.go). 0 selects
	// DefaultReservoirSize. The in-memory path ignores it.
	ReservoirSize int
	// ExactDistinct bounds the exact distinct-value set per column on the
	// streaming path; beyond it a KMV sketch estimates. 0 selects
	// DefaultExactDistinct. The in-memory path ignores it.
	ExactDistinct int
}

// New returns a profiler with the default CoLR configuration and one worker
// per CPU.
func New() *Profiler {
	return &Profiler{CoLR: embed.NewCoLR(), Types: NewTypeInferencer(), Workers: runtime.NumCPU()}
}

// EmbedColumn infers a column's fine-grained type and embeds it under that
// type's CoLR encoder: the part of a profile a query by data frame uses.
func (p *Profiler) EmbedColumn(s *dataframe.Series) (embed.Type, embed.Vector) {
	fgt := p.Types.Infer(s)
	return fgt, p.CoLR.EncodeColumn(s.Strings(), fgt)
}

// ProfileColumn profiles a single column (Algorithm 2, worker body).
func (p *Profiler) ProfileColumn(dataset, table string, s *dataframe.Series) *ColumnProfile {
	fgt, emb := p.EmbedColumn(s)
	cp := &ColumnProfile{
		Dataset: dataset,
		Table:   table,
		Column:  s.Name,
		Type:    fgt,
		Stats: ColumnStats{
			Total:    s.Len(),
			Missing:  s.NullCount(),
			Distinct: s.Distinct(),
		},
		Embed: emb,
	}
	switch fgt {
	case embed.TypeInt, embed.TypeFloat:
		cp.Stats.Min, cp.Stats.Max = s.MinMax()
		cp.Stats.Mean = s.Mean()
		cp.Stats.Std = s.Std()
	case embed.TypeBoolean:
		cp.Stats.TrueRatio = booleanTrueRatio(s)
	}
	return cp
}

// ProfileTable profiles all columns of one table.
func (p *Profiler) ProfileTable(dataset string, df *dataframe.DataFrame) []*ColumnProfile {
	out := make([]*ColumnProfile, df.NumCols())
	for i := 0; i < df.NumCols(); i++ {
		out[i] = p.ProfileColumn(dataset, df.Name, df.ColumnAt(i))
	}
	return out
}

// Table pairs a dataset name with one of its tables for profiling.
type Table struct {
	Dataset string
	Frame   *dataframe.DataFrame
}

// ProfileAll profiles every column of every table in parallel and returns
// profiles in deterministic (table, column) order.
func (p *Profiler) ProfileAll(tables []Table) []*ColumnProfile {
	type job struct {
		tableIdx, colIdx int
		dataset          string
		table            string
		series           *dataframe.Series
	}
	var jobs []job
	offsets := make([]int, len(tables)+1)
	for ti, t := range tables {
		offsets[ti+1] = offsets[ti] + t.Frame.NumCols()
		for ci := 0; ci < t.Frame.NumCols(); ci++ {
			jobs = append(jobs, job{tableIdx: ti, colIdx: ci, dataset: t.Dataset, table: t.Frame.Name, series: t.Frame.ColumnAt(ci)})
		}
	}
	out := make([]*ColumnProfile, len(jobs))
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
			for ji := range ch {
				j := jobs[ji]
				out[offsets[j.tableIdx]+j.colIdx] = p.ProfileColumn(j.dataset, j.table, j.series)
			}
		}()
	}
	for ji := range jobs {
		ch <- ji
	}
	close(ch)
	wg.Wait()
	return out
}

// booleanTrueRatio computes the fraction of non-null values that are true
// for a column inferred as boolean. Unlike Series.TrueRatio, it also counts
// 0/1 numeric encodings, which the type inferencer classifies as boolean.
func booleanTrueRatio(s *dataframe.Series) float64 {
	total, trues := 0, 0
	for _, c := range s.Cells {
		if c.IsNull() {
			continue
		}
		total++
		if (c.Kind == dataframe.Boolean || c.Kind == dataframe.Number) && c.F == 1 {
			trues++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(trues) / float64(total)
}

// TypeBreakdown counts profiles per fine-grained type, the statistic
// reported in Table 1.
func TypeBreakdown(profiles []*ColumnProfile) map[embed.Type]int {
	out := map[embed.Type]int{}
	for _, cp := range profiles {
		out[cp.Type]++
	}
	return out
}
