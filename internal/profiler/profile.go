package profiler

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"strconv"

	"kglids/internal/connector"
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
// each column in one pass, tables in parallel (the Spark-map substitution).
type Profiler struct {
	CoLR    *embed.CoLR
	Types   *TypeInferencer
	Workers int

	// ReservoirSize bounds the per-column value sample retained for
	// embeddings and exact std (see stream.go). 0 selects
	// DefaultReservoirSize. It bounds streamed tables only: a resident
	// frame's bound is lifted to its row count.
	ReservoirSize int
	// ExactDistinct bounds the exact distinct-value set per column; beyond
	// it a KMV sketch estimates. 0 selects DefaultExactDistinct. It bounds
	// streamed tables only, as ReservoirSize does.
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

// TableEmbedding embeds a frame as a table: each column under its
// inferred type, then the per-type means concatenated (the query side of
// get_path_to_table and the transformation recommender's input).
func (p *Profiler) TableEmbedding(df *dataframe.DataFrame) embed.Vector {
	byType := map[embed.Type][]embed.Vector{}
	for i := 0; i < df.NumCols(); i++ {
		t, emb := p.EmbedColumn(df.ColumnAt(i))
		byType[t] = append(byType[t], emb)
	}
	return embed.TableEmbedding(byType)
}

// ProfileTable profiles all columns of one resident table: a one-table
// Frames source through ProfileTableStream.
func (p *Profiler) ProfileTable(dataset string, df *dataframe.DataFrame) []*ColumnProfile {
	// A frame's reader returns no error under a context nothing cancels.
	out, _ := p.ProfileTableStream(context.Background(), dataset, df.Name, &frameReader{df: df})
	return out
}

// Table pairs a dataset name with one of its tables for profiling.
type Table struct {
	Dataset string
	Frame   *dataframe.DataFrame
}

// Frames returns a connector source over resident tables. It lists them
// in the given order and opens them by position, duplicates included,
// and each reader yields its frame as one chunk. Profiled through
// ProfileSource, every table's bounds are lifted to its row count, so
// the profiles are exact.
func Frames(tables []Table) connector.Source { return frameSource(tables) }

type frameSource []Table

func (s frameSource) Tables(context.Context) ([]connector.TableRef, error) {
	refs := make([]connector.TableRef, len(s))
	for i, t := range s {
		refs[i] = connector.TableRef{Dataset: t.Dataset, Table: t.Frame.Name, Locator: strconv.Itoa(i)}
	}
	return refs, nil
}

func (s frameSource) Open(ctx context.Context, ref connector.TableRef) (connector.TableReader, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	i, err := strconv.Atoi(ref.Locator)
	if err != nil || i < 0 || i >= len(s) {
		return nil, fmt.Errorf("profiler: no frame at position %q", ref.Locator)
	}
	return &frameReader{df: s[i].Frame}, nil
}

// frameReader yields a resident frame as one chunk of its own cells.
type frameReader struct {
	df   *dataframe.DataFrame
	done bool
}

func (r *frameReader) Columns() []string { return r.df.Columns() }

func (r *frameReader) Next(ctx context.Context) (*connector.Chunk, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if r.done {
		return nil, io.EOF
	}
	r.done = true
	cols := make([][]dataframe.Cell, r.df.NumCols())
	for i := range cols {
		cols[i] = r.df.ColumnAt(i).Cells
	}
	return &connector.Chunk{Cols: cols}, nil
}

func (r *frameReader) Close() error { return nil }

// TypeBreakdown counts profiles per fine-grained type, the statistic
// reported in Table 1.
func TypeBreakdown(profiles []*ColumnProfile) map[embed.Type]int {
	out := map[embed.Type]int{}
	for _, cp := range profiles {
		out[cp.Type]++
	}
	return out
}
