package lakegen

import (
	"fmt"
	"math/rand"
)

// WideStream is the generator behind the lakegen:// connector: the same
// family/slot structure as WideLake (families of seven tables sharing
// labels and value domains, slots rotating through the fine-grained
// types), but seeded per table, so any single table can be produced
// without generating the lake before it. That independence is what lets
// the connector stream a lake far larger than memory. Cells are drawn in
// row-major order (rows outer, slots inner).
type WideStream struct {
	Tables int
	Cols   int
	Rows   int
	Seed   int64
}

// TableName returns the table (file) name of table t.
func (w WideStream) TableName(t int) string { return fmt.Sprintf("stream_%04d.csv", t) }

// DatasetName groups tables into datasets of five, like WideLake.
func (w WideStream) DatasetName(t int) string { return fmt.Sprintf("wide_ds_%02d", t/5) }

// Columns returns the column labels of table t (shared within its
// family of seven, disjoint across families).
func (w WideStream) Columns(t int) []string {
	f := t / 7
	cols := make([]string, w.Cols)
	for slot := range cols {
		cols[slot] = fmt.Sprintf("%s_%s", letterWord(slot, 2), letterWord(f, 3))
	}
	return cols
}

// TableRNG returns the dedicated deterministic generator for table t.
func (w WideStream) TableRNG(t int) *rand.Rand {
	return rand.New(rand.NewSource(w.Seed*1_000_003 + int64(t)))
}

// Value draws the next cell (lexical form) for table t, column slot,
// advancing rng. Callers must draw in row-major order to reproduce the
// canonical table.
func (w WideStream) Value(rng *rand.Rand, t, slot int) string {
	return wideValue(rng, t/7, slot)
}
