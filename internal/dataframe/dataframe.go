// Package dataframe provides a typed, null-aware, in-memory tabular data
// structure with CSV and JSON IO. It substitutes for Pandas DataFrames in
// the original KGLiDS: the Interfaces return query results as frames, and
// the cleaning/transformation operators mutate frames in place.
package dataframe

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// CellKind is the runtime type of one cell.
type CellKind uint8

const (
	// Null marks a missing value ("", "NA", "NaN", "null", ...).
	Null CellKind = iota
	// Number is a numeric cell (int or float; stored as float64).
	Number
	// Text is a string cell.
	Text
	// Boolean is a true/false cell.
	Boolean
)

// Cell is one value in a column.
type Cell struct {
	Kind CellKind
	F    float64 // valid when Kind == Number or Boolean (0/1)
	S    string  // original lexical form
}

// IsNull reports whether the cell is missing.
func (c Cell) IsNull() bool { return c.Kind == Null }

// NumberCell returns a numeric cell.
func NumberCell(f float64) Cell {
	return Cell{Kind: Number, F: f, S: strconv.FormatFloat(f, 'g', -1, 64)}
}

// TextCell returns a text cell.
func TextCell(s string) Cell { return Cell{Kind: Text, S: s} }

// BoolCell returns a boolean cell.
func BoolCell(b bool) Cell {
	f := 0.0
	s := "false"
	if b {
		f, s = 1.0, "true"
	}
	return Cell{Kind: Boolean, F: f, S: s}
}

// NullCell returns a missing cell.
func NullCell() Cell { return Cell{Kind: Null} }

// ParseCell infers a cell from its lexical form (the CSV reader path).
func ParseCell(s string) Cell {
	t := strings.TrimSpace(s)
	switch strings.ToLower(t) {
	case "", "na", "n/a", "nan", "null", "none", "?":
		return NullCell()
	case "true", "yes":
		return Cell{Kind: Boolean, F: 1, S: t}
	case "false", "no":
		return Cell{Kind: Boolean, F: 0, S: t}
	}
	if f, err := strconv.ParseFloat(t, 64); err == nil && !math.IsInf(f, 0) {
		return Cell{Kind: Number, F: f, S: t}
	}
	return Cell{Kind: Text, S: t}
}

// Series is a named column of cells.
type Series struct {
	Name  string
	Cells []Cell
}

// Len returns the number of cells.
func (s *Series) Len() int { return len(s.Cells) }

// NullCount returns the number of missing cells.
func (s *Series) NullCount() int {
	n := 0
	for _, c := range s.Cells {
		if c.IsNull() {
			n++
		}
	}
	return n
}

// IsNumeric reports whether all non-null cells are numeric and at least one
// non-null cell exists.
func (s *Series) IsNumeric() bool {
	seen := false
	for _, c := range s.Cells {
		switch c.Kind {
		case Null:
		case Number:
			seen = true
		default:
			return false
		}
	}
	return seen
}

// Floats returns the non-null numeric values (booleans count as 0/1).
func (s *Series) Floats() []float64 {
	out := make([]float64, 0, len(s.Cells))
	for _, c := range s.Cells {
		if c.Kind == Number || c.Kind == Boolean {
			out = append(out, c.F)
		}
	}
	return out
}

// Strings returns the non-null lexical forms.
func (s *Series) Strings() []string {
	out := make([]string, 0, len(s.Cells))
	for _, c := range s.Cells {
		if !c.IsNull() {
			out = append(out, c.S)
		}
	}
	return out
}

// Mean returns the mean of non-null numeric values (0 if none).
func (s *Series) Mean() float64 {
	vals := s.Floats()
	if len(vals) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}

// Std returns the population standard deviation of non-null numeric values.
func (s *Series) Std() float64 {
	vals := s.Floats()
	if len(vals) == 0 {
		return 0
	}
	m := s.Mean()
	ss := 0.0
	for _, v := range vals {
		d := v - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(vals)))
}

// MinMax returns the min and max of non-null numeric values.
func (s *Series) MinMax() (lo, hi float64) {
	vals := s.Floats()
	if len(vals) == 0 {
		return 0, 0
	}
	lo, hi = vals[0], vals[0]
	for _, v := range vals[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// Quantile returns the q-quantile (0..1) of non-null numeric values using
// linear interpolation.
func (s *Series) Quantile(q float64) float64 {
	vals := s.Floats()
	if len(vals) == 0 {
		return 0
	}
	sort.Float64s(vals)
	if q <= 0 {
		return vals[0]
	}
	if q >= 1 {
		return vals[len(vals)-1]
	}
	pos := q * float64(len(vals)-1)
	i := int(pos)
	frac := pos - float64(i)
	if i+1 >= len(vals) {
		return vals[i]
	}
	return vals[i]*(1-frac) + vals[i+1]*frac
}

// Mode returns the most frequent non-null lexical form.
func (s *Series) Mode() (string, bool) {
	counts := map[string]int{}
	for _, c := range s.Cells {
		if !c.IsNull() {
			counts[c.S]++
		}
	}
	best, bestN := "", -1
	// Deterministic tie-break by value.
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if counts[k] > bestN {
			best, bestN = k, counts[k]
		}
	}
	return best, bestN >= 0
}

// Distinct returns the number of distinct non-null lexical forms.
func (s *Series) Distinct() int {
	seen := map[string]struct{}{}
	for _, c := range s.Cells {
		if !c.IsNull() {
			seen[c.S] = struct{}{}
		}
	}
	return len(seen)
}

// Clone deep-copies the series.
func (s *Series) Clone() *Series {
	cells := make([]Cell, len(s.Cells))
	copy(cells, s.Cells)
	return &Series{Name: s.Name, Cells: cells}
}

// DataFrame is a named collection of equal-length columns.
type DataFrame struct {
	Name   string
	cols   []*Series
	byName map[string]int
}

// New returns an empty frame with the given name.
func New(name string) *DataFrame {
	return &DataFrame{Name: name, byName: map[string]int{}}
}

// AddColumn appends a column. It panics on duplicate names or length
// mismatch with existing columns.
func (df *DataFrame) AddColumn(s *Series) {
	if _, dup := df.byName[s.Name]; dup {
		panic(fmt.Sprintf("dataframe: duplicate column %q", s.Name))
	}
	if len(df.cols) > 0 && df.cols[0].Len() != s.Len() {
		panic(fmt.Sprintf("dataframe: column %q has %d rows, frame has %d", s.Name, s.Len(), df.cols[0].Len()))
	}
	df.byName[s.Name] = len(df.cols)
	df.cols = append(df.cols, s)
}

// NumRows returns the row count.
func (df *DataFrame) NumRows() int {
	if len(df.cols) == 0 {
		return 0
	}
	return df.cols[0].Len()
}

// NumCols returns the column count.
func (df *DataFrame) NumCols() int { return len(df.cols) }

// Columns returns the column names in order.
func (df *DataFrame) Columns() []string {
	out := make([]string, len(df.cols))
	for i, c := range df.cols {
		out[i] = c.Name
	}
	return out
}

// Column returns the named column, or nil if absent.
func (df *DataFrame) Column(name string) *Series {
	i, ok := df.byName[name]
	if !ok {
		return nil
	}
	return df.cols[i]
}

// ColumnAt returns the i-th column.
func (df *DataFrame) ColumnAt(i int) *Series { return df.cols[i] }

// HasColumn reports whether the named column exists.
func (df *DataFrame) HasColumn(name string) bool {
	_, ok := df.byName[name]
	return ok
}

// Clone deep-copies the frame.
func (df *DataFrame) Clone() *DataFrame {
	out := New(df.Name)
	for _, c := range df.cols {
		out.AddColumn(c.Clone())
	}
	return out
}

// FilterRows returns a copy of the frame keeping rows where keep(i) is true.
func (df *DataFrame) FilterRows(keep func(i int) bool) *DataFrame {
	out := New(df.Name)
	for _, c := range df.cols {
		nc := &Series{Name: c.Name}
		for i, cell := range c.Cells {
			if keep(i) {
				nc.Cells = append(nc.Cells, cell)
			}
		}
		out.AddColumn(nc)
	}
	return out
}

// DropNullRows returns a copy with every row containing a null removed (the
// "Baseline" cleaning strategy of Table 5).
func (df *DataFrame) DropNullRows() *DataFrame {
	return df.FilterRows(func(i int) bool {
		for _, c := range df.cols {
			if c.Cells[i].IsNull() {
				return false
			}
		}
		return true
	})
}

// NullCount returns the total number of missing cells.
func (df *DataFrame) NullCount() int {
	n := 0
	for _, c := range df.cols {
		n += c.NullCount()
	}
	return n
}

// Head returns the first n rows as a new frame.
func (df *DataFrame) Head(n int) *DataFrame {
	return df.FilterRows(func(i int) bool { return i < n })
}

// String renders a short preview of the frame.
func (df *DataFrame) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "DataFrame %q [%d rows x %d cols]\n", df.Name, df.NumRows(), df.NumCols())
	sb.WriteString(strings.Join(df.Columns(), ", "))
	return sb.String()
}
