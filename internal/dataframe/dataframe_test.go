package dataframe

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

const sampleCSV = `PassengerId,Name,Age,Fare,Survived
1,Braund,22,7.25,false
2,Cumings,38,71.28,true
3,Heikkinen,,7.92,true
4,Futrelle,35,53.1,true
5,Allen,35,,false
`

func sample(t *testing.T) *DataFrame {
	t.Helper()
	df, err := ReadCSV("titanic", strings.NewReader(sampleCSV))
	if err != nil {
		t.Fatal(err)
	}
	return df
}

func TestParseCell(t *testing.T) {
	cases := []struct {
		in   string
		kind CellKind
	}{
		{"", Null}, {"NA", Null}, {"NaN", Null}, {"null", Null}, {"?", Null},
		{"3.5", Number}, {"-2", Number}, {"1e3", Number},
		{"true", Boolean}, {"No", Boolean},
		{"hello", Text}, {"12ab", Text},
	}
	for _, c := range cases {
		if got := ParseCell(c.in).Kind; got != c.kind {
			t.Errorf("ParseCell(%q).Kind = %v, want %v", c.in, got, c.kind)
		}
	}
	if ParseCell("3.5").F != 3.5 {
		t.Error("numeric value not parsed")
	}
	if ParseCell("true").F != 1 {
		t.Error("boolean true not 1")
	}
}

func TestReadCSV(t *testing.T) {
	df := sample(t)
	if df.NumRows() != 5 || df.NumCols() != 5 {
		t.Fatalf("shape = %dx%d", df.NumRows(), df.NumCols())
	}
	age := df.Column("Age")
	if age == nil {
		t.Fatal("Age column missing")
	}
	if age.NullCount() != 1 {
		t.Errorf("Age nulls = %d", age.NullCount())
	}
	if !age.IsNumeric() {
		t.Error("Age should be numeric")
	}
	if df.Column("Name").IsNumeric() {
		t.Error("Name should not be numeric")
	}
}

func TestStats(t *testing.T) {
	df := sample(t)
	age := df.Column("Age")
	if got := age.Mean(); math.Abs(got-32.5) > 1e-9 {
		t.Errorf("Mean = %v, want 32.5", got)
	}
	lo, hi := age.MinMax()
	if lo != 22 || hi != 38 {
		t.Errorf("MinMax = %v, %v", lo, hi)
	}
	if got := age.Distinct(); got != 3 {
		t.Errorf("Distinct = %d, want 3 (22, 38, 35)", got)
	}
	if m, ok := df.Column("Age").Mode(); !ok || m != "35" {
		t.Errorf("Mode = %q, %v", m, ok)
	}
}

func TestQuantile(t *testing.T) {
	s := &Series{Name: "x"}
	for _, v := range []float64{1, 2, 3, 4, 5} {
		s.Cells = append(s.Cells, NumberCell(v))
	}
	if q := s.Quantile(0.5); q != 3 {
		t.Errorf("median = %v", q)
	}
	if q := s.Quantile(0); q != 1 {
		t.Errorf("q0 = %v", q)
	}
	if q := s.Quantile(1); q != 5 {
		t.Errorf("q1 = %v", q)
	}
	if q := s.Quantile(0.25); q != 2 {
		t.Errorf("q25 = %v", q)
	}
}

func TestDropNullRows(t *testing.T) {
	df := sample(t)
	clean := df.DropNullRows()
	if clean.NumRows() != 3 {
		t.Errorf("rows after dropna = %d, want 3", clean.NumRows())
	}
	if clean.NullCount() != 0 {
		t.Error("nulls remain after DropNullRows")
	}
	if df.NumRows() != 5 {
		t.Error("original mutated")
	}
}

func TestCSVRoundtrip(t *testing.T) {
	df := sample(t)
	var buf bytes.Buffer
	if err := df.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV("back", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumRows() != df.NumRows() || back.NumCols() != df.NumCols() {
		t.Fatalf("roundtrip shape = %dx%d", back.NumRows(), back.NumCols())
	}
	if back.Column("Age").NullCount() != 1 {
		t.Error("null lost in roundtrip")
	}
}

func TestDuplicateHeaders(t *testing.T) {
	df, err := ReadCSV("d", strings.NewReader("a,a,a\n1,2,3\n"))
	if err != nil {
		t.Fatal(err)
	}
	cols := df.Columns()
	if cols[0] == cols[1] || cols[1] == cols[2] {
		t.Errorf("duplicate headers not renamed: %v", cols)
	}
}

func TestToMatrix(t *testing.T) {
	df := sample(t)
	m, err := df.ToMatrix("Survived")
	if err != nil {
		t.Fatal(err)
	}
	if len(m.X) != 5 || len(m.X[0]) != 4 {
		t.Fatalf("X shape = %dx%d", len(m.X), len(m.X[0]))
	}
	if len(m.Classes) != 2 {
		t.Errorf("classes = %v", m.Classes)
	}
	// Null Age imputed with mean.
	ageIdx := -1
	for i, f := range m.Features {
		if f == "Age" {
			ageIdx = i
		}
	}
	if m.X[2][ageIdx] != 32.5 {
		t.Errorf("imputed age = %v, want mean 32.5", m.X[2][ageIdx])
	}
	if _, err := df.ToMatrix("nope"); err == nil {
		t.Error("unknown target should error")
	}
}

func TestFilterRowsProperty(t *testing.T) {
	// Property: FilterRows(keep) preserves exactly the kept rows in order.
	f := func(vals []float64, mask []bool) bool {
		df := New("p")
		s := &Series{Name: "v"}
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			s.Cells = append(s.Cells, NumberCell(v))
		}
		df.AddColumn(s)
		kept := df.FilterRows(func(i int) bool { return i < len(mask) && mask[i] })
		want := 0
		for i := range vals {
			if i < len(mask) && mask[i] {
				want++
			}
		}
		return kept.NumRows() == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAddColumnPanics(t *testing.T) {
	df := New("x")
	df.AddColumn(&Series{Name: "a", Cells: []Cell{NumberCell(1)}})
	assertPanic(t, func() { df.AddColumn(&Series{Name: "a"}) })
	assertPanic(t, func() { df.AddColumn(&Series{Name: "b", Cells: []Cell{NumberCell(1), NumberCell(2)}}) })
}

func assertPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	f()
}
