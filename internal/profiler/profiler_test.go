package profiler

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"kglids/internal/dataframe"
	"kglids/internal/embed"
)

func seriesOf(name string, vals ...string) *dataframe.Series {
	s := &dataframe.Series{Name: name}
	for _, v := range vals {
		s.Cells = append(s.Cells, dataframe.ParseCell(v))
	}
	return s
}

// profileSeries profiles s as the one column of table.
func profileSeries(p *Profiler, dataset, table string, s *dataframe.Series) *ColumnProfile {
	df := dataframe.New(table)
	df.AddColumn(s)
	return p.ProfileTable(dataset, df)[0]
}

func TestNERRecognize(t *testing.T) {
	n := NewNER()
	cases := map[string]string{
		"Canada":     "GPE",
		"montreal":   "GPE",
		"Google":     "ORG",
		"James":      "PERSON",
		"French":     "LANGUAGE",
		"iPhone":     "PRODUCT",
		"Olympics":   "EVENT",
		"New York":   "GPE",
		"mary smith": "PERSON",
	}
	for in, want := range cases {
		got, ok := n.Recognize(in)
		if !ok || got != want {
			t.Errorf("Recognize(%q) = %q, %v; want %q", in, got, ok, want)
		}
	}
	for _, in := range []string{"xyzzy", "12345", "", "the quick fox"} {
		if _, ok := n.Recognize(in); ok {
			t.Errorf("Recognize(%q) matched unexpectedly", in)
		}
	}
}

func TestInferNumericTypes(t *testing.T) {
	ti := NewTypeInferencer()
	cases := []struct {
		vals []string
		want embed.Type
	}{
		{[]string{"1", "2", "3", "400", "-7"}, embed.TypeInt},
		{[]string{"1.5", "2.25", "3.1", "4.0", "0.2"}, embed.TypeFloat},
		{[]string{"1", "2", "3.5", "4", "5"}, embed.TypeFloat}, // mixed
		{[]string{"true", "false", "true", "true", "false"}, embed.TypeBoolean},
		{[]string{"0", "1", "1", "0", "1"}, embed.TypeBoolean}, // 0/1 ints
		{[]string{"yes", "no", "yes", "no", "yes"}, embed.TypeBoolean},
	}
	for _, c := range cases {
		if got := ti.Infer(seriesOf("x", c.vals...)); got != c.want {
			t.Errorf("Infer(%v) = %v, want %v", c.vals, got, c.want)
		}
	}
}

func TestInferStringTypes(t *testing.T) {
	ti := NewTypeInferencer()
	cases := []struct {
		vals []string
		want embed.Type
	}{
		{[]string{"2020-01-15", "2021-06-07", "2019-12-31", "2022-03-03", "2018-07-22"}, embed.TypeDate},
		{[]string{"Canada", "France", "Japan", "Brazil", "Kenya"}, embed.TypeNamedEntity},
		{[]string{"James", "Mary", "Robert", "Linda", "David"}, embed.TypeNamedEntity},
		{
			[]string{
				"the product was very good and i liked it",
				"this is a bad product and it broke",
				"great value for the price i paid",
				"it was not what i expected at all",
			},
			embed.TypeNaturalLanguage,
		},
		{[]string{"A1B2", "C3D4", "E5F6", "G7H8", "J9K0"}, embed.TypeString}, // postal-ish codes
		{[]string{"id-001", "id-002", "id-003", "id-004", "id-005"}, embed.TypeString},
	}
	for _, c := range cases {
		if got := ti.Infer(seriesOf("x", c.vals...)); got != c.want {
			t.Errorf("Infer(%v...) = %v, want %v", c.vals[0], got, c.want)
		}
	}
}

func TestInferEmptyAndNulls(t *testing.T) {
	ti := NewTypeInferencer()
	if got := ti.Infer(seriesOf("x")); got != embed.TypeString {
		t.Errorf("empty column type = %v", got)
	}
	if got := ti.Infer(seriesOf("x", "", "NA", "")); got != embed.TypeString {
		t.Errorf("all-null column type = %v", got)
	}
	// Nulls mixed with ints should still be int.
	if got := ti.Infer(seriesOf("x", "1", "", "2", "NA", "3")); got != embed.TypeInt {
		t.Errorf("nullable int column type = %v", got)
	}
}

func TestProfileColumn(t *testing.T) {
	p := New()
	s := seriesOf("Age", "22", "38", "", "35", "35")
	cp := profileSeries(p, "titanic", "train.csv", s)
	if cp.Type != embed.TypeInt {
		t.Errorf("type = %v", cp.Type)
	}
	if cp.Stats.Total != 5 || cp.Stats.Missing != 1 || cp.Stats.Distinct != 3 {
		t.Errorf("stats = %+v", cp.Stats)
	}
	if cp.Stats.Min != 22 || cp.Stats.Max != 38 {
		t.Errorf("min/max = %v/%v", cp.Stats.Min, cp.Stats.Max)
	}
	if cp.Stats.Mean != 32.5 {
		t.Errorf("mean = %v", cp.Stats.Mean)
	}
	if len(cp.Embed) != embed.Dim {
		t.Errorf("embedding dim = %d", len(cp.Embed))
	}
	if cp.ID() != "titanic/train.csv/Age" {
		t.Errorf("ID = %q", cp.ID())
	}
	if cp.TableID() != "titanic/train.csv" {
		t.Errorf("TableID = %q", cp.TableID())
	}
}

func TestProfileBooleanStats(t *testing.T) {
	p := New()
	cp := profileSeries(p, "d", "t", seriesOf("flag", "true", "false", "true", "true"))
	if cp.Type != embed.TypeBoolean {
		t.Fatalf("type = %v", cp.Type)
	}
	if cp.Stats.TrueRatio != 0.75 {
		t.Errorf("true ratio = %v", cp.Stats.TrueRatio)
	}
}

func TestProfileJSONRoundtrip(t *testing.T) {
	p := New()
	cp := profileSeries(p, "d", "t", seriesOf("c", "a", "b"))
	data, err := cp.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"fine_grained_type"`) {
		t.Error("JSON missing type field")
	}
}

func TestProfileAllParallel(t *testing.T) {
	p := New()
	rng := rand.New(rand.NewSource(11))
	var tables []Table
	for i := 0; i < 6; i++ {
		df := dataframe.New(fmt.Sprintf("t%d.csv", i))
		a := &dataframe.Series{Name: "a"}
		b := &dataframe.Series{Name: "b"}
		for r := 0; r < 50; r++ {
			a.Cells = append(a.Cells, dataframe.NumberCell(float64(rng.Intn(100))))
			b.Cells = append(b.Cells, dataframe.TextCell(fmt.Sprintf("v%d", rng.Intn(10))))
		}
		df.AddColumn(a)
		df.AddColumn(b)
		tables = append(tables, Table{Dataset: "ds", Frame: df})
	}
	profiles, tableErrs, err := p.ProfileSource(context.Background(), Frames(tables))
	if err != nil || len(tableErrs) != 0 {
		t.Fatal(err, tableErrs)
	}
	if len(profiles) != 12 {
		t.Fatalf("profiles = %d, want 12", len(profiles))
	}
	// Deterministic order: table 0 col a, table 0 col b, table 1 col a, ...
	if profiles[0].Table != "t0.csv" || profiles[0].Column != "a" {
		t.Errorf("order[0] = %s/%s", profiles[0].Table, profiles[0].Column)
	}
	if profiles[3].Table != "t1.csv" || profiles[3].Column != "b" {
		t.Errorf("order[3] = %s/%s", profiles[3].Table, profiles[3].Column)
	}
	for _, cp := range profiles {
		if cp == nil {
			t.Fatal("nil profile from parallel path")
		}
	}
	bd := TypeBreakdown(profiles)
	if bd[embed.TypeInt] != 6 || bd[embed.TypeString] != 6 {
		t.Errorf("breakdown = %v", bd)
	}
}

func TestProfileAllSingleWorker(t *testing.T) {
	p := New()
	p.Workers = 0 // must clamp to 1
	df := dataframe.New("x.csv")
	df.AddColumn(seriesOf("a", "1", "2"))
	profiles, _, err := p.ProfileSource(context.Background(), Frames([]Table{{Dataset: "d", Frame: df}}))
	if err != nil || len(profiles) != 1 || profiles[0] == nil {
		t.Fatal("single worker profiling failed")
	}
}
