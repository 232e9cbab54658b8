package lakegen_test

import (
	"context"
	"testing"

	"kglids/internal/embed"
	"kglids/internal/lakegen"
	"kglids/internal/profiler"
)

func TestGenerateShape(t *testing.T) {
	b := lakegen.Generate(lakegen.SANTOSSmall)
	if len(b.Tables) < lakegen.SANTOSSmall.Families*2+lakegen.SANTOSSmall.NoiseTables {
		t.Errorf("tables = %d", len(b.Tables))
	}
	if len(b.QueryTables) != lakegen.SANTOSSmall.QueryTables {
		t.Errorf("query tables = %d", len(b.QueryTables))
	}
	for _, q := range b.QueryTables {
		if len(b.GroundTruth[q]) == 0 {
			t.Errorf("query table %s has no ground truth", q)
		}
	}
	if b.SizeBytes() <= 0 || b.TotalColumns() <= 0 || b.AvgRows() <= 0 {
		t.Error("stats not positive")
	}
}

func TestGroundTruthSymmetric(t *testing.T) {
	b := lakegen.Generate(lakegen.SANTOSSmall)
	for table, others := range b.GroundTruth {
		for _, o := range others {
			found := false
			for _, back := range b.GroundTruth[o] {
				if back == table {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("ground truth not symmetric: %s -> %s", table, o)
			}
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, b := lakegen.Generate(lakegen.D3LSmall), lakegen.Generate(lakegen.D3LSmall)
	if len(a.Tables) != len(b.Tables) {
		t.Fatal("nondeterministic table count")
	}
	for i := range a.Tables {
		if a.Tables[i].Name != b.Tables[i].Name || a.Tables[i].NumRows() != b.Tables[i].NumRows() {
			t.Fatal("nondeterministic table content")
		}
	}
}

func TestBenchmarkShapesDiffer(t *testing.T) {
	d3l, tus, santos := lakegen.Generate(lakegen.D3LSmall), lakegen.Generate(lakegen.TUSSmall), lakegen.Generate(lakegen.SANTOSSmall)
	// D3L has the largest average unionable set (paper Table 1: 110 vs 163
	// vs 14 — D3L per query among the highest relative to lake size).
	if d3l.AvgUnionable() <= santos.AvgUnionable() {
		t.Errorf("D3L avg unionable %v should exceed SANTOS Small %v", d3l.AvgUnionable(), santos.AvgUnionable())
	}
	// TUS has the most tables among the small benchmarks.
	if len(tus.Tables) <= len(d3l.Tables) || len(tus.Tables) <= len(santos.Tables) {
		t.Errorf("table counts: tus=%d d3l=%d santos=%d", len(tus.Tables), len(d3l.Tables), len(santos.Tables))
	}
	// SANTOS Large dwarfs all small benchmarks.
	large := lakegen.Generate(lakegen.SANTOSLarge)
	if len(large.Tables) < 3*len(tus.Tables) {
		t.Errorf("SANTOS Large = %d tables", len(large.Tables))
	}
}

func TestTypeDiversity(t *testing.T) {
	// The lake must exercise all seven fine-grained types (Table 1 lists
	// counts for every type).
	b := lakegen.Generate(lakegen.TUSSmall)
	p := profiler.New()
	var tables []profiler.Table
	for _, df := range b.Tables {
		tables = append(tables, profiler.Table{Dataset: b.Dataset[df.Name], Frame: df})
	}
	profiles, _, err := p.ProfileSource(context.Background(), profiler.Frames(tables))
	if err != nil {
		t.Fatal(err)
	}
	breakdown := profiler.TypeBreakdown(profiles)
	for _, typ := range []embed.Type{embed.TypeInt, embed.TypeFloat, embed.TypeBoolean, embed.TypeNamedEntity, embed.TypeNaturalLanguage, embed.TypeString, embed.TypeDate} {
		if breakdown[typ] == 0 {
			t.Errorf("no columns of type %s in generated lake: %v", typ, breakdown)
		}
	}
}

func TestGenerateEval(t *testing.T) {
	lake := lakegen.GenerateEval(lakegen.QuickEvalSpec)
	if len(lake.PlantedJoins) != lakegen.QuickEvalSpec.JoinPairs {
		t.Fatalf("planted %d pairs, want %d", len(lake.PlantedJoins), lakegen.QuickEvalSpec.JoinPairs)
	}

	byName := map[string]map[string]map[string]bool{} // table -> column -> value set
	for _, df := range lake.Tables {
		cols := map[string]map[string]bool{}
		for i := 0; i < df.NumCols(); i++ {
			s := df.ColumnAt(i)
			vals := map[string]bool{}
			for _, c := range s.Cells {
				vals[c.S] = true
			}
			cols[s.Name] = vals
		}
		byName[df.Name] = cols
	}

	for _, pair := range lake.PlantedJoins {
		a, c := pair[0], pair[1]
		if lake.Dataset[a] == lake.Dataset[c] {
			t.Errorf("pair %v planted within one family %s", pair, lake.Dataset[a])
		}
		// The pair must share a column name whose value pools overlap —
		// that is what makes it joinable by construction.
		shared := false
		for name, avals := range byName[a] {
			cvals, ok := byName[c][name]
			if !ok {
				continue
			}
			overlap := 0
			for v := range avals {
				if cvals[v] {
					overlap++
				}
			}
			if overlap > 0 {
				shared = true
			}
		}
		if !shared {
			t.Errorf("pair %v shares no column with overlapping values", pair)
		}
	}

	// Join truth is symmetric and contains unionable (family) truth.
	for table, others := range lake.JoinTruth {
		for _, o := range others {
			back := false
			for _, b := range lake.JoinTruth[o] {
				if b == table {
					back = true
				}
			}
			if !back {
				t.Fatalf("join truth not symmetric: %s -> %s", table, o)
			}
		}
	}
	for table, others := range lake.GroundTruth {
		joinable := map[string]bool{}
		for _, o := range lake.JoinTruth[table] {
			joinable[o] = true
		}
		for _, o := range others {
			if !joinable[o] {
				t.Fatalf("family member %s -> %s missing from join truth", table, o)
			}
		}
	}
}

func TestGenerateEvalDeterministic(t *testing.T) {
	a, b := lakegen.GenerateEval(lakegen.QuickEvalSpec), lakegen.GenerateEval(lakegen.QuickEvalSpec)
	if len(a.PlantedJoins) != len(b.PlantedJoins) {
		t.Fatal("nondeterministic planting")
	}
	for i := range a.PlantedJoins {
		if a.PlantedJoins[i] != b.PlantedJoins[i] {
			t.Fatal("nondeterministic pair selection")
		}
	}
	for i := range a.Tables {
		at, bt := a.Tables[i], b.Tables[i]
		if at.Name != bt.Name || at.NumCols() != bt.NumCols() || at.NumRows() != bt.NumRows() {
			t.Fatalf("nondeterministic table %s", at.Name)
		}
	}
}

func TestGenerateTask(t *testing.T) {
	d := lakegen.GenerateTask(lakegen.TaskSpec{ID: 1, Name: "t", Rows: 200, NumFeatures: 4, CatFeatures: 2, Classes: 2, NullRate: 0.1, Seed: 1})
	if d.Frame.NumRows() != 200 || d.Frame.NumCols() != 7 {
		t.Fatalf("shape = %dx%d", d.Frame.NumRows(), d.Frame.NumCols())
	}
	if d.Frame.NullCount() == 0 {
		t.Error("no nulls injected")
	}
	if d.Frame.Column("target").NullCount() != 0 {
		t.Error("target has nulls")
	}
	if d.Task != "binary" {
		t.Errorf("task = %s", d.Task)
	}
	multi := lakegen.GenerateTask(lakegen.TaskSpec{ID: 2, Name: "m", Rows: 100, NumFeatures: 3, Classes: 4, Seed: 2})
	if multi.Task != "multiclass" {
		t.Errorf("task = %s", multi.Task)
	}
}

func TestSuites(t *testing.T) {
	clean := lakegen.CleaningSuite()
	if len(clean) != 13 {
		t.Errorf("cleaning suite = %d", len(clean))
	}
	// Sizes ascend (Figure 7: "datasets are sorted by size in increasing
	// order").
	for i := 1; i < len(clean); i++ {
		a := clean[i-1].Frame.NumRows() * clean[i-1].Frame.NumCols()
		b := clean[i].Frame.NumRows() * clean[i].Frame.NumCols()
		if b < a {
			t.Errorf("cleaning suite not ascending at %d: %d < %d", i, b, a)
		}
	}
	for _, d := range clean {
		if d.Frame.NullCount() == 0 {
			t.Errorf("dataset %s has no nulls to clean", d.Name)
		}
	}
	tr := lakegen.TransformSuite()
	if len(tr) != 17 {
		t.Errorf("transform suite = %d", len(tr))
	}
	if tr[0].ID != 14 || tr[16].ID != 30 {
		t.Errorf("transform IDs = %d..%d", tr[0].ID, tr[16].ID)
	}
	// Figure 9's x-axes list 11 multi-class + 14 binary dataset IDs.
	am := lakegen.AutoMLSuite()
	if len(am) != 25 {
		t.Errorf("automl suite = %d", len(am))
	}
}

func TestTaskLearnable(t *testing.T) {
	// Sanity: informative features make the task learnable above chance.
	d := lakegen.GenerateTask(lakegen.TaskSpec{ID: 9, Name: "l", Rows: 400, NumFeatures: 6, Classes: 2, Seed: 11})
	m, err := d.Frame.ToMatrix(d.Target)
	if err != nil {
		t.Fatal(err)
	}
	pos := 0
	for _, v := range m.Y {
		if v == 1 {
			pos++
		}
	}
	if pos < 100 || pos > 300 {
		t.Errorf("class balance = %d/400", pos)
	}
}
