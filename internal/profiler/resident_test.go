package profiler_test

import (
	"fmt"
	"testing"

	"kglids/internal/core"
	"kglids/internal/dataframe"
	"kglids/internal/profiler"
)

// TestResidentFrameIsNeverSketched profiles a 1,000-row, high-cardinality
// frame under reservoir and distinct bounds of 16, through ProfileTable
// and through AddTables. Both must equal the whole-column reference byte
// for byte: a resident frame's bounds are lifted to its row count,
// whatever the configured streaming bounds.
func TestResidentFrameIsNeverSketched(t *testing.T) {
	const rows = 1000
	df := dataframe.New("wide.csv")
	cols := map[string]func(i int) dataframe.Cell{
		"id":    func(i int) dataframe.Cell { return dataframe.NumberCell(float64(i)) },
		"price": func(i int) dataframe.Cell { return dataframe.NumberCell(float64(i*7919%rows) / 3) },
		"code":  func(i int) dataframe.Cell { return dataframe.TextCell(fmt.Sprintf("c-%05d", i*31%rows)) },
		"day": func(i int) dataframe.Cell {
			return dataframe.ParseCell(fmt.Sprintf("20%02d-%02d-%02d", i%25, i%12+1, i%28+1))
		},
		"flag": func(i int) dataframe.Cell { return dataframe.BoolCell(i%3 == 0) },
	}
	for _, name := range []string{"id", "price", "code", "day", "flag"} {
		s := &dataframe.Series{Name: name}
		for i := 0; i < rows; i++ {
			if i%97 == 5 {
				s.Cells = append(s.Cells, dataframe.NullCell())
			} else {
				s.Cells = append(s.Cells, cols[name](i))
			}
		}
		df.AddColumn(s)
	}
	p := profiler.New()
	p.ReservoirSize, p.ExactDistinct = 16, 16
	want := profiler.ReferenceProfiles(p, []profiler.Table{{Dataset: "d", Frame: df}})

	mustEqual := func(path string, got []*profiler.ColumnProfile) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d profiles, want %d", path, len(got), len(want))
		}
		for i := range want {
			g, _ := got[i].JSON()
			w, _ := want[i].JSON()
			if string(g) != string(w) {
				t.Errorf("%s: column %s diverges from the reference:\n  got:  %s\n  want: %s", path, want[i].ID(), g, w)
			}
		}
	}
	mustEqual("ProfileTable", p.ProfileTable("d", df))

	cfg := core.Config{}
	cfg.ReservoirSize, cfg.ExactDistinct = 16, 16
	plat := core.Bootstrap(cfg, nil)
	if _, err := plat.AddTables([]core.Table{{Dataset: "d", Frame: df}}); err != nil {
		t.Fatal(err)
	}
	mustEqual("AddTables", plat.ProfilesView())
}
