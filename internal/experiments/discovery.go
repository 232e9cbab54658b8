// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 6) over the synthetic workload replicas: data
// discovery (Table 1, Table 2, Figure 5, Figure 6), pipeline abstraction
// (Figure 4, Table 3, Table 4), on-demand automation (Table 5, Figure 7,
// Table 6, Figure 8), and AutoML (Figure 9). Each Run* function returns
// structured rows; the Format* helpers print them in the paper's layout.
package experiments

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	"kglids/internal/baselines"
	"kglids/internal/core"
	"kglids/internal/embed"
	"kglids/internal/lakegen"
	"kglids/internal/profiler"
)

// BenchmarkStats is one column of Table 1.
type BenchmarkStats struct {
	Name          string
	SizeMB        float64
	Tables        int
	QueryTables   int
	AvgUnionable  float64
	AvgRows       float64
	TotalColumns  int
	TypeBreakdown map[embed.Type]int
}

// Specs returns the four benchmark replicas in Table 1 order.
func Specs() []lakegen.Spec {
	return []lakegen.Spec{lakegen.D3LSmall, lakegen.TUSSmall, lakegen.SANTOSSmall, lakegen.SANTOSLarge}
}

// RunTable1 generates each benchmark and computes its statistics with the
// KGLiDS profiler (the paper notes the type breakdown comes from their
// profiler).
func RunTable1() []BenchmarkStats { return RunTable1Subset(Specs()) }

// RunTable1Subset computes Table 1 statistics for the given specs.
func RunTable1Subset(specs []lakegen.Spec) []BenchmarkStats {
	var out []BenchmarkStats
	for _, spec := range specs {
		b := lakegen.Generate(spec)
		p := profiler.New()
		var tables []profiler.Table
		for _, df := range b.Tables {
			tables = append(tables, profiler.Table{Dataset: b.Dataset[df.Name], Frame: df})
		}
		profiles, _, _ := p.ProfileSource(context.Background(), profiler.Frames(tables)) // frames cannot fail
		out = append(out, BenchmarkStats{
			Name:          spec.Name,
			SizeMB:        float64(b.SizeBytes()) / (1 << 20),
			Tables:        len(b.Tables),
			QueryTables:   len(b.QueryTables),
			AvgUnionable:  b.AvgUnionable(),
			AvgRows:       b.AvgRows(),
			TotalColumns:  b.TotalColumns(),
			TypeBreakdown: profiler.TypeBreakdown(profiles),
		})
	}
	return out
}

// FormatTable1 renders Table 1.
func FormatTable1(stats []BenchmarkStats) string {
	var sb strings.Builder
	sb.WriteString("Table 1: Data Discovery Benchmarks (scaled replicas)\n")
	fmt.Fprintf(&sb, "%-28s", "Statistic")
	for _, s := range stats {
		fmt.Fprintf(&sb, "%14s", s.Name)
	}
	sb.WriteByte('\n')
	row := func(label string, f func(BenchmarkStats) string) {
		fmt.Fprintf(&sb, "%-28s", label)
		for _, s := range stats {
			fmt.Fprintf(&sb, "%14s", f(s))
		}
		sb.WriteByte('\n')
	}
	row("Size (MB)", func(s BenchmarkStats) string { return fmt.Sprintf("%.1f", s.SizeMB) })
	row("No. tables", func(s BenchmarkStats) string { return fmt.Sprintf("%d", s.Tables) })
	row("No. query tables", func(s BenchmarkStats) string { return fmt.Sprintf("%d", s.QueryTables) })
	row("Avg. No. unionable tables", func(s BenchmarkStats) string { return fmt.Sprintf("%.0f", s.AvgUnionable) })
	row("Avg. No. rows per table", func(s BenchmarkStats) string { return fmt.Sprintf("%.0f", s.AvgRows) })
	row("Total columns", func(s BenchmarkStats) string { return fmt.Sprintf("%d", s.TotalColumns) })
	for _, typ := range embed.AllTypes {
		t := typ
		row(string(t)+" cols.", func(s BenchmarkStats) string { return fmt.Sprintf("%d", s.TypeBreakdown[t]) })
	}
	return sb.String()
}

// DiscoverySystemRun is one (benchmark, system) cell of Table 2 plus the
// Figure 5 curves.
type DiscoverySystemRun struct {
	Benchmark  string
	System     string
	Preprocess time.Duration
	AvgQuery   time.Duration
	// PrecisionAtK / RecallAtK, keyed by k.
	PrecisionAtK map[int]float64
	RecallAtK    map[int]float64
}

// KSweep returns the Figure 5 k-values for a benchmark, scaled to the
// replica family sizes.
func KSweep(name string) []int {
	switch {
	case strings.HasPrefix(name, "D3L"):
		return []int{1, 2, 3, 5, 7, 9, 11, 13, 15}
	case strings.HasPrefix(name, "TUS"):
		return []int{1, 2, 3, 4, 5, 6, 7, 8}
	default: // SANTOS
		return []int{1, 2, 3, 4, 5}
	}
}

// RunDiscoveryBenchmark runs the three systems on one benchmark replica,
// producing a Table 2 row group and Figure 5 curves. Every system is
// preprocessed and queried through the shared baselines.Discoverer
// interface, so the comparison cannot drift between methods.
func RunDiscoveryBenchmark(spec lakegen.Spec) []DiscoverySystemRun {
	b := lakegen.Generate(spec)
	ks := KSweep(spec.Name)
	var out []DiscoverySystemRun
	for _, d := range []baselines.Discoverer{baselines.NewSantos(), baselines.NewStarmie(), baselines.NewKGLiDS()} {
		out = append(out, runDiscoverer(spec.Name, b, ks, d))
	}
	return out
}

// runDiscoverer preprocesses the lake with one method and sweeps the
// Figure 5 k-values over the query tables.
func runDiscoverer(benchName string, b *lakegen.Benchmark, ks []int, d baselines.Discoverer) DiscoverySystemRun {
	start := time.Now()
	d.Preprocess(b)
	pre := time.Since(start)
	run := DiscoverySystemRun{Benchmark: benchName, System: d.Name(), Preprocess: pre}
	start = time.Now()
	run.PrecisionAtK, run.RecallAtK = map[int]float64{}, map[int]float64{}
	for _, k := range ks {
		run.PrecisionAtK[k], run.RecallAtK[k], _, _ = scoreTopK(b.QueryTables, b.GroundTruth, k, d.Unionable)
	}
	run.AvgQuery = time.Since(start) / time.Duration(len(ks)*len(b.QueryTables))
	return run
}

// RunTable2AndFigure5 runs all systems over the given benchmark specs.
func RunTable2AndFigure5(specs []lakegen.Spec) []DiscoverySystemRun {
	var out []DiscoverySystemRun
	for _, spec := range specs {
		out = append(out, RunDiscoveryBenchmark(spec)...)
	}
	return out
}

// FormatTable2 renders preprocessing and average query times.
func FormatTable2(runs []DiscoverySystemRun) string {
	var sb strings.Builder
	sb.WriteString("Table 2: Preprocessing and average query time\n")
	fmt.Fprintf(&sb, "%-16s %-10s %14s %14s\n", "Benchmark", "System", "Preprocessing", "Avg. Query")
	for _, r := range runs {
		fmt.Fprintf(&sb, "%-16s %-10s %14s %14s\n", r.Benchmark, r.System, r.Preprocess.Round(time.Millisecond), r.AvgQuery.Round(time.Microsecond))
	}
	return sb.String()
}

// FormatFigure5 renders the precision/recall series per benchmark.
func FormatFigure5(runs []DiscoverySystemRun) string {
	var sb strings.Builder
	sb.WriteString("Figure 5: Average precision and recall of unionable table discovery\n")
	byBench := map[string][]DiscoverySystemRun{}
	var order []string
	for _, r := range runs {
		if _, ok := byBench[r.Benchmark]; !ok {
			order = append(order, r.Benchmark)
		}
		byBench[r.Benchmark] = append(byBench[r.Benchmark], r)
	}
	for _, bench := range order {
		fmt.Fprintf(&sb, "\n[%s]\n", bench)
		ks := KSweep(bench)
		fmt.Fprintf(&sb, "%-10s", "k")
		for _, k := range ks {
			fmt.Fprintf(&sb, "%8d", k)
		}
		sb.WriteByte('\n')
		for _, r := range byBench[bench] {
			fmt.Fprintf(&sb, "P %-8s", r.System)
			for _, k := range ks {
				fmt.Fprintf(&sb, "%8.3f", r.PrecisionAtK[k])
			}
			sb.WriteByte('\n')
		}
		for _, r := range byBench[bench] {
			fmt.Fprintf(&sb, "R %-8s", r.System)
			for _, k := range ks {
				fmt.Fprintf(&sb, "%8.3f", r.RecallAtK[k])
			}
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}

// RunFigure6 is the ablation study on the TUS replica: full KGLiDS,
// fine-grained content-only (no labels) with and without subsampling, and
// coarse-grained models.
func RunFigure6() []DiscoverySystemRun {
	spec := lakegen.TUSSmall
	b := lakegen.Generate(spec)
	ks := KSweep(spec.Name)
	configs := []struct {
		label string
		cfg   core.Config
	}{
		{"KGLiDS", core.Config{}},
		{"Fine-Grained (No Subsampling)", core.Config{SkipLabelSimilarity: true, CoLR: &embed.CoLR{Subsample: false}}},
		{"Fine-Grained", core.Config{SkipLabelSimilarity: true, CoLR: embed.NewCoLR()}},
		{"Coarse-Grained", core.Config{SkipLabelSimilarity: true,
			CoLR: &embed.CoLR{Coarse: true, Subsample: true, SampleFraction: 0.10, MinSample: 1000}}},
	}
	var out []DiscoverySystemRun
	for _, c := range configs {
		out = append(out, runDiscoverer(spec.Name, b, ks, baselines.NewKGLiDSWith(c.label, c.cfg)))
	}
	return out
}

// FormatFigure6 renders the ablation curves.
func FormatFigure6(runs []DiscoverySystemRun) string {
	var sb strings.Builder
	sb.WriteString("Figure 6: Ablation study for table union search on TUS Small\n")
	ks := KSweep("TUS")
	fmt.Fprintf(&sb, "%-32s", "k")
	for _, k := range ks {
		fmt.Fprintf(&sb, "%8d", k)
	}
	sb.WriteByte('\n')
	for _, r := range runs {
		fmt.Fprintf(&sb, "P %-30s", r.System)
		for _, k := range ks {
			fmt.Fprintf(&sb, "%8.3f", r.PrecisionAtK[k])
		}
		sb.WriteByte('\n')
	}
	for _, r := range runs {
		fmt.Fprintf(&sb, "R %-30s", r.System)
		for _, k := range ks {
			fmt.Fprintf(&sb, "%8.3f", r.RecallAtK[k])
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// memDelta measures allocation growth around fn (the Figure 7/8 memory
// metric).
func memDelta(fn func()) int64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return int64(after.TotalAlloc - before.TotalAlloc)
}
