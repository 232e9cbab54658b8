// Command bench is the repository's performance benchmark: four workloads
// over generated data lakes, measured end to end with tracing off and, in a
// separate traced run, layer by layer. BENCHMARK.json at the root of the
// repository declares the workloads and metrics; README.md explains them.
//
// Run it from the root of the repository with `bash bench/run.sh`.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// metricSpec is one metric declared in BENCHMARK.json. Only end-to-end
// metrics have a bound, and theirs is never 0.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is BENCHMARK.json.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &spec, nil
}

// declared returns the metrics a run must emit: the end-to-end ones untraced,
// the per-layer ones traced.
func (s *benchSpec) declared(trace bool) []metricSpec {
	if trace {
		return s.PerLayer
	}
	return s.EndToEnd
}

// defaultSeed is the seed of a run that names none.
const defaultSeed = 1

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout))
}

func realMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var cfg config
	var trace, calibrate int
	var specPath string
	fs.StringVar(&cfg.workload, "workload", "", "workload to run; empty runs every workload, untraced and traced")
	fs.Int64Var(&cfg.seed, "seed", defaultSeed, "seed of the lake, script, job and request plans")
	fs.Float64Var(&cfg.seconds, "seconds", 0, "seconds of read phase in a run, split over its rounds; job plans scale with it (default: run_seconds of BENCHMARK.json)")
	fs.IntVar(&trace, "trace", 0, "1 records spans and reports the per-layer metrics; 0 reports the end-to-end metrics")
	fs.BoolVar(&cfg.short, "short", false, "smoke scale: about 1/50 of every lake, plan and phase")
	fs.StringVar(&cfg.outDir, "out", filepath.Join("bench", "out"), "directory for traces and scratch files")
	fs.StringVar(&specPath, "spec", "BENCHMARK.json", "path of BENCHMARK.json")
	fs.IntVar(&calibrate, "calibrate", 0, "run every workload this many times, report the spread of every metric and rewrite the bounds in BENCHMARK.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, err := loadSpec(specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if cfg.seconds <= 0 {
		cfg.seconds = float64(spec.RunSeconds)
	}
	if cfg.short {
		cfg.seconds = min(cfg.seconds, 0.3)
	}
	cfg.trace = trace != 0
	// The server logs each slow or failed request; keep stdout for results.
	slog.SetDefault(slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelError})))

	if calibrate > 0 {
		return runCalibration(spec, specPath, cfg, calibrate, stdout)
	}
	if cfg.workload != "" {
		w, ok := findWorkload(cfg.workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", cfg.workload)
			return 2
		}
		return runOne(spec, w, cfg, stdout)
	}
	code := 0
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			c := cfg
			c.workload, c.trace = w.name, traced
			if rc := runOne(spec, w, c, stdout); rc != 0 {
				code = rc
			}
		}
	}
	return code
}

// outcome is the last line of a run's standard output.
type outcome struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricPoint `json:"metrics"`
}

type metricPoint struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOne runs one workload once, prints its header, every metric with unit
// and sample count, and the outcome line. It returns the exit code: 0 only
// when every operation succeeded, every check held and exactly the declared
// metrics were emitted.
func runOne(spec *benchSpec, w workload, cfg config, stdout io.Writer) int {
	err := os.MkdirAll(cfg.outDir, 0o755)
	var work string
	if err == nil {
		work, err = os.MkdirTemp(cfg.outDir, "work-"+w.name+"-")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(work)
	if work, err = filepath.Abs(work); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}

	sha := os.Getenv("KGLIDS_BENCH_GIT_SHA")
	if sha == "" {
		sha = "unknown"
	}
	fmt.Fprintf(stdout, "# workload=%s seed=%d seconds=%g trace=%v short=%v nproc=%d GOMAXPROCS=%d %s commit=%s\n",
		w.name, cfg.seed, cfg.seconds, cfg.trace, cfg.short, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), sha)
	r := &runner{cfg: cfg, stdout: stdout}
	res := newResults()
	ctx := context.Background()
	start := time.Now()
	if cfg.trace {
		r.tr = newTracer()
		err = r.runTraced(ctx, w, work, res)
		if ferr := r.tr.flush(cfg.outDir, w.name); ferr != nil && err == nil {
			err = ferr
		}
	} else {
		err = r.runUntraced(ctx, w, work, res)
	}
	declared := spec.declared(cfg.trace)
	if err == nil {
		err = res.check(declared)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}

	out := outcome{Correct: r.failed.Load() == 0, Attempted: r.attempted.Load(), Failed: r.failed.Load(),
		Metrics: map[string]metricPoint{}}
	for _, m := range declared {
		v := res.values[m.Name]
		fmt.Fprintf(stdout, "%-34s %14.6g %-10s n=%d\n", m.Name, v.Value, m.Unit, v.Samples)
		out.Metrics[m.Name] = metricPoint{v.Value, m.Unit}
	}
	for _, p := range r.problems {
		fmt.Fprintln(stdout, "FAILED:", p)
	}
	fmt.Fprintf(stdout, "# %s trace=%v took %.1fs, fail ratio %d/%d\n", w.name, cfg.trace, time.Since(start).Seconds(), out.Failed, out.Attempted)
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

// printPlans prints, under the run's header, the lake the seed produced and
// a hash of each plan over it, so that two runs can be seen to have executed
// the same plans.
func (r *runner) printPlans(w workload, l *lake) {
	reads, jobs := planHashes(w, r.cfg, l)
	fmt.Fprintf(r.stdout, "# lake: %d family + %d noise + %d held-out tables, %d scripts, truth k=%d; plan hashes: reads=%016x jobs=%016x (%d jobs)\n",
		len(l.family), len(l.noise), len(l.extra), len(l.scripts), l.truthK, reads, jobs, w.jobs(r.cfg))
}

// planHashes hashes the plans a (workload, seed) pair produces over l: the
// first 256 reads of two streams, whatever the machine, and the job plan.
func planHashes(w workload, cfg config, l *lake) (reads, jobs uint64) {
	var ops []op
	plan := w.plan(l, cfg.seed, 2, "")
	for c := 0; c < 2; c++ {
		for i := 0; i < 256; i++ {
			ops = append(ops, *plan.next(c, i))
		}
	}
	return hashOps(ops), hashJobs(l.jobPlan(w.jobs(cfg), cfg.seed))
}
