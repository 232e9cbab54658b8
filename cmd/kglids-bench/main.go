// Command kglids-bench regenerates the paper's tables and figures
// (Section 6) over the synthetic workload replicas and prints them in the
// paper's layout, and runs the repo's discovery-quality gate.
//
// Usage:
//
//	kglids-bench [-pipelines N] [-training N] [experiment ...]
//	kglids-bench eval [-quick] [-out F] [-compare OLD.json] [-against NEW.json]
//	                  [-demote IN.json]
//	kglids-bench checkmetrics [-require FAMILY]... <file|url|->
//
// Experiments: table1 table2 figure5 figure6 figure4 table3 table4 table5
// figure7 table6 figure8 figure9, or "all" (default). Table 2 / Figure 5
// share one run, as do Table 3 / Table 4 / Figure 4 and Table 5 / Figure 7
// and Table 6 / Figure 8.
//
// The eval subcommand is the quality gate: it scores discovery quality
// (precision/recall/F1 against constructed ground truth) for the platform
// and the vendored baselines through one shared interface and writes a
// versioned BENCH_<date>.json trajectory at the current directory.
// -compare diffs a previous trajectory against the fresh run (or against
// -against without running) and exits non-zero when any precision, recall
// or F1 drops by more than 0.02; -demote writes a deliberately regressed
// copy of a trajectory so CI can prove the gate fails when it should.
// Performance is measured by the benchmark in bench/ (BENCHMARK.json), not
// here. See docs/BENCHMARKS.md.
//
// The checkmetrics subcommand validates a Prometheus text exposition
// (file, URL, or stdin) and optionally asserts named families are
// present; CI uses it to smoke-test a live kglids-server /metrics
// endpoint. See docs/OBSERVABILITY.md.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"time"

	"kglids/internal/experiments"
	"kglids/internal/obs"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "eval" {
		os.Exit(evalMain(os.Args[2:]))
	}
	if len(os.Args) > 1 && os.Args[1] == "checkmetrics" {
		os.Exit(checkMetricsMain(os.Args[2:]))
	}

	pipelines := flag.Int("pipelines", 300, "corpus size for abstraction/AutoML experiments")
	training := flag.Int("training", 24, "training datasets for the cleaning/transformation GNNs")
	flag.Parse()

	known := map[string]bool{"all": true}
	for _, n := range strings.Fields("table1 table2 figure5 figure6 figure4 table3 table4 table5 figure7 table6 figure8 figure9") {
		known[n] = true
	}
	want := map[string]bool{}
	if flag.NArg() == 0 {
		want["all"] = true
	}
	for _, a := range flag.Args() {
		if !known[a] {
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", a)
			os.Exit(2)
		}
		want[a] = true
	}
	run := func(names ...string) bool {
		if want["all"] {
			return true
		}
		for _, n := range names {
			if want[n] {
				return true
			}
		}
		return false
	}

	if run("table1") {
		fmt.Println(experiments.FormatTable1(experiments.RunTable1()))
	}
	if run("table2", "figure5") {
		runs := experiments.RunTable2AndFigure5(experiments.Specs())
		fmt.Println(experiments.FormatTable2(runs))
		fmt.Println(experiments.FormatFigure5(runs))
	}
	if run("figure6") {
		fmt.Println(experiments.FormatFigure6(experiments.RunFigure6()))
	}
	if run("table3", "table4", "figure4") {
		r := experiments.RunAbstraction(*pipelines)
		fmt.Println(experiments.FormatFigure4(r))
		fmt.Println(experiments.FormatTable3(r))
		fmt.Println(experiments.FormatTable4(r))
	}
	if run("table5", "figure7") {
		rows := experiments.RunTable5(*training)
		fmt.Println(experiments.FormatTable5(rows))
		fmt.Println(experiments.FormatFigure7(rows))
	}
	if run("table6", "figure8") {
		rows := experiments.RunTable6(*training)
		fmt.Println(experiments.FormatTable6(rows))
		fmt.Println(experiments.FormatFigure8(rows))
	}
	if run("figure9") {
		fmt.Println(experiments.FormatFigure9(experiments.RunFigure9(*pipelines)))
	}
}

// evalMain is the `kglids-bench eval` entry point. Exit codes: 0 success,
// 1 regression detected or run failure, 2 usage error.
func evalMain(args []string) int {
	fs := flag.NewFlagSet("eval", flag.ExitOnError)
	quick := fs.Bool("quick", false, "CI-scale evaluation lake")
	out := fs.String("out", "", "trajectory output path (default BENCH_<YYYY-MM-DD>.json)")
	compare := fs.String("compare", "", "gate: old trajectory file to compare the fresh run against")
	against := fs.String("against", "", "with -compare: diff OLD against this file instead of running the eval")
	demote := fs.String("demote", "", "write a deliberately regressed copy of this trajectory to -out and exit")
	fs.Parse(args)
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "eval: unexpected arguments: %s\n", strings.Join(fs.Args(), " "))
		return 2
	}

	if *demote != "" {
		if *out == "" {
			fmt.Fprintln(os.Stderr, "eval: -demote requires -out")
			return 2
		}
		t, err := readTrajectory(*demote)
		if err != nil {
			fmt.Fprintln(os.Stderr, "eval:", err)
			return 1
		}
		if err := writeTrajectory(*out, experiments.Demote(t)); err != nil {
			fmt.Fprintln(os.Stderr, "eval:", err)
			return 1
		}
		fmt.Printf("eval: wrote regressed copy of %s to %s\n", *demote, *out)
		return 0
	}

	if *against != "" {
		if *compare == "" {
			fmt.Fprintln(os.Stderr, "eval: -against requires -compare")
			return 2
		}
		old, err := readTrajectory(*compare)
		if err != nil {
			fmt.Fprintln(os.Stderr, "eval:", err)
			return 1
		}
		fresh, err := readTrajectory(*against)
		if err != nil {
			fmt.Fprintln(os.Stderr, "eval:", err)
			return 1
		}
		return reportCompare(*compare, *against, old, fresh)
	}

	started := time.Now()
	t, err := experiments.RunEval(experiments.EvalOptions{
		Quick:       *quick,
		GitSHA:      gitSHA(),
		GeneratedAt: started,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "eval:", err)
		return 1
	}
	path := *out
	if path == "" {
		path = "BENCH_" + started.UTC().Format("2006-01-02") + ".json"
	}
	if err := writeTrajectory(path, t); err != nil {
		fmt.Fprintln(os.Stderr, "eval:", err)
		return 1
	}
	fmt.Print(experiments.FormatTrajectory(t))
	fmt.Printf("%s in %v -> %s\n", experiments.EvalSummary(t), time.Since(started).Round(time.Second), path)

	if *compare != "" {
		old, err := readTrajectory(*compare)
		if err != nil {
			fmt.Fprintln(os.Stderr, "eval:", err)
			return 1
		}
		return reportCompare(*compare, path, old, t)
	}
	return 0
}

// checkMetricsMain is the `kglids-bench checkmetrics` entry point: it
// validates a Prometheus text exposition — from a file, an http(s) URL,
// or stdin ("-") — against the 0.0.4 structural rules (TYPE lines,
// histogram bucket monotonicity, label escaping) and optionally requires
// named metric families to be present. CI boots kglids-server with
// -debug-addr and points this at /metrics so a malformed or empty
// exposition fails the build. Exit codes: 0 valid, 1 invalid or
// unreadable, 2 usage error.
func checkMetricsMain(args []string) int {
	fs := flag.NewFlagSet("checkmetrics", flag.ExitOnError)
	var require requiredFamilies
	fs.Var(&require, "require", "metric family that must be present (repeatable)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: kglids-bench checkmetrics [-require FAMILY]... <file|url|->")
		return 2
	}
	src := fs.Arg(0)

	var data []byte
	var err error
	switch {
	case src == "-":
		data, err = io.ReadAll(os.Stdin)
	case strings.HasPrefix(src, "http://") || strings.HasPrefix(src, "https://"):
		var resp *http.Response
		if resp, err = http.Get(src); err == nil {
			data, err = io.ReadAll(resp.Body)
			resp.Body.Close()
			if err == nil && resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("GET %s: status %s", src, resp.Status)
			}
		}
	default:
		data, err = os.ReadFile(src)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "checkmetrics:", err)
		return 1
	}

	if err := obs.ValidateExposition(bytes.NewReader(data)); err != nil {
		fmt.Fprintln(os.Stderr, "checkmetrics: invalid exposition:", err)
		return 1
	}
	families := map[string]bool{}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "# TYPE "); ok {
			families[strings.Fields(name)[0]] = true
		}
	}
	missing := 0
	for _, want := range require {
		if !families[want] {
			fmt.Fprintf(os.Stderr, "checkmetrics: required family %q missing\n", want)
			missing++
		}
	}
	if missing > 0 {
		return 1
	}
	fmt.Printf("checkmetrics: %s valid (%d families)\n", src, len(families))
	return 0
}

// requiredFamilies is a repeatable -require flag.
type requiredFamilies []string

func (r *requiredFamilies) String() string     { return strings.Join(*r, ",") }
func (r *requiredFamilies) Set(v string) error { *r = append(*r, v); return nil }

// reportCompare prints the diff verdict and returns the process exit code.
func reportCompare(oldPath, newPath string, old, fresh *experiments.Trajectory) int {
	regs, notes := experiments.Compare(old, fresh)
	for _, n := range notes {
		fmt.Println(n)
	}
	if len(regs) == 0 {
		fmt.Printf("compare: no regressions (%s -> %s)\n", oldPath, newPath)
		return 0
	}
	fmt.Fprintf(os.Stderr, "compare: %d regression(s) (%s -> %s):\n", len(regs), oldPath, newPath)
	for _, r := range regs {
		fmt.Fprintln(os.Stderr, "  "+r.String())
	}
	return 1
}

func readTrajectory(path string) (*experiments.Trajectory, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	t, err := experiments.DecodeTrajectory(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return t, nil
}

func writeTrajectory(path string, t *experiments.Trajectory) error {
	data, err := experiments.EncodeTrajectory(t)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// gitSHA stamps the trajectory with the current commit, best-effort.
func gitSHA() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}
