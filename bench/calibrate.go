package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// Bounds are derived from the spread the calibration saw. A metric may vary
// by a third of its bound between runs of one commit, so the bound is three
// spreads, and never below minBound (a regression smaller than a tenth is not
// worth a rejection) nor above maxBound (the most BENCHMARK.json may hold).
const (
	minBound = 0.10
	maxBound = 0.25
)

// quartiles returns the first and third quartile of values as Python's
// statistics.quantiles(values, n=4) does (the exclusive method), which is
// how the benchmark's spreads are judged.
func quartiles(values []float64) (q1, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	at := func(i int) float64 {
		m := len(s) + 1
		j, delta := i*m/4, i*m%4
		j = min(max(j, 1), len(s)-1)
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spreadOf is the distance between the quartiles as a share of the median.
func spreadOf(values []float64) float64 {
	if len(values) < 2 || median(values) == 0 {
		return 0
	}
	q1, q3 := quartiles(values)
	return (q3 - q1) / math.Abs(median(values))
}

// worseBy is how much worse b is than a, as a share of a, in the direction
// the metric cares about; negative when b is better.
func worseBy(better string, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / math.Abs(a)
	}
	return (b - a) / math.Abs(a)
}

// runCalibration runs every workload n times on this build, each run in a
// process of its own with another seed, prints the median, quartiles and
// spread of every end-to-end metric on every workload, and rewrites the
// bounds in BENCHMARK.json from the widest spread of each metric. It exits
// non-zero when a run fails or when the two halves of the runs disagree by
// more than the bound that was in force.
func runCalibration(spec *benchSpec, specPath string, cfg config, n int, stdout io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	code := 0
	widest := map[string]float64{}
	fmt.Fprintf(stdout, "# calibration: %d runs per workload, seeds %d..%d, %g s per phase\n", n, cfg.seed, cfg.seed+int64(n)-1, cfg.seconds)
	fmt.Fprintf(stdout, "%-16s %-22s %12s %12s %12s %8s %8s  %s\n", "workload", "metric", "median", "q1", "q3", "spread", "halves", "")
	for _, w := range workloads {
		if cfg.workload != "" && cfg.workload != w.name {
			continue
		}
		values := map[string][]float64{}
		for i := 0; i < n; i++ {
			args := []string{"-workload", w.name, "-seed", strconv.FormatInt(cfg.seed+int64(i), 10),
				"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-trace", "0", "-spec", specPath, "-out", cfg.outDir}
			if cfg.short {
				args = append(args, "-short")
			}
			cmd := exec.Command(exe, args...)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s seed %d: %v\n", w.name, cfg.seed+int64(i), err)
				return 1
			}
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			var res outcome
			if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s seed %d: %v\n", w.name, cfg.seed+int64(i), err)
				return 1
			}
			for name, p := range res.Metrics {
				values[name] = append(values[name], p.Value)
			}
		}
		for _, m := range spec.EndToEnd {
			v := values[m.Name]
			q1, q3 := quartiles(v)
			spread := spreadOf(v)
			widest[m.Name] = max(widest[m.Name], spread)
			halves := worseBy(m.Better, median(v[:len(v)/2]), median(v[len(v)/2:]))
			note := ""
			if spread > m.Bound/3 {
				note = "spread above a third of the bound"
			}
			if halves > m.Bound {
				note = "HALVES DISAGREE"
				code = 1
			}
			fmt.Fprintf(stdout, "%-16s %-22s %12.6g %12.6g %12.6g %8.4f %+8.4f  %s\n", w.name, m.Name, median(v), q1, q3, spread, halves, note)
			fmt.Fprintf(stdout, "%-16s %-22s   runs:", "", "")
			for _, x := range v {
				fmt.Fprintf(stdout, " %.4g", x)
			}
			fmt.Fprintln(stdout)
		}
	}

	if cfg.workload != "" {
		return code // one workload cannot set a bound that holds for all
	}
	fmt.Fprintf(stdout, "\n%-22s %8s %8s %8s\n", "metric", "widest", "old", "new")
	for i, m := range spec.EndToEnd {
		bound := math.Ceil(3*widest[m.Name]*100) / 100
		bound = min(max(bound, minBound), maxBound)
		if m.Name == "setup_s" {
			bound = maxBound // set-up is measured least often: the largest bound
		}
		note := ""
		if 3*widest[m.Name] > maxBound {
			note = "  spread above a third of the largest bound"
		}
		fmt.Fprintf(stdout, "%-22s %8.4f %8.2f %8.2f%s\n", m.Name, widest[m.Name], m.Bound, bound, note)
		spec.EndToEnd[i].Bound = bound
	}
	data, err := json.MarshalIndent(spec, "", "  ")
	if err == nil {
		err = os.WriteFile(specPath, append(data, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return code
}
