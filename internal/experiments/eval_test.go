package experiments

import (
	"testing"
	"time"
)

// TestRunEvalConcurrent drives the full quick evaluation with every
// experiment running at once. Under `go test -race` this pins that the
// shared lakegen lake, the per-method platforms, and the trajectory
// assembly are race-free.
func TestRunEvalConcurrent(t *testing.T) {
	if testing.Short() {
		t.Skip("full eval in -short mode")
	}
	tr, err := RunEval(EvalOptions{
		Quick:       true,
		Concurrency: 4,
		GitSHA:      "test",
		GeneratedAt: time.Date(2026, 8, 7, 0, 0, 0, 0, time.UTC),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Quick || tr.GitSHA != "test" || tr.GeneratedAt != "2026-08-07T00:00:00Z" {
		t.Errorf("metadata not stamped: %+v", tr)
	}

	// Quality must cover the platform (both tasks) and at least two
	// vendored baselines — the acceptance shape of the harness.
	methods := map[string]bool{}
	tasks := map[string]bool{}
	for _, q := range tr.Quality {
		methods[q.Method] = true
		tasks[q.Method+"/"+q.Task] = true
	}
	if !methods["KGLiDS"] || len(methods) < 3 {
		t.Errorf("quality methods = %v, want KGLiDS plus >= 2 baselines", methods)
	}
	if !tasks["KGLiDS/unionable"] || !tasks["KGLiDS/joinable"] {
		t.Errorf("platform tasks = %v, want unionable and joinable", tasks)
	}

	// Perf must cover all seven standing experiments.
	perf := map[string]bool{}
	for _, p := range tr.Perf {
		perf[p.Experiment] = true
		if len(p.Metrics) == 0 {
			t.Errorf("perf experiment %q has no metrics", p.Experiment)
		}
	}
	for _, want := range []string{"snapshot", "ingest", "sparql", "server", "edges", "connectors", "replicas"} {
		if !perf[want] {
			t.Errorf("perf experiment %q missing (have %v)", want, perf)
		}
	}

	// An eval compared against itself must pass the quality gate. The perf
	// section stays out of it: its absolute caps are wall-clock ratios that
	// hold on the quiet machine kglids-bench eval runs on, not on one that
	// is running the rest of the test suite at the same time.
	quality := *tr
	quality.Perf = nil
	regs, _ := Compare(&quality, &quality, Tolerance{Quality: DefaultTolerance().Quality})
	if len(regs) != 0 {
		t.Errorf("self-comparison regressed: %v", regs)
	}
}
