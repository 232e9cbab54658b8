package experiments

import (
	"testing"
	"time"
)

// TestRunEval drives the quick evaluation end to end: the trajectory is
// stamped, covers the platform and the vendored baselines, and passes the
// quality gate against itself.
func TestRunEval(t *testing.T) {
	if testing.Short() {
		t.Skip("full eval in -short mode")
	}
	tr, err := RunEval(EvalOptions{
		Quick:       true,
		GitSHA:      "test",
		GeneratedAt: time.Date(2026, 8, 7, 0, 0, 0, 0, time.UTC),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Quick || tr.GitSHA != "test" || tr.GeneratedAt != "2026-08-07T00:00:00Z" ||
		tr.SchemaVersion != TrajectorySchemaVersion {
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

	if regs, _ := Compare(tr, tr); len(regs) != 0 {
		t.Errorf("self-comparison regressed: %v", regs)
	}
}
