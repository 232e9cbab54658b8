package experiments

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"kglids/internal/baselines"
	"kglids/internal/lakegen"
)

// EvalOptions configures one standing-evaluation run.
type EvalOptions struct {
	// Quick shrinks the evaluation lake to PR-gate scale.
	Quick bool
	// GitSHA and GeneratedAt stamp the trajectory (best-effort metadata;
	// either may be empty).
	GitSHA      string
	GeneratedAt time.Time
}

// RunEval runs the standing evaluation: discovery quality for the platform
// and every vendored baseline over one ground-truth lake, as one
// Trajectory.
func RunEval(o EvalOptions) (*Trajectory, error) {
	evalSpec := lakegen.FullEvalSpec
	if o.Quick {
		evalSpec = lakegen.QuickEvalSpec
	}
	lake := lakegen.GenerateEval(evalSpec)

	t := &Trajectory{
		SchemaVersion: TrajectorySchemaVersion,
		GitSHA:        o.GitSHA,
		Quick:         o.Quick,
		Machine: Machine{
			GoVersion: runtime.Version(),
			OS:        runtime.GOOS,
			Arch:      runtime.GOARCH,
			NumCPU:    runtime.NumCPU(),
		},
	}
	if !o.GeneratedAt.IsZero() {
		t.GeneratedAt = o.GeneratedAt.UTC().Format(time.RFC3339)
	}
	for _, d := range baselines.All() {
		t.Quality = append(t.Quality, methodQuality(lake, d)...)
	}

	// Round-trip through the codec: validates the run's numbers against
	// the schema and leaves the cells in canonical order.
	enc, err := EncodeTrajectory(t)
	if err != nil {
		return nil, err
	}
	return DecodeTrajectory(enc)
}

// RunQuality scores one method on one evaluation lake: unionable discovery
// always, joinable discovery when the method supports it.
func RunQuality(lake *lakegen.EvalLake, d baselines.Discoverer) []QualityResult {
	return methodQuality(lake, d)
}

// methodQuality preprocesses the lake with one method and scores its
// discovery paths against the constructed ground truth at k derived from
// the lake's average truth-set size — the same k for every method.
func methodQuality(lake *lakegen.EvalLake, d baselines.Discoverer) []QualityResult {
	start := time.Now()
	d.Preprocess(lake.Benchmark)
	preMS := float64(time.Since(start).Microseconds()) / 1e3

	kU := truthK(lake.QueryTables, lake.GroundTruth)
	p, r, f1, queryUS := scoreTopK(lake.QueryTables, lake.GroundTruth, kU, d.Unionable)
	out := []QualityResult{{
		Method: d.Name(), Task: "unionable", Lake: lake.Name, K: kU,
		Precision: p, Recall: r, F1: f1,
		PreprocessMS: preMS, AvgQueryUS: queryUS,
	}}

	if j, ok := d.(baselines.Joiner); ok {
		kJ := truthK(lake.QueryTables, lake.JoinTruth)
		p, r, f1, queryUS = scoreTopK(lake.QueryTables, lake.JoinTruth, kJ, j.Joinable)
		out = append(out, QualityResult{
			Method: d.Name(), Task: "joinable", Lake: lake.Name, K: kJ,
			Precision: p, Recall: r, F1: f1,
			PreprocessMS: preMS, AvgQueryUS: queryUS,
		})
	}
	return out
}

// truthK derives the evaluation k from the average ground-truth set size
// over the query tables, so precision@k is attainable by a perfect method.
func truthK(queries []string, truth map[string][]string) int {
	if len(queries) == 0 {
		return 1
	}
	total := 0
	for _, q := range queries {
		total += len(truth[q])
	}
	k := int(math.Round(float64(total) / float64(len(queries))))
	if k < 1 {
		k = 1
	}
	return k
}

// scoreTopK computes average precision@k, recall@k, their F1, and the
// average per-query latency for one retrieval function — the single
// scoring path shared by the platform and every baseline.
func scoreTopK(queries []string, truth map[string][]string, k int, retrieve func(q string, k int) []string) (precision, recall, f1, avgQueryUS float64) {
	if len(queries) == 0 || k < 1 {
		return 0, 0, 0, 0
	}
	var pSum, rSum float64
	start := time.Now()
	for _, q := range queries {
		want := map[string]bool{}
		for _, o := range truth[q] {
			want[o] = true
		}
		hits := 0
		for _, r := range retrieve(q, k) {
			if want[r] {
				hits++
			}
		}
		pSum += float64(hits) / float64(k)
		if len(want) > 0 {
			rSum += float64(hits) / float64(len(want))
		}
	}
	elapsed := time.Since(start)
	precision = pSum / float64(len(queries))
	recall = rSum / float64(len(queries))
	if precision+recall > 0 {
		f1 = 2 * precision * recall / (precision + recall)
	}
	avgQueryUS = float64(elapsed.Microseconds()) / float64(len(queries))
	return precision, recall, f1, avgQueryUS
}

// EvalSummary is the one-line outcome printed after an eval run.
func EvalSummary(t *Trajectory) string {
	return fmt.Sprintf("eval: %d quality cells", len(t.Quality))
}
