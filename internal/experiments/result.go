package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"
)

// TrajectorySchemaVersion is the current BENCH_*.json schema version.
// Decoding rejects files written by a newer schema.
const TrajectorySchemaVersion = 1

// Machine records where a trajectory was measured. Perf numbers are only
// comparable between trajectories from like-for-like machines; quality
// numbers are deterministic and comparable everywhere.
type Machine struct {
	GoVersion string `json:"go_version"`
	OS        string `json:"os"`
	Arch      string `json:"arch"`
	NumCPU    int    `json:"num_cpu"`
}

// QualityResult is one (method, task, lake) cell of the quality section:
// discovery precision/recall/F1 at a fixed k against constructed ground
// truth, plus the method's preprocessing and per-query cost.
type QualityResult struct {
	Method       string  `json:"method"`
	Task         string  `json:"task"` // "unionable" or "joinable"
	Lake         string  `json:"lake"`
	K            int     `json:"k"`
	Precision    float64 `json:"precision"`
	Recall       float64 `json:"recall"`
	F1           float64 `json:"f1"`
	PreprocessMS float64 `json:"preprocess_ms"`
	AvgQueryUS   float64 `json:"avg_query_us"`
}

// key identifies a quality cell across trajectories.
func (q QualityResult) key() string {
	return fmt.Sprintf("%s/%s/%s@k=%d", q.Lake, q.Task, q.Method, q.K)
}

// PerfResult is one perf experiment's scalar medians, keyed by metric
// name. Unit suffixes carry comparison semantics: *_ms/*_us/*_mib are
// lower-is-better, *speedup* is higher-is-better (except the ratios in
// perfInformational), anything else (counts, sizes of the workload itself)
// is informational.
type PerfResult struct {
	Experiment string             `json:"experiment"`
	Metrics    map[string]float64 `json:"metrics"`
}

// Trajectory is the top-level BENCH_*.json document: one measured point of
// the repo's performance and quality story.
type Trajectory struct {
	SchemaVersion int             `json:"schema_version"`
	GeneratedAt   string          `json:"generated_at"` // RFC 3339
	GitSHA        string          `json:"git_sha"`
	Quick         bool            `json:"quick"`
	Machine       Machine         `json:"machine"`
	Quality       []QualityResult `json:"quality"`
	Perf          []PerfResult    `json:"perf"`
}

// EncodeTrajectory renders a trajectory in canonical form: sections sorted,
// two-space indentation, trailing newline. Encoding the decode of an
// encoded trajectory reproduces it byte for byte (struct field order is
// fixed, map keys are sorted by encoding/json, and float64 round-trips
// through its shortest decimal form).
func EncodeTrajectory(t *Trajectory) ([]byte, error) {
	if err := validateTrajectory(t); err != nil {
		return nil, err
	}
	c := *t
	c.Quality = append([]QualityResult(nil), t.Quality...)
	sort.Slice(c.Quality, func(i, j int) bool { return c.Quality[i].key() < c.Quality[j].key() })
	c.Perf = append([]PerfResult(nil), t.Perf...)
	sort.Slice(c.Perf, func(i, j int) bool { return c.Perf[i].Experiment < c.Perf[j].Experiment })
	out, err := json.MarshalIndent(&c, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// DecodeTrajectory parses and validates a BENCH_*.json document. It is
// strict: unknown fields, trailing content, unsupported schema versions,
// and out-of-range metrics are all rejected, so the compare gate cannot
// silently accept a malformed or truncated trajectory.
func DecodeTrajectory(data []byte) (*Trajectory, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var t Trajectory
	if err := dec.Decode(&t); err != nil {
		return nil, fmt.Errorf("trajectory: %w", err)
	}
	var trailing json.RawMessage
	if err := dec.Decode(&trailing); err != io.EOF {
		return nil, fmt.Errorf("trajectory: trailing content after document")
	}
	if err := validateTrajectory(&t); err != nil {
		return nil, err
	}
	return &t, nil
}

// validateTrajectory enforces the schema invariants shared by encode and
// decode.
func validateTrajectory(t *Trajectory) error {
	if t.SchemaVersion < 1 || t.SchemaVersion > TrajectorySchemaVersion {
		return fmt.Errorf("trajectory: unsupported schema_version %d (supported: 1..%d)",
			t.SchemaVersion, TrajectorySchemaVersion)
	}
	if t.GeneratedAt != "" {
		if _, err := time.Parse(time.RFC3339, t.GeneratedAt); err != nil {
			return fmt.Errorf("trajectory: generated_at: %w", err)
		}
	}
	seenQ := map[string]bool{}
	for _, q := range t.Quality {
		if q.Method == "" || q.Lake == "" || q.Task == "" {
			return fmt.Errorf("trajectory: quality row with empty method/task/lake")
		}
		if q.K < 1 {
			return fmt.Errorf("trajectory: quality row %s: k must be >= 1", q.key())
		}
		for name, v := range map[string]float64{"precision": q.Precision, "recall": q.Recall, "f1": q.F1} {
			if math.IsNaN(v) || v < 0 || v > 1 {
				return fmt.Errorf("trajectory: quality row %s: %s %v out of [0,1]", q.key(), name, v)
			}
		}
		if q.PreprocessMS < 0 || q.AvgQueryUS < 0 {
			return fmt.Errorf("trajectory: quality row %s: negative timing", q.key())
		}
		if seenQ[q.key()] {
			return fmt.Errorf("trajectory: duplicate quality row %s", q.key())
		}
		seenQ[q.key()] = true
	}
	seenP := map[string]bool{}
	for _, p := range t.Perf {
		if p.Experiment == "" {
			return fmt.Errorf("trajectory: perf section with empty experiment name")
		}
		if seenP[p.Experiment] {
			return fmt.Errorf("trajectory: duplicate perf experiment %q", p.Experiment)
		}
		seenP[p.Experiment] = true
		for k, v := range p.Metrics {
			if k == "" {
				return fmt.Errorf("trajectory: perf %q: empty metric name", p.Experiment)
			}
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				return fmt.Errorf("trajectory: perf %q: metric %q value %v out of range", p.Experiment, k, v)
			}
		}
	}
	return nil
}

// Tolerance is the regression-gate policy. Quality is gated absolutely
// (deterministic seeds make quality reproducible everywhere); perf is
// gated as a fractional slowdown and only meaningful between trajectories
// from like-for-like machines — set Perf <= 0 to disable perf gating (the
// cross-machine CI setting).
type Tolerance struct {
	// Quality is the maximum allowed absolute drop in precision, recall,
	// or F1 for a quality cell present in the old trajectory.
	Quality float64
	// Perf is the allowed fractional slowdown: a lower-is-better metric
	// regresses when new > old*(1+Perf); a speedup metric regresses when
	// new < old/(1+Perf). <= 0 disables perf comparison entirely.
	Perf float64
}

// DefaultTolerance gates quality at two points and perf at a 50% slowdown.
func DefaultTolerance() Tolerance { return Tolerance{Quality: 0.02, Perf: 0.5} }

// Regression is one metric that moved past its tolerance between two
// trajectories. New < 0 means the metric disappeared.
type Regression struct {
	Metric string  `json:"metric"`
	Old    float64 `json:"old"`
	New    float64 `json:"new"`
	Limit  float64 `json:"limit"` // the bound New violated
}

func (r Regression) String() string {
	if r.New < 0 {
		return fmt.Sprintf("%s: present in old trajectory, missing from new", r.Metric)
	}
	return fmt.Sprintf("%s: %.4g -> %.4g (limit %.4g)", r.Metric, r.Old, r.New, r.Limit)
}

// perfInformational lists ratios of two metrics that are gated on their
// own (bootstrap_ms ÷ load_ms, rebootstrap_ms ÷ incremental_ms). Gating the
// ratio as well would read a faster bootstrap — the numerator — as a
// regression while nothing got slower.
var perfInformational = map[string]bool{
	"snapshot/load_speedup": true,
	"ingest/ingest_speedup": true,
}

// perfDirection classifies a perf metric of an experiment by its unit
// suffix.
func perfDirection(experiment, key string) int {
	switch {
	case perfInformational[experiment+"/"+key]:
		return 0
	case strings.Contains(key, "speedup"):
		return +1 // higher is better
	case strings.HasSuffix(key, "_ms") || strings.HasSuffix(key, "_us") || strings.HasSuffix(key, "_mib"):
		return -1 // lower is better
	default:
		return 0 // informational (workload sizes, counts)
	}
}

// perfCaps are absolute bounds on fresh-trajectory metrics, applied no
// matter what the perf tolerance is. The capped metrics are in-process
// ratios (dimensionless percentages), comparable across machines, so
// they stay gated even in the cross-machine CI setting where relative
// perf gating is disabled (-perf-tolerance 0).
var perfCaps = map[string]float64{
	// The observability middleware must cost at most 2% of request
	// latency on a representative read route (docs/OBSERVABILITY.md).
	"server/instrument_overhead_pct": 2.0,
}

// applyPerfCaps checks the fresh trajectory against perfCaps and appends
// a regression per violated cap. Old carries the cap itself so the gate
// output reads "cap 2 exceeded" rather than implying a baseline delta.
func applyPerfCaps(fresh *Trajectory, regs []Regression) []Regression {
	for _, p := range fresh.Perf {
		keys := make([]string, 0, len(p.Metrics))
		for k := range p.Metrics {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if limit, ok := perfCaps[p.Experiment+"/"+k]; ok && p.Metrics[k] > limit {
				regs = append(regs, Regression{
					Metric: fmt.Sprintf("cap:%s:%s", p.Experiment, k),
					Old:    limit, New: p.Metrics[k], Limit: limit,
				})
			}
		}
	}
	return regs
}

// Compare diffs two trajectories under a tolerance. It returns the
// regressions (a non-empty slice fails the gate) and human-readable notes
// about anything compared loosely or skipped: quality coverage is strict
// (every old quality cell must exist in new), while perf metrics are
// compared on the intersection, with disappearances noted, because quick
// and full runs legitimately cover different experiment sizes. Absolute
// perfCaps on the fresh trajectory are enforced unconditionally, before
// any tolerance is consulted.
func Compare(old, fresh *Trajectory, tol Tolerance) (regs []Regression, notes []string) {
	regs = applyPerfCaps(fresh, regs)
	if old.Quick != fresh.Quick {
		notes = append(notes, fmt.Sprintf("note: comparing quick=%v against quick=%v trajectories", old.Quick, fresh.Quick))
	}
	newQ := map[string]QualityResult{}
	for _, q := range fresh.Quality {
		newQ[q.key()] = q
	}
	for _, oq := range old.Quality {
		nq, ok := newQ[oq.key()]
		if !ok {
			regs = append(regs, Regression{Metric: "quality:" + oq.key(), Old: oq.F1, New: -1})
			continue
		}
		for _, m := range []struct {
			name     string
			old, new float64
		}{
			{"precision", oq.Precision, nq.Precision},
			{"recall", oq.Recall, nq.Recall},
			{"f1", oq.F1, nq.F1},
		} {
			limit := m.old - tol.Quality
			if m.new < limit {
				regs = append(regs, Regression{
					Metric: fmt.Sprintf("quality:%s:%s", oq.key(), m.name),
					Old:    m.old, New: m.new, Limit: limit,
				})
			}
		}
	}

	if tol.Perf <= 0 {
		notes = append(notes, "note: perf gating disabled (perf tolerance <= 0)")
		return regs, notes
	}
	newP := map[string]map[string]float64{}
	for _, p := range fresh.Perf {
		newP[p.Experiment] = p.Metrics
	}
	for _, op := range old.Perf {
		metrics, ok := newP[op.Experiment]
		if !ok {
			notes = append(notes, fmt.Sprintf("note: perf experiment %q missing from new trajectory (not gated)", op.Experiment))
			continue
		}
		keys := make([]string, 0, len(op.Metrics))
		for k := range op.Metrics {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			ov := op.Metrics[k]
			nv, ok := metrics[k]
			if !ok {
				notes = append(notes, fmt.Sprintf("note: perf metric %s/%s missing from new trajectory (not gated)", op.Experiment, k))
				continue
			}
			if ov <= 0 {
				continue
			}
			metric := fmt.Sprintf("perf:%s:%s", op.Experiment, k)
			switch perfDirection(op.Experiment, k) {
			case -1:
				limit := ov * (1 + tol.Perf)
				if nv > limit {
					regs = append(regs, Regression{Metric: metric, Old: ov, New: nv, Limit: limit})
				}
			case +1:
				limit := ov / (1 + tol.Perf)
				if nv < limit {
					regs = append(regs, Regression{Metric: metric, Old: ov, New: nv, Limit: limit})
				}
			}
		}
	}
	return regs, notes
}

// Demote returns a deep copy of a trajectory with every gated metric
// pushed past any reasonable tolerance: quality scores collapse toward
// zero, lower-is-better perf metrics quadruple, and speedups collapse.
// It exists so CI (and tests) can prove the compare gate actually fails
// on a regressed trajectory.
func Demote(t *Trajectory) *Trajectory {
	c := *t
	c.Quality = append([]QualityResult(nil), t.Quality...)
	for i := range c.Quality {
		c.Quality[i].Precision *= 0.25
		c.Quality[i].Recall *= 0.25
		c.Quality[i].F1 *= 0.25
	}
	c.Perf = make([]PerfResult, 0, len(t.Perf))
	for _, p := range t.Perf {
		metrics := make(map[string]float64, len(p.Metrics))
		for k, v := range p.Metrics {
			switch perfDirection(p.Experiment, k) {
			case -1:
				metrics[k] = v * 4
			case +1:
				metrics[k] = v / 4
			default:
				metrics[k] = v
				// Push absolutely-capped metrics past their cap so the
				// self-test proves the cap gate fires too.
				if limit, ok := perfCaps[p.Experiment+"/"+k]; ok {
					metrics[k] = limit * 2
				}
			}
		}
		c.Perf = append(c.Perf, PerfResult{Experiment: p.Experiment, Metrics: metrics})
	}
	return &c
}

// FormatTrajectory renders a human summary of a trajectory: the quality
// table and each perf experiment's headline metrics.
func FormatTrajectory(t *Trajectory) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Trajectory %s (git %s, quick=%v, %s/%s %s cpus=%d)\n",
		t.GeneratedAt, t.GitSHA, t.Quick, t.Machine.OS, t.Machine.Arch, t.Machine.GoVersion, t.Machine.NumCPU)
	if len(t.Quality) > 0 {
		fmt.Fprintf(&sb, "%-12s %-10s %-12s %4s %10s %8s %8s %13s %13s\n",
			"Lake", "Task", "Method", "k", "Precision", "Recall", "F1", "Preproc(ms)", "Query(us)")
		for _, q := range t.Quality {
			fmt.Fprintf(&sb, "%-12s %-10s %-12s %4d %10.3f %8.3f %8.3f %13.1f %13.1f\n",
				q.Lake, q.Task, q.Method, q.K, q.Precision, q.Recall, q.F1, q.PreprocessMS, q.AvgQueryUS)
		}
	}
	for _, p := range t.Perf {
		fmt.Fprintf(&sb, "[%s]", p.Experiment)
		keys := make([]string, 0, len(p.Metrics))
		for k := range p.Metrics {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&sb, " %s=%.4g", k, p.Metrics[k])
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
