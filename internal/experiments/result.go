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
// Version 2 carries discovery quality only; decoding rejects every other
// version, including the version-1 files that also carried perf medians.
const TrajectorySchemaVersion = 2

// Machine records where a trajectory was measured. Quality numbers are
// deterministic and comparable everywhere; the per-cell timings are
// informational and only comparable between like-for-like machines.
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

// Trajectory is the top-level BENCH_*.json document: one measured point of
// the repo's discovery-quality story. Performance is measured by the
// benchmark in bench/, not here.
type Trajectory struct {
	SchemaVersion int             `json:"schema_version"`
	GeneratedAt   string          `json:"generated_at"` // RFC 3339
	GitSHA        string          `json:"git_sha"`
	Quick         bool            `json:"quick"`
	Machine       Machine         `json:"machine"`
	Quality       []QualityResult `json:"quality"`
}

// EncodeTrajectory renders a trajectory in canonical form: cells sorted,
// two-space indentation, trailing newline. Encoding the decode of an
// encoded trajectory reproduces it byte for byte (struct field order is
// fixed and float64 round-trips through its shortest decimal form).
func EncodeTrajectory(t *Trajectory) ([]byte, error) {
	if err := validateTrajectory(t); err != nil {
		return nil, err
	}
	c := *t
	c.Quality = append([]QualityResult(nil), t.Quality...)
	sort.Slice(c.Quality, func(i, j int) bool { return c.Quality[i].key() < c.Quality[j].key() })
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
	// A file of another schema version is reported as such, not as the
	// first field this version does not know.
	var head Trajectory
	if json.Unmarshal(data, &head) == nil && head.SchemaVersion != TrajectorySchemaVersion {
		return nil, validateTrajectory(&head)
	}
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
	if t.SchemaVersion != TrajectorySchemaVersion {
		return fmt.Errorf("trajectory: unsupported schema_version %d (supported: %d)",
			t.SchemaVersion, TrajectorySchemaVersion)
	}
	if t.GeneratedAt != "" {
		if _, err := time.Parse(time.RFC3339, t.GeneratedAt); err != nil {
			return fmt.Errorf("trajectory: generated_at: %w", err)
		}
	}
	seen := map[string]bool{}
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
		if seen[q.key()] {
			return fmt.Errorf("trajectory: duplicate quality row %s", q.key())
		}
		seen[q.key()] = true
	}
	return nil
}

// qualityTolerance is the maximum allowed absolute drop in precision,
// recall, or F1 for a quality cell present in the old trajectory. Seeded
// lakes make quality reproducible on every machine, so the bound is the
// same everywhere.
const qualityTolerance = 0.02

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

// Compare diffs two trajectories. It returns the regressions (a non-empty
// slice fails the gate) and human-readable notes. Coverage is strict:
// every old quality cell must exist in new, and none of its precision,
// recall, or F1 may drop by more than qualityTolerance. Rises never gate.
// The per-cell timings are informational.
func Compare(old, fresh *Trajectory) (regs []Regression, notes []string) {
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
			limit := m.old - qualityTolerance
			if m.new < limit {
				regs = append(regs, Regression{
					Metric: fmt.Sprintf("quality:%s:%s", oq.key(), m.name),
					Old:    m.old, New: m.new, Limit: limit,
				})
			}
		}
	}
	return regs, notes
}

// Demote returns a copy of a trajectory with every quality score collapsed
// toward zero, past any reasonable tolerance. It exists so CI (and tests)
// can prove the compare gate actually fails on a regressed trajectory.
func Demote(t *Trajectory) *Trajectory {
	c := *t
	c.Quality = append([]QualityResult(nil), t.Quality...)
	for i := range c.Quality {
		c.Quality[i].Precision *= 0.25
		c.Quality[i].Recall *= 0.25
		c.Quality[i].F1 *= 0.25
	}
	return &c
}

// FormatTrajectory renders a human summary of a trajectory: its
// provenance line and the quality table.
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
	return sb.String()
}
