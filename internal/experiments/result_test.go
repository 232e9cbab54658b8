package experiments

import (
	"bytes"
	"strings"
	"testing"
)

// sampleTrajectory builds a small but fully-populated trajectory covering
// every metric direction the compare gate distinguishes.
func sampleTrajectory() *Trajectory {
	return &Trajectory{
		SchemaVersion: TrajectorySchemaVersion,
		GeneratedAt:   "2026-08-07T00:00:00Z",
		GitSHA:        "abc1234",
		Quick:         true,
		Machine:       Machine{GoVersion: "go1.24.0", OS: "linux", Arch: "amd64", NumCPU: 4},
		Quality: []QualityResult{
			{Method: "KGLiDS", Task: "unionable", Lake: "eval-quick", K: 3,
				Precision: 0.5, Recall: 0.6, F1: 0.545, PreprocessMS: 12, AvgQueryUS: 80},
			{Method: "SANTOS", Task: "unionable", Lake: "eval-quick", K: 3,
				Precision: 0.4, Recall: 0.5, F1: 0.444, PreprocessMS: 3, AvgQueryUS: 900},
		},
		Perf: []PerfResult{
			{Experiment: "snapshot", Metrics: map[string]float64{
				"bootstrap_ms": 20, "load_ms": 5, "load_speedup": 4, "tables": 18, "file_mib": 0.7}},
			{Experiment: "ingest", Metrics: map[string]float64{
				"rebootstrap_ms": 20, "incremental_ms": 2, "ingest_speedup": 10}},
			{Experiment: "sparql", Metrics: map[string]float64{
				"int-columns_id_us": 12, "parallel_speedup": 2, "triples": 1446}},
		},
	}
}

func TestTrajectoryRoundTripByteStable(t *testing.T) {
	first, err := EncodeTrajectory(sampleTrajectory())
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeTrajectory(first)
	if err != nil {
		t.Fatal(err)
	}
	second, err := EncodeTrajectory(dec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Errorf("encode(decode(encode)) not byte-stable:\n%s\nvs\n%s", first, second)
	}
	if first[len(first)-1] != '\n' {
		t.Error("canonical encoding must end with a newline")
	}
}

func TestEncodeSortsSections(t *testing.T) {
	tr := sampleTrajectory()
	// Reverse both sections; canonical encoding must not care.
	tr.Quality[0], tr.Quality[1] = tr.Quality[1], tr.Quality[0]
	tr.Perf[0], tr.Perf[1] = tr.Perf[1], tr.Perf[0]
	shuffled, err := EncodeTrajectory(tr)
	if err != nil {
		t.Fatal(err)
	}
	ordered, err := EncodeTrajectory(sampleTrajectory())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(shuffled, ordered) {
		t.Error("section order leaked into canonical encoding")
	}
}

func TestDecodeRejectsMalformed(t *testing.T) {
	valid, err := EncodeTrajectory(sampleTrajectory())
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"truncated", valid[:len(valid)/2]},
		{"trailing content", append(append([]byte(nil), valid...), []byte("{}")...)},
		{"unknown field", bytes.Replace(valid, []byte(`"git_sha"`), []byte(`"git_shaw"`), 1)},
		{"future schema version", bytes.Replace(valid, []byte(`"schema_version": 1`), []byte(`"schema_version": 99`), 1)},
		{"zero schema version", bytes.Replace(valid, []byte(`"schema_version": 1`), []byte(`"schema_version": 0`), 1)},
		{"bad timestamp", bytes.Replace(valid, []byte("2026-08-07T00:00:00Z"), []byte("yesterday-ish"), 1)},
		{"precision above one", bytes.Replace(valid, []byte(`"precision": 0.5`), []byte(`"precision": 1.5`), 1)},
		{"negative metric", bytes.Replace(valid, []byte(`"load_ms": 5`), []byte(`"load_ms": -5`), 1)},
		{"zero k", bytes.Replace(valid, []byte(`"k": 3`), []byte(`"k": 0`), 1)},
	}
	for _, c := range cases {
		if _, err := DecodeTrajectory(c.data); err == nil {
			t.Errorf("%s: decode accepted malformed input", c.name)
		}
	}
}

func TestValidateRejectsDuplicates(t *testing.T) {
	tr := sampleTrajectory()
	tr.Quality = append(tr.Quality, tr.Quality[0])
	if _, err := EncodeTrajectory(tr); err == nil || !strings.Contains(err.Error(), "duplicate quality") {
		t.Errorf("duplicate quality row accepted: %v", err)
	}
	tr = sampleTrajectory()
	tr.Perf = append(tr.Perf, PerfResult{Experiment: tr.Perf[0].Experiment})
	if _, err := EncodeTrajectory(tr); err == nil || !strings.Contains(err.Error(), "duplicate perf") {
		t.Errorf("duplicate perf experiment accepted: %v", err)
	}
}

func TestCompareIdenticalPasses(t *testing.T) {
	regs, _ := Compare(sampleTrajectory(), sampleTrajectory(), DefaultTolerance())
	if len(regs) != 0 {
		t.Errorf("identical trajectories regressed: %v", regs)
	}
}

func TestCompareWithinTolerancePasses(t *testing.T) {
	fresh := sampleTrajectory()
	fresh.Quality[0].Precision -= 0.01   // within 0.02 quality tolerance
	fresh.Perf[0].Metrics["load_ms"] = 7 // 1.4x, within 1.5x perf tolerance
	fresh.Perf[2].Metrics["parallel_speedup"] = 1.5
	regs, _ := Compare(sampleTrajectory(), fresh, DefaultTolerance())
	if len(regs) != 0 {
		t.Errorf("within-tolerance drift regressed: %v", regs)
	}
}

func TestCompareDetectsDemotion(t *testing.T) {
	old := sampleTrajectory()
	regs, _ := Compare(old, Demote(old), DefaultTolerance())
	if len(regs) == 0 {
		t.Fatal("demoted trajectory passed the gate")
	}
	byKind := map[string]bool{}
	for _, r := range regs {
		byKind[strings.SplitN(r.Metric, ":", 2)[0]] = true
	}
	if !byKind["quality"] || !byKind["perf"] {
		t.Errorf("demotion should regress both sections, got %v", regs)
	}
	// Demote must not mutate its input.
	if old.Quality[0].Precision != 0.5 || old.Perf[0].Metrics["load_ms"] != 5 {
		t.Error("Demote mutated its input")
	}
}

func TestCompareMissingQualityCellIsRegression(t *testing.T) {
	fresh := sampleTrajectory()
	fresh.Quality = fresh.Quality[:1]
	regs, _ := Compare(sampleTrajectory(), fresh, DefaultTolerance())
	found := false
	for _, r := range regs {
		if r.New < 0 && strings.Contains(r.Metric, "SANTOS") {
			found = true
			if !strings.Contains(r.String(), "missing") {
				t.Errorf("missing-cell regression renders as %q", r.String())
			}
		}
	}
	if !found {
		t.Errorf("dropped quality cell not flagged: %v", regs)
	}
}

func TestCompareMissingPerfIsNoteNotRegression(t *testing.T) {
	fresh := sampleTrajectory()
	fresh.Perf = fresh.Perf[:1]               // drop the sparql experiment
	delete(fresh.Perf[0].Metrics, "file_mib") // and one metric
	regs, notes := Compare(sampleTrajectory(), fresh, DefaultTolerance())
	if len(regs) != 0 {
		t.Errorf("missing perf coverage should not gate: %v", regs)
	}
	joined := strings.Join(notes, "\n")
	if !strings.Contains(joined, "sparql") || !strings.Contains(joined, "file_mib") {
		t.Errorf("missing perf coverage not noted: %v", notes)
	}
}

func TestComparePerfToleranceDisabled(t *testing.T) {
	fresh := Demote(sampleTrajectory())
	regs, notes := Compare(sampleTrajectory(), fresh, Tolerance{Quality: 0.02, Perf: 0})
	for _, r := range regs {
		if strings.HasPrefix(r.Metric, "perf:") {
			t.Errorf("perf regression gated while disabled: %v", r)
		}
	}
	if !strings.Contains(strings.Join(notes, "\n"), "perf gating disabled") {
		t.Errorf("disabled perf gating not noted: %v", notes)
	}
}

// TestComparePerfCapUnconditional: absolute caps gate the fresh
// trajectory even with perf tolerance disabled (the CI setting), and an
// in-cap value passes.
func TestComparePerfCapUnconditional(t *testing.T) {
	withOverhead := func(pct float64) *Trajectory {
		tr := sampleTrajectory()
		tr.Perf = append(tr.Perf, PerfResult{Experiment: "server",
			Metrics: map[string]float64{"instrument_overhead_pct": pct}})
		return tr
	}
	regs, _ := Compare(withOverhead(1.4), withOverhead(3.5), Tolerance{Quality: 0.02, Perf: 0})
	found := false
	for _, r := range regs {
		if r.Metric == "cap:server:instrument_overhead_pct" {
			found = true
			if r.Limit != 2.0 || r.New != 3.5 {
				t.Errorf("cap regression misreported: %+v", r)
			}
		}
	}
	if !found {
		t.Errorf("over-cap overhead not gated with perf tolerance disabled: %v", regs)
	}

	regs, _ = Compare(withOverhead(1.4), withOverhead(1.9), Tolerance{Quality: 0.02, Perf: 0})
	if len(regs) != 0 {
		t.Errorf("in-cap overhead gated: %v", regs)
	}

	// Demote must push the capped metric over its cap so the CI self-test
	// also proves this gate fires.
	regs, _ = Compare(withOverhead(1.4), Demote(withOverhead(1.4)), Tolerance{Quality: 0.02, Perf: 0})
	found = false
	for _, r := range regs {
		if strings.HasPrefix(r.Metric, "cap:") {
			found = true
		}
	}
	if !found {
		t.Errorf("Demote did not trip the absolute cap: %v", regs)
	}
}

func TestCompareDirectionSemantics(t *testing.T) {
	// Informational metrics (no unit suffix, no "speedup") never gate.
	fresh := sampleTrajectory()
	fresh.Perf[0].Metrics["tables"] = 99999
	fresh.Perf[2].Metrics["triples"] = 1
	regs, _ := Compare(sampleTrajectory(), fresh, DefaultTolerance())
	if len(regs) != 0 {
		t.Errorf("informational metrics gated: %v", regs)
	}
	// A collapsed speedup does gate.
	fresh = sampleTrajectory()
	fresh.Perf[2].Metrics["parallel_speedup"] = 1
	regs, _ = Compare(sampleTrajectory(), fresh, DefaultTolerance())
	if len(regs) != 1 || !strings.Contains(regs[0].Metric, "parallel_speedup") {
		t.Errorf("collapsed speedup not gated: %v", regs)
	}
}

// TestCompareFasterBootstrapIsNotARegression: load_speedup and
// ingest_speedup are bootstrap time over something else, so a bootstrap
// twice as fast halves both while nothing got slower. The gate reads their
// _ms components, which still catch the slowdowns the ratios stood for.
func TestCompareFasterBootstrapIsNotARegression(t *testing.T) {
	fresh := sampleTrajectory()
	snap, ingest := fresh.Perf[0].Metrics, fresh.Perf[1].Metrics
	snap["bootstrap_ms"] /= 2
	snap["load_speedup"] /= 2
	ingest["rebootstrap_ms"] /= 2
	ingest["ingest_speedup"] /= 2
	if regs, _ := Compare(sampleTrajectory(), fresh, DefaultTolerance()); len(regs) != 0 {
		t.Errorf("a bootstrap twice as fast regressed: %v", regs)
	}

	fresh = sampleTrajectory()
	fresh.Perf[0].Metrics["load_ms"] *= 2
	fresh.Perf[1].Metrics["incremental_ms"] *= 2
	regs, _ := Compare(sampleTrajectory(), fresh, DefaultTolerance())
	if len(regs) != 2 || !strings.Contains(regs[0].Metric, "load_ms") || !strings.Contains(regs[1].Metric, "incremental_ms") {
		t.Errorf("slower load and slower ingest should each gate on their own metric, got %v", regs)
	}
}

func FuzzTrajectoryDecode(f *testing.F) {
	valid, err := EncodeTrajectory(sampleTrajectory())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte("{}"))
	f.Add([]byte(`{"schema_version": 1}`))
	f.Add([]byte(`{"schema_version": 99}`))
	f.Add([]byte(`{"schema_version": 1, "surprise": true}`))
	f.Add(valid[:len(valid)/3])
	f.Add(append(append([]byte(nil), valid...), []byte("[]")...))
	f.Add([]byte(`{"schema_version": 1, "perf": [{"experiment": "x", "metrics": {"a_ms": -1}}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := DecodeTrajectory(data)
		if err != nil {
			return
		}
		// Anything that decodes must re-encode canonically and round-trip
		// byte-stably.
		first, err := EncodeTrajectory(tr)
		if err != nil {
			t.Fatalf("decoded trajectory failed to encode: %v", err)
		}
		again, err := DecodeTrajectory(first)
		if err != nil {
			t.Fatalf("canonical encoding failed to decode: %v", err)
		}
		second, err := EncodeTrajectory(again)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Errorf("round-trip not byte-stable:\n%s\nvs\n%s", first, second)
		}
	})
}
