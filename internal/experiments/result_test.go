package experiments

import (
	"bytes"
	"strings"
	"testing"
)

// sampleTrajectory builds a small but fully-populated trajectory.
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
	// Reverse the cells; canonical encoding must not care.
	tr.Quality[0], tr.Quality[1] = tr.Quality[1], tr.Quality[0]
	shuffled, err := EncodeTrajectory(tr)
	if err != nil {
		t.Fatal(err)
	}
	ordered, err := EncodeTrajectory(sampleTrajectory())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(shuffled, ordered) {
		t.Error("cell order leaked into canonical encoding")
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
		{"future schema version", bytes.Replace(valid, []byte(`"schema_version": 2`), []byte(`"schema_version": 99`), 1)},
		{"retired schema version", bytes.Replace(valid, []byte(`"schema_version": 2`), []byte(`"schema_version": 1`), 1)},
		{"zero schema version", bytes.Replace(valid, []byte(`"schema_version": 2`), []byte(`"schema_version": 0`), 1)},
		{"retired perf section", bytes.Replace(valid, []byte(`"quality"`), []byte(`"perf": [], "quality"`), 1)},
		{"bad timestamp", bytes.Replace(valid, []byte("2026-08-07T00:00:00Z"), []byte("yesterday-ish"), 1)},
		{"precision above one", bytes.Replace(valid, []byte(`"precision": 0.5`), []byte(`"precision": 1.5`), 1)},
		{"negative timing", bytes.Replace(valid, []byte(`"preprocess_ms": 12`), []byte(`"preprocess_ms": -12`), 1)},
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
}

func TestCompareIdenticalPasses(t *testing.T) {
	regs, _ := Compare(sampleTrajectory(), sampleTrajectory())
	if len(regs) != 0 {
		t.Errorf("identical trajectories regressed: %v", regs)
	}
}

func TestCompareWithinTolerancePasses(t *testing.T) {
	fresh := sampleTrajectory()
	fresh.Quality[0].Precision -= 0.01 // within 0.02 quality tolerance
	fresh.Quality[1].F1 -= 0.019
	regs, _ := Compare(sampleTrajectory(), fresh)
	if len(regs) != 0 {
		t.Errorf("within-tolerance drift regressed: %v", regs)
	}
}

func TestCompareDetectsDemotion(t *testing.T) {
	old := sampleTrajectory()
	regs, _ := Compare(old, Demote(old))
	if len(regs) != 3*len(old.Quality) {
		t.Errorf("demotion should regress precision, recall and F1 of every cell, got %v", regs)
	}
	// Demote must not mutate its input.
	if old.Quality[0].Precision != 0.5 {
		t.Error("Demote mutated its input")
	}
}

func TestCompareMissingQualityCellIsRegression(t *testing.T) {
	fresh := sampleTrajectory()
	fresh.Quality = fresh.Quality[:1]
	regs, _ := Compare(sampleTrajectory(), fresh)
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

// TestCompareDirectionSemantics: precision, recall and F1 are
// higher-is-better, so a rise never gates and a drop gates exactly the
// metric that fell.
func TestCompareDirectionSemantics(t *testing.T) {
	fresh := sampleTrajectory()
	fresh.Quality[0].Precision, fresh.Quality[0].Recall, fresh.Quality[0].F1 = 0.9, 0.9, 0.9
	if regs, _ := Compare(sampleTrajectory(), fresh); len(regs) != 0 {
		t.Errorf("improved quality gated: %v", regs)
	}
	fresh = sampleTrajectory()
	fresh.Quality[1].Recall -= 0.1
	regs, _ := Compare(sampleTrajectory(), fresh)
	if len(regs) != 1 || !strings.HasSuffix(regs[0].Metric, "SANTOS@k=3:recall") {
		t.Errorf("dropped recall should gate on its own metric, got %v", regs)
	}
}

// TestCompareFasterBootstrapIsNotARegression: a cell's preprocess_ms is
// the method's bootstrap over the lake and avg_query_us its query cost.
// Both are informational: a bootstrap twice as fast, or twice as slow,
// leaves the gate to the quality scores.
func TestCompareFasterBootstrapIsNotARegression(t *testing.T) {
	for _, scale := range []float64{0.5, 2} {
		fresh := sampleTrajectory()
		for i := range fresh.Quality {
			fresh.Quality[i].PreprocessMS *= scale
			fresh.Quality[i].AvgQueryUS *= scale
		}
		if regs, _ := Compare(sampleTrajectory(), fresh); len(regs) != 0 {
			t.Errorf("timings scaled %gx regressed: %v", scale, regs)
		}
	}
}

func FuzzTrajectoryDecode(f *testing.F) {
	valid, err := EncodeTrajectory(sampleTrajectory())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte("{}"))
	f.Add([]byte(`{"schema_version": 2}`))
	f.Add([]byte(`{"schema_version": 99}`))
	f.Add([]byte(`{"schema_version": 2, "surprise": true}`))
	f.Add(valid[:len(valid)/3])
	f.Add(append(append([]byte(nil), valid...), []byte("[]")...))
	f.Add([]byte(`{"schema_version": 1, "perf": [{"experiment": "x", "metrics": {"a_ms": 1}}]}`))
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
