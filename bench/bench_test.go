package main

import (
	"bytes"
	"encoding/json"
	"math"
	"regexp"
	"strings"
	"testing"
)

// These tests pin structure only: plans are a function of the seed, metric
// names are well formed, the trace arithmetic is right and every workload
// runs at smoke scale with every check passing. None asserts a time.

const specFile = "../BENCHMARK.json"

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Name: "a", Parent: 1, Start: 10, End: 40},
		{ID: 3, Name: "b", Parent: 1, Start: 30, End: 60},  // overlaps a
		{ID: 4, Name: "c", Parent: 1, Start: 90, End: 120}, // runs past its parent
		{ID: 5, Name: "leaf", Parent: 2, Start: 15, End: 25},
		{ID: 6, Name: "orphan", Parent: 99, Start: 0, End: 7}, // parent was never recorded
	}
	want := map[int]int64{
		1: 100 - (50 + 10), // a∪b covers 10..60, c covers 90..100
		2: 30 - 10,
		3: 30,
		4: 30,
		5: 10,
		6: 7,
	}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("span %d: self time %d, want %d", id, got[id], w)
		}
	}
}

func TestTracerNilIsSilent(t *testing.T) {
	var tr *tracer
	_, done := tr.start("x", "", 0)
	done()
	tr.time("y", "", 0, func() {})
	if d := tr.durations("x", ""); d != nil {
		t.Errorf("nil tracer returned durations %v", d)
	}
	if err := tr.flush(t.TempDir(), "w"); err != nil {
		t.Error(err)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	v := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	q1, q3 := quartiles(v)
	if q1 != 2.75 || q3 != 8.25 || median(v) != 5.5 {
		t.Errorf("quartiles = %v, %v, median %v; want 2.75, 8.25, 5.5", q1, q3, median(v))
	}
	if got := spreadOf(v); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want 1", got)
	}
}

func TestPlansAreAFunctionOfTheSeed(t *testing.T) {
	hashes := func(w workload, seed int64) [2]uint64 {
		cfg := config{seed: seed, seconds: 0.3, short: true}
		reads, jobs := planHashes(w, cfg, genLake(w.lakeShape(cfg), extraFamiliesFor(w.jobs(cfg)), seed))
		return [2]uint64{reads, jobs}
	}
	for _, w := range workloads {
		a, b, other := hashes(w, 7), hashes(w, 7), hashes(w, 8)
		if a != b {
			t.Errorf("%s: same seed gave plans %x and %x", w.name, a, b)
		}
		if a == other {
			t.Errorf("%s: seeds 7 and 8 gave the same plans %x", w.name, a)
		}
	}
}

func TestColdPlanNeverRepeatsAQuery(t *testing.T) {
	w, _ := findWorkload("query_cold")
	cfg := config{seed: 3, short: true}
	l := genLake(w.lakeShape(cfg), 2, 3)
	plan := w.plan(l, 3, 2, "")
	seen := map[string]bool{}
	for c := 0; c < 2; c++ {
		for i := 0; i < 2000; i++ {
			if o := plan.next(c, i); o.kind.isSPARQL() {
				if seen[o.text] {
					t.Fatalf("stream %d op %d repeats %q", c, i, o.text)
				}
				seen[o.text] = true
			}
		}
	}
	if len(seen) < 4*256 {
		t.Errorf("only %d distinct SPARQL texts in 4000 ops: too few to overflow a 256-entry cache", len(seen))
	}
}

func TestColdPlanHoldsItsSharesInEveryHundred(t *testing.T) {
	var counts [numOpKinds]int
	for i, k := range coldKinds {
		if coldTurn[i] != counts[k] {
			t.Errorf("position %d: turn %d of %s, but %d came before", i, coldTurn[i], k, counts[k])
		}
		counts[k]++
	}
	if counts != coldMix {
		t.Errorf("kinds per hundred %v, shares %v", counts, coldMix)
	}
}

func TestJobPlanIsValidInOrder(t *testing.T) {
	l := genLake(lakeM.short(), extraFamiliesFor(60), 5)
	live := map[string]bool{}
	for _, t := range l.noise {
		live[tableID(t)] = true
	}
	family := map[string]bool{}
	for _, t := range l.family {
		family[tableID(t)] = true
	}
	counts := map[jobKind]int{}
	for i, j := range l.jobPlan(60, 5) {
		counts[j.kind]++
		if family[j.id] {
			t.Fatalf("job %d touches family table %s, which reads depend on", i, j.id)
		}
		switch j.kind {
		case jobAdd:
			if live[j.id] {
				t.Fatalf("job %d adds %s, which is live", i, j.id)
			}
			live[j.id] = true
		case jobUpdate:
			if !live[j.id] {
				t.Fatalf("job %d updates %s, which is not live", i, j.id)
			}
		case jobRemove:
			if !live[j.id] {
				t.Fatalf("job %d removes %s, which is not live", i, j.id)
			}
			delete(live, j.id)
		}
	}
	for k := jobAdd; k <= jobRemove; k++ {
		if counts[k] == 0 {
			t.Errorf("plan has no %s job: %v", k, counts)
		}
	}
}

func TestRefusesMoreClientsThanCPUs(t *testing.T) {
	s := &stack{}
	if _, err := s.targets(maxClients() + 1); err == nil {
		t.Error("targets handed out more clients than the machine has CPUs")
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestBenchmarkJSONIsWellFormed(t *testing.T) {
	spec, err := loadSpec(specFile)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	name := func(kind, n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("%s name %q is malformed", kind, n)
		}
		if names[n] {
			t.Errorf("name %q is used twice", n)
		}
		names[n] = true
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		name("workload", w.Name)
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q in the program", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	setup := false
	for _, m := range spec.EndToEnd {
		name("metric", m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("metric %s: unit %q, better %q", m.Name, m.Unit, m.Better)
		}
		if m.Bound <= 0 || m.Bound > maxBound {
			t.Errorf("metric %s: bound %v outside (0, %v]", m.Name, m.Bound, maxBound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in s, lower is better")
	}
	for _, m := range spec.PerLayer {
		name("metric", m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("metric %s: unit %q, better %q", m.Name, m.Unit, m.Better)
		}
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 || len(spec.Paths) != 1 || spec.Paths[0] != "bench" {
		t.Errorf("run_seconds %d, paths %v", spec.RunSeconds, spec.Paths)
	}
}

// TestSmoke runs every workload at 1/50 scale, untraced and traced: every
// operation succeeds, every correctness check holds and each run emits
// exactly the metrics BENCHMARK.json declares for it.
func TestSmoke(t *testing.T) {
	spec, err := loadSpec(specFile)
	if err != nil {
		t.Fatal(err)
	}
	out := t.TempDir()
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			var stdout bytes.Buffer
			code := realMain([]string{"-workload", w.name, "-short", "-trace", trace, "-seed", "11", "-spec", specFile, "-out", out}, &stdout)
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			if code != 0 {
				t.Fatalf("%s trace=%s: exit %d\n%s", w.name, trace, code, stdout.String())
			}
			var res outcome
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%s: last line is not a result: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%s: correct=%v failed=%d attempted=%d", w.name, trace, res.Correct, res.Failed, res.Attempted)
			}
			declared := spec.declared(trace == "1")
			if len(res.Metrics) != len(declared) {
				t.Errorf("%s trace=%s: %d metrics, %d declared", w.name, trace, len(res.Metrics), len(declared))
			}
			for _, m := range declared {
				p, ok := res.Metrics[m.Name]
				if !ok || p.Unit != m.Unit || math.IsNaN(p.Value) || math.IsInf(p.Value, 0) {
					t.Errorf("%s trace=%s: metric %s = %+v (present %v)", w.name, trace, m.Name, p, ok)
				}
				if trace == "0" && p.Value == 0 {
					t.Errorf("%s: end-to-end metric %s is 0", w.name, m.Name)
				}
			}
		}
	}
}
