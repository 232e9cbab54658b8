package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"time"

	"kglids"
)

// config is what the command line chose for one run.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// short shrinks lakes, plans and phases to about 1/50 for the smoke
	// test; its numbers mean nothing.
	short  bool
	outDir string
}

// workload is one life of the platform. Every workload stands a platform up
// from a CSV directory (bootstrap, register pipelines, save, reopen), serves
// reads from it, applies a job plan beside a reader and replays the
// resulting changelog onto a follower, so every end-to-end metric exists on
// every workload. They differ in where the time goes and in how the
// platform is reached.
type workload struct {
	name  string
	shape lakeShape
	// overHTTP reaches the platform through the typed client over a
	// loopback server; otherwise in process.
	overHTTP bool
	// plan builds the read plan for the given number of streams.
	plan func(l *lake, seed int64, streams int, rung string) *readPlan
	// standUpIsMeasured leaves set-up with writing the lake only and makes
	// the read phase the ground-truth pass over a freshly opened platform:
	// the bootstrap workload.
	standUpIsMeasured bool
	// readsAfterWrites puts the write phase before the read phase, so that
	// reads are served from what the jobs left, and counts allocation per
	// job, not per read: the write-heavy workload.
	readsAfterWrites bool
	// jobsPerSecond sizes the job plan of a run: jobs = jobsPerSecond ×
	// seconds, a fixed count so that both sides of a comparison log the same
	// changes, split evenly over the rounds.
	jobsPerSecond float64
}

func truthReads(l *lake, _ int64, _ int, _ string) *readPlan {
	p, _ := newTruthPlan(l)
	return p
}

func hotReads(l *lake, seed int64, streams int, _ string) *readPlan {
	return newHotPlan(l, seed, streams)
}

// The job rates give a round a write phase of under a second, some twenty
// jobs, enough for a median inside the largest class of job, and the
// write-heavy workload half as many again. Replaying a changelog costs about
// as much as writing it, so each round replays it once.
var workloads = []workload{
	{name: "lake_bootstrap", shape: lakeL, plan: truthReads, standUpIsMeasured: true, jobsPerSecond: 8},
	{name: "serve_hot", shape: lakeM, overHTTP: true, plan: hotReads, jobsPerSecond: 10},
	{name: "query_cold", shape: lakeM, plan: newColdPlan, jobsPerSecond: 10},
	{name: "ingest_mixed", shape: lakeM, overHTTP: true, plan: hotReads, readsAfterWrites: true, jobsPerSecond: 15},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func (w workload) lakeShape(cfg config) lakeShape {
	if cfg.short {
		return w.shape.short()
	}
	return w.shape
}

// rounds is how many times a run lives the workload's life, set-up included.
// This machine is a few cores of a shared host whose speed moves between two
// levels a quarter apart and stays for seconds or for half a minute (a fixed
// spin loop shows it), so one measurement of anything lands on one level or
// the other. Living the life several times spreads every metric's samples
// over the run, and a timing is reported as the mean over the better half of
// the rounds: the rounds the host interfered with least, and still two of
// them, not one extreme.
func rounds(cfg config) int {
	if cfg.short {
		return 2
	}
	return 4
}

// jobs is the length of one round's job plan.
func (w workload) jobs(cfg config) int {
	return max(6, int(math.Round(w.jobsPerSecond*cfg.seconds/float64(rounds(cfg)))))
}

// standTimes are the timings of one stand-up, in seconds.
type standTimes struct {
	bootstrap, pipelines float64
	saves, loads         []float64
	snapBytes            int64
	allocBytes           uint64
	stats                kglids.Stats
}

// standUp stands a platform up the way a deployment does: bootstrap from
// the CSV directory through the dir:// connector, register the pipeline
// scripts, save a snapshot and open it again. It returns the reopened
// platform. Nothing may be left in the failed map and the reopened platform
// must have the statistics of the bootstrapped one.
func (r *runner) standUp(ctx context.Context, l *lake, dir, snap string) (*kglids.Platform, standTimes, error) {
	var st standTimes
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	root, done := r.tr.start("standup", "", 0)
	defer done()
	timed := func(name string, fn func() error) (float64, error) {
		runtime.GC() // every stage starts from a collected heap, whatever ran before it
		_, end := r.tr.start(name, "", root)
		t0 := time.Now()
		err := fn()
		end()
		return time.Since(t0).Seconds(), err
	}

	var plat, opened *kglids.Platform
	var failed map[string]error
	var err error
	if st.bootstrap, err = timed("kglids.BootstrapSource", func() (err error) {
		plat, failed, err = kglids.BootstrapSource(ctx, kglids.Options{}, "dir://"+dir)
		return err
	}); err != nil {
		return nil, st, fmt.Errorf("bootstrap: %w", err)
	}
	st.pipelines, _ = timed("kglids.AddPipelines", func() error { plat.AddPipelines(l.scripts); return nil })
	// Two saves: the first after a bootstrap takes anything between one and
	// two times a repeat, run to run, and the disk sync in either is the
	// noisiest thing a stand-up does. A round counts the faster of its two.
	for range 2 {
		took, err := timed("kglids.Save", func() error { return plat.Save(snap) })
		if err != nil {
			return nil, st, fmt.Errorf("save: %w", err)
		}
		st.saves = append(st.saves, took)
	}
	for range 2 { // as many opens as saves; the last is the one served
		opened = nil
		took, err := timed("kglids.Open", func() (err error) { opened, err = kglids.Open(snap); return err })
		if err != nil {
			return nil, st, fmt.Errorf("open: %w", err)
		}
		st.loads = append(st.loads, took)
	}
	runtime.ReadMemStats(&m1)
	st.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	if info, err := os.Stat(snap); err == nil {
		st.snapBytes = info.Size()
	}
	st.stats = plat.Stats()
	r.check(len(failed) == 0, "bootstrap skipped tables: %v", failed)
	r.check(st.stats.Tables == len(l.family)+len(l.noise), "bootstrapped %d tables, lake has %d", st.stats.Tables, len(l.family)+len(l.noise))
	r.check(plat.Stats() == opened.Stats(), "reopened stats %+v differ from bootstrapped %+v", opened.Stats(), plat.Stats())
	return opened, st, nil
}

// scoreF1 scores collected unionable hits against the ground truth: the F1
// of mean precision and mean recall at the truth-derived k.
func scoreF1(l *lake, ops []op) float64 {
	var pSum, rSum float64
	for i := range ops {
		want := map[string]bool{}
		for _, id := range l.truth[tableID(ops[i].table)] {
			want[id], want[iri(id)] = true, true
		}
		found := 0
		for _, h := range *ops[i].hits {
			if want[h] {
				found++
			}
		}
		pSum += float64(found) / float64(ops[i].k)
		rSum += float64(found) / float64(len(want)/2)
	}
	p, rec := pSum/float64(len(ops)), rSum/float64(len(ops))
	if p+rec == 0 {
		return 0
	}
	return 2 * p * rec / (p + rec)
}

// lifeLog is what one life of a platform measured beyond its stand-up.
type lifeLog struct {
	reads   phaseLog // the reported read phase
	writes  phaseLog // the write phase and the reads beside it
	f1      float64  // of the ground-truth pass; scored in the first round only
	catchup float64  // seconds to replay the changelog onto a follower
	// bytes allocated during the read phase and during the write phase
	readAlloc, writeAlloc uint64
}

// live runs the serving part of a life on a stack: the read phase after a
// warm-up, the write phase with the reader beside it, and the replay of the
// changelog onto a fresh follower. A workload that reads after its writes has
// the first two the other way round. The first round also scores the
// ground-truth pass and checks sampled queries at both worker widths.
func (r *runner) live(ctx context.Context, w workload, l *lake, s *stack, readFor time.Duration, first bool) (lifeLog, error) {
	var out lifeLog
	clients := runtime.NumCPU()
	if w.standUpIsMeasured {
		clients = 1 // the first reads of a freshly opened platform, one by one
	}
	tgts, err := s.targets(clients)
	if err != nil {
		return out, err
	}
	truth, truthOps := newTruthPlan(l)

	reads := func() {
		if w.standUpIsMeasured {
			// The read phase is the ground-truth pass itself.
			out.reads = r.closedLoop(ctx, tgts, truth, time.Hour, len(truthOps))
			return
		}
		// Let caches fill and lazy set-up finish on requests of the same
		// mix; distinct requests carry another tag than the measured ones.
		r.warm(ctx, readers(tgts), w.plan(l, r.cfg.seed, clients, "warm"))
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		out.reads = r.closedLoop(ctx, tgts, w.plan(l, r.cfg.seed, clients, ""), readFor, 0)
		runtime.ReadMemStats(&m1)
		out.readAlloc = m1.TotalAlloc - m0.TotalAlloc
		if first {
			r.closedLoop(ctx, tgts[:1], truth, time.Hour, len(truthOps))
		}
	}
	writes := func() {
		out.writes, _, out.writeAlloc, err = r.writePhase(ctx, w, l, s)
	}
	if w.readsAfterWrites {
		writes()
		reads()
	} else {
		reads()
		writes()
	}
	if err != nil {
		return out, err
	}
	if first {
		out.f1 = scoreF1(l, truthOps)
		r.sameAtAnyWidth(ctx, s.plat, out.reads.sparql)
	}
	if out.catchup, err = r.replicate(ctx, s); err != nil {
		return out, fmt.Errorf("replicate: %w", err)
	}
	return out, nil
}

// writePhase applies the workload's job plan through one writer beside one
// reader, in the workload's mix. The reader repeats the read plan under
// another tag; its results change as jobs land, so they are not compared. It returns what the phase measured, the jobs and
// the bytes allocated meanwhile.
func (r *runner) writePhase(ctx context.Context, w workload, l *lake, s *stack) (phaseLog, []job, uint64, error) {
	pair, err := s.targets(2)
	if err != nil {
		return phaseLog{}, nil, 0, err
	}
	beside := w.plan(l, r.cfg.seed, 1, "w")
	beside.seen = nil
	jobs := l.jobPlan(w.jobs(r.cfg), r.cfg.seed)
	var m0, m1 runtime.MemStats
	runtime.GC() // like every timed phase, this one starts from a collected heap
	runtime.ReadMemStats(&m0)
	log := r.mixed(ctx, pair[0], pair[1], jobs, beside)
	runtime.ReadMemStats(&m1)
	return log, jobs, m1.TotalAlloc - m0.TotalAlloc, nil
}

// roundLog is what one round measured.
type roundLog struct {
	setup float64
	stand standTimes
	life  lifeLog
}

// runUntraced measures the end-to-end metrics of one workload: it lives the
// workload's life once per round, every round over the same lake and the same
// plans, and reports every timing as the mean over the better half of the
// rounds (see rounds).
func (r *runner) runUntraced(ctx context.Context, w workload, work string, res *results) error {
	shape := w.lakeShape(r.cfg)
	n := rounds(r.cfg)
	dir, snap := filepath.Join(work, "lake"), filepath.Join(work, "seed.kgs")
	readFor := time.Duration(r.cfg.seconds / float64(n) * float64(time.Second))

	var logs []roundLog
	var l *lake
	var s *stack
	defer func() { // the last primary lives until the heap is measured
		if s != nil {
			s.close()
		}
	}()
	for round := 0; round < n; round++ {
		if s != nil {
			s.close() // the previous round's primary is gone before this one sets up
			s = nil
		}
		// Set-up: generate the lake, write it out and, unless standing up is
		// what the workload measures, stand the platform up and serve it.
		var log roundLog
		t0 := time.Now()
		l = genLake(shape, extraFamiliesFor(w.jobs(r.cfg)), r.cfg.seed)
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
		if _, err := l.write(dir); err != nil {
			return err
		}
		if w.standUpIsMeasured {
			log.setup = time.Since(t0).Seconds()
		}
		plat, st, err := r.standUp(ctx, l, dir, snap)
		if err != nil {
			return err
		}
		s = serve(plat, snap, w.overHTTP)
		if !w.standUpIsMeasured {
			log.setup = time.Since(t0).Seconds()
		}
		log.stand = st
		if round == 0 {
			r.printPlans(w, l)
		} else {
			// lakegen draws some text values in map order, so two lakes
			// from one seed differ in a few cells, and a few edges with
			// them; what is counted in whole tables and columns does not.
			a, b := st.stats, logs[0].stand.stats
			r.check(a.Tables == b.Tables && a.Columns == b.Columns && a.Datasets == b.Datasets && a.NamedGraphs == b.NamedGraphs,
				"stand-up %d built %+v, the first %+v", round, a, b)
		}
		if log.life, err = r.live(ctx, w, l, s, readFor, round == 0); err != nil {
			return err
		}
		logs = append(logs, log)
		r.printRound(round, log)
	}

	// Assemble: a timing is the mean over the half of the rounds where it
	// was lowest; counts are summed.
	fastest := func(f func(roundLog) float64) float64 {
		v := make([]float64, len(logs))
		for i, log := range logs {
			v[i] = f(log)
		}
		sort.Float64s(v)
		half := v[:max(1, len(v)/2)]
		return sum(half) / float64(len(half))
	}
	var alloc uint64
	var reads, jobs, ops int
	for _, log := range logs {
		reads += len(log.life.reads.reads)
		jobs += len(log.life.writes.jobs)
		switch {
		case w.standUpIsMeasured:
			alloc += log.stand.allocBytes
			ops += log.stand.stats.Tables
		case w.readsAfterWrites:
			alloc += log.life.writeAlloc
			ops += len(log.life.writes.jobs)
		default:
			alloc += log.life.readAlloc
			ops += len(log.life.reads.reads)
		}
	}
	res.put("setup_s", fastest(func(l roundLog) float64 { return l.setup }), n)
	res.put("bootstrap_s", fastest(func(l roundLog) float64 { return l.stand.bootstrap + l.stand.pipelines }), n)
	res.put("snapshot_save_s", fastest(func(l roundLog) float64 { return slices.Min(l.stand.saves) }), n*len(logs[0].stand.saves))
	res.put("snapshot_load_s", fastest(func(l roundLog) float64 { return slices.Min(l.stand.loads) }), n*len(logs[0].stand.loads))
	res.put("unionable_f1", logs[0].life.f1, len(l.family))
	res.put("read_qps", -fastest(func(l roundLog) float64 { return -l.life.reads.rate() }), reads) // highest, so negated
	res.put("read_p50_ms", fastest(func(l roundLog) float64 { return median(l.life.reads.reads) })*1e3, reads)
	res.put("read_p95_ms", fastest(func(l roundLog) float64 { return quantile(l.life.reads.reads, 0.95) })*1e3, reads)
	res.put("ingest_p50_ms", fastest(func(l roundLog) float64 { return median(l.life.writes.jobs) })*1e3, jobs)
	res.put("replica_catchup_s", fastest(func(l roundLog) float64 { return l.life.catchup }), n)
	res.put("alloc_kib_per_op", float64(alloc)/1024/float64(max(1, ops)), ops)

	// Live heap with the primary still serving and everything else gone.
	logs, l = nil, nil
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	res.put("heap_live_mib", float64(m.HeapAlloc)/(1<<20), 1)
	return nil
}

// printRound prints what one round measured, so that a run shows how far its
// rounds were apart.
func (r *runner) printRound(round int, l roundLog) {
	fmt.Fprintf(r.stdout, "# round %d: setup=%.3fs bootstrap=%.3fs save=%.3fs load=%.3fs reads=%d qps=%.1f p50=%.4fms p95=%.4fms job_p50=%.2fms catchup=%.3fs\n",
		round, l.setup, l.stand.bootstrap+l.stand.pipelines, slices.Min(l.stand.saves), slices.Min(l.stand.loads), len(l.life.reads.reads), l.life.reads.rate(),
		median(l.life.reads.reads)*1e3, quantile(l.life.reads.reads, 0.95)*1e3, median(l.life.writes.jobs)*1e3, l.life.catchup)
}
