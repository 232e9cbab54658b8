package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"kglids"
	"kglids/client"
	"kglids/internal/ingest"
	"kglids/internal/server"
)

// This file holds the load generators and the serving stack they drive:
// closed-loop readers, the writer with the reader beside it, and changelog
// replay onto a follower. They run the same traced and untraced; a nil
// tracer records nothing.

// stack is a platform being served: the primary opened from the seed
// snapshot with its changelog and ingest manager and, for service
// workloads, a loopback HTTP server in front.
type stack struct {
	plat    *kglids.Platform
	mgr     *ingest.Manager
	ts      *httptest.Server // nil when the workload reaches the platform in process
	snap    string           // the seed snapshot: what followers start from
	seedPos uint64           // changelog position of the seed snapshot
	idle    []*http.Transport
}

// changelogRetention is the primary's retention budget in quads: far above
// what one run logs, so the compaction floor never passes the seed position
// and a follower can always replay from it.
const changelogRetention = 1 << 26

// serve turns an opened platform into a primary: changelog on, one ingest
// worker (jobs apply one at a time, like the splice they end in) and,
// when overHTTP, the production handler on a loopback listener.
func serve(plat *kglids.Platform, snap string, overHTTP bool) *stack {
	plat.EnableChangelog(changelogRetention)
	s := &stack{plat: plat, snap: snap, seedPos: plat.ChangelogPosition()}
	s.mgr = ingest.New(plat.Core(), ingest.Options{Workers: 1, QueueSize: 8})
	if overHTTP {
		s.ts = httptest.NewServer(server.New(plat, server.Options{Ingest: s.mgr}))
	}
	return s
}

func (s *stack) close() {
	for _, tr := range s.idle {
		tr.CloseIdleConnections()
	}
	if s.ts != nil {
		s.ts.Close()
	}
	s.mgr.Close()
}

// maxClients is the most client goroutines (and connections) a phase may
// run: one per CPU, and never fewer than the writer plus its reader.
func maxClients() int { return max(2, runtime.NumCPU()) }

// targets returns n ways into the stack, one per client goroutine: each
// service target owns one connection.
func (s *stack) targets(n int) ([]target, error) {
	if n > maxClients() {
		return nil, fmt.Errorf("refusing to start %d clients on %d CPUs", n, runtime.NumCPU())
	}
	out := make([]target, n)
	for i := range out {
		if s.ts == nil {
			out[i] = &library{plat: s.plat, mgr: s.mgr}
			continue
		}
		tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
		s.idle = append(s.idle, tr)
		c, err := client.New(s.ts.URL, client.WithHTTPClient(&http.Client{Transport: tr}))
		if err != nil {
			return nil, err
		}
		out[i] = &service{c: c}
	}
	return out, nil
}

// readPlan yields the operations of a read phase. next is called from the
// client goroutine numbered stream, with i counting that stream's calls.
type readPlan struct {
	name string
	next func(stream, i int) *op
	// repeats marks a plan that draws from a fixed set of requests, which
	// is warmed before it is measured.
	repeats bool
	// seen, when not nil, holds the first digest of each distinct request
	// (indexed by op position in the hot set): a later digest that differs
	// is a correctness failure. It is dropped where results may change.
	seen []atomic.Uint64
}

// newHotPlan draws requests Zipf-distributed over the hot set, one
// generator per stream.
func newHotPlan(l *lake, seed int64, streams int) *readPlan {
	hot := hotPlan(l, seed)
	zipfs := make([]*rand.Zipf, streams)
	for i := range zipfs {
		zipfs[i] = rand.NewZipf(rand.New(rand.NewSource(seed+int64(i)*7919)), 1.1, 1, uint64(len(hot)-1))
	}
	return &readPlan{name: "hot", repeats: true, seen: make([]atomic.Uint64, len(hot)),
		next: func(stream, _ int) *op { return &hot[zipfs[stream].Uint64()] }}
}

// newColdPlan yields distinct operations, one visiting order per stream.
func newColdPlan(l *lake, seed int64, streams int, rung string) *readPlan {
	orders := make([]*coldStream, streams)
	for i := range orders {
		orders[i] = newColdStream(l, rand.New(rand.NewSource(seed+int64(i)*104729)))
	}
	return &readPlan{name: "cold", next: func(stream, i int) *op {
		o := orders[stream].op(l, stream, i, rung)
		return &o
	}}
}

// newTruthPlan cycles through the truth queries; the first pass collects
// each query's hits for scoring.
func newTruthPlan(l *lake) (*readPlan, []op) {
	ops := truthPlan(l)
	for i := range ops {
		ops[i].hits = new([]string)
	}
	plain := truthPlan(l)
	return &readPlan{name: "truth", next: func(_, i int) *op {
		if i < len(ops) {
			return &ops[i]
		}
		return &plain[i%len(plain)]
	}}, ops
}

// phaseLog is what a load phase measured. Latencies are in seconds.
type phaseLog struct {
	reads    []float64 // per read; from due time in an open loop
	lateness []float64 // open loop only: actual send minus due
	jobs     []float64 // per job, submit to observed done
	jobLife  []jobTimes
	elapsed  float64
	sparql   []string // a 1-in-50 sample of the SPARQL texts issued
}

// readers views targets as their read halves.
func readers(tgts []target) []reader {
	out := make([]reader, len(tgts))
	for i, t := range tgts {
		out[i] = t
	}
	return out
}

// runner carries what every phase of a run needs.
type runner struct {
	cfg       config
	stdout    io.Writer
	tr        *tracer
	attempted atomic.Int64
	failed    atomic.Int64
	mu        sync.Mutex
	problems  []string
}

// fail records a failed operation or correctness check.
func (r *runner) fail(format string, args ...any) {
	r.failed.Add(1)
	r.mu.Lock()
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
	r.mu.Unlock()
}

// untraced runs fn with tracing off.
func (r *runner) untraced(fn func()) {
	tr := r.tr
	r.tr = nil
	fn()
	r.tr = tr
}

// check counts one correctness check and records it when it does not hold.
func (r *runner) check(ok bool, format string, args ...any) {
	r.attempted.Add(1)
	if !ok {
		r.fail(format, args...)
	}
}

// readOnce issues one read on tgt inside a span, verifies it and returns
// its latency measured from from.
func (r *runner) readOnce(ctx context.Context, tgt reader, plan *readPlan, o *op, from time.Time) float64 {
	_, done := r.tr.start("read", o.kind.String(), 0)
	d, err := tgt.read(ctx, o)
	done()
	lat := time.Since(from).Seconds()
	r.attempted.Add(1)
	if err != nil {
		r.fail("%s %s: %v", plan.name, o, err)
		return lat
	}
	if plan.seen != nil && o.slot > 0 {
		first := &plan.seen[o.slot-1]
		if !first.CompareAndSwap(0, d|1) && first.Load() != d|1 {
			r.fail("hot request %d (%s) changed its result during the run", o.slot-1, o)
		}
	}
	return lat
}

// warm issues reads from plan on every target before a timed phase, so that
// lazy set-up is done and, when the plan repeats requests, the server's result
// cache and each client's ETag cache are as full as they get. A plan of
// distinct requests must be another instance, under another tag, than the
// one measured afterwards.
func (r *runner) warm(ctx context.Context, tgts []reader, plan *readPlan) {
	n := hotRequests
	if plan.repeats {
		n *= 4
	}
	for c, tgt := range tgts {
		for i := 0; i < n; i++ {
			r.readOnce(ctx, tgt, plan, plan.next(c, i), time.Now())
		}
	}
}

// closedLoop runs one client goroutine per target: each sends its next
// request as soon as the previous one completes, until dur has passed or,
// when limit is positive, it has sent limit requests.
func (r *runner) closedLoop(ctx context.Context, tgts []target, plan *readPlan, dur time.Duration, limit int) phaseLog {
	logs := make([]phaseLog, len(tgts))
	var wg sync.WaitGroup
	start := time.Now()
	for c := range tgts {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			sparqls := 0
			for i := 0; time.Since(start) < dur && (limit <= 0 || i < limit); i++ {
				o := plan.next(c, i)
				lat := r.readOnce(ctx, tgts[c], plan, o, time.Now())
				logs[c].reads = append(logs[c].reads, lat)
				if o.kind.isSPARQL() {
					if sparqls%50 == 0 {
						logs[c].sparql = append(logs[c].sparql, o.text)
					}
					sparqls++
				}
			}
		}(c)
	}
	wg.Wait()
	out := phaseLog{elapsed: time.Since(start).Seconds()}
	for _, l := range logs {
		out.reads = append(out.reads, l.reads...)
		out.sparql = append(out.sparql, l.sparql...)
	}
	return out
}

// rate is the phase's reads per second.
func (p phaseLog) rate() float64 { return float64(len(p.reads)) / p.elapsed }

// openLoopRate is the fixed arrival rate of the reader that runs beside the
// writer, in requests per second.
const openLoopRate = 50

// mixed runs the write phase: one closed-loop writer pushes jobs through w
// while one open-loop reader issues plan on rd at openLoopRate on a single
// connection. Each read is timed from when it was due, so a stall is
// charged to every read that queued behind it.
func (r *runner) mixed(ctx context.Context, w, rd target, jobs []job, plan *readPlan) phaseLog {
	var out phaseLog
	var writerDone atomic.Bool
	var wg sync.WaitGroup
	start := time.Now()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; !writerDone.Load(); i++ {
			due := start.Add(time.Duration(float64(i) / openLoopRate * float64(time.Second)))
			time.Sleep(time.Until(due))
			out.lateness = append(out.lateness, max(0, time.Since(due).Seconds()))
			out.reads = append(out.reads, r.readOnce(ctx, rd, plan, plan.next(0, i), due))
		}
	}()
	for i := range jobs {
		_, done := r.tr.start("job", jobs[i].kind.String(), 0)
		t0 := time.Now()
		life, err := w.write(ctx, &jobs[i])
		done()
		r.attempted.Add(1)
		if err != nil {
			r.fail("job %d: %v", i, err)
			continue
		}
		out.jobs = append(out.jobs, time.Since(t0).Seconds())
		out.jobLife = append(out.jobLife, life)
	}
	out.elapsed = time.Since(start).Seconds()
	writerDone.Store(true)
	wg.Wait()
	return out
}

// changelogPage is the page size of in-process changelog replay: the
// server's default for /api/v1/changelog.
const changelogPage = 256

// fixedQuery is the query whose result a follower must reproduce.
const fixedQuery = `SELECT ?t ?n WHERE { ?t a kglids:Table ; kglids:name ?n . } ORDER BY ?t`

// replicate seeds a follower from the seed snapshot, replays the primary's
// whole changelog onto it and checks the two platforms agree. It returns
// the replay time in seconds.
func (r *runner) replicate(ctx context.Context, s *stack) (float64, error) {
	fol, err := kglids.Open(s.snap)
	if err != nil {
		return 0, err
	}
	head := s.plat.ChangelogPosition()
	apply := func(kind string, gen uint64, payload []byte) error {
		_, done := r.tr.start("replica.apply", kind, 0)
		defer done()
		return fol.ApplyChange(kind, gen, payload)
	}
	start := time.Now()
	if s.ts == nil {
		for cursor := s.seedPos; cursor < head; {
			view, err := s.plat.ChangelogSince(cursor, changelogPage)
			if err != nil {
				return 0, err
			}
			for _, e := range view.Entries {
				if err := apply(e.Kind, e.Generation, e.Payload); err != nil {
					return 0, err
				}
				cursor = e.Seq
			}
		}
	} else {
		c, err := client.New(s.ts.URL)
		if err != nil {
			return 0, err
		}
		fctx, cancel := context.WithCancel(ctx)
		defer cancel()
		f := &client.Follower{Client: c, Cursor: s.seedPos, Poll: time.Millisecond,
			Apply: func(e client.ChangeEntry) error { return apply(e.Kind, e.Generation, e.Payload) },
			OnProgress: func(cursor, _ uint64) {
				if cursor >= head {
					cancel()
				}
			}}
		if err := f.Run(fctx); !errors.Is(err, context.Canceled) {
			return 0, fmt.Errorf("follower: %w", err)
		}
	}
	took := time.Since(start).Seconds()

	r.check(fol.Stats() == s.plat.Stats(), "follower stats %+v differ from primary %+v", fol.Stats(), s.plat.Stats())
	r.check(fol.Generation() == s.plat.Generation(), "follower generation %d, primary %d", fol.Generation(), s.plat.Generation())
	want, err1 := (&library{plat: s.plat}).read(ctx, &op{kind: opSPARQLLight, text: fixedQuery})
	got, err2 := (&library{plat: fol}).read(ctx, &op{kind: opSPARQLLight, text: fixedQuery})
	r.check(err1 == nil && err2 == nil && want == got, "follower answers the fixed query differently (%v, %v)", err1, err2)
	return took, nil
}

// sameAtAnyWidth re-runs sampled SPARQL texts at one query worker and at the
// default width and checks both return the same rows. The texts end in a
// comment, so extending them keeps the query and dodges the result cache.
func (r *runner) sameAtAnyWidth(ctx context.Context, plat *kglids.Platform, texts []string) {
	lib := &library{plat: plat}
	for _, text := range texts {
		plat.SetQueryWorkers(1)
		serial, err1 := lib.read(ctx, &op{kind: opSPARQLLight, text: text + " w1"})
		plat.SetQueryWorkers(0)
		wide, err2 := lib.read(ctx, &op{kind: opSPARQLLight, text: text + " wd"})
		r.check(err1 == nil && err2 == nil && serial == wide, "query differs between 1 and default workers: %s", text)
	}
}
