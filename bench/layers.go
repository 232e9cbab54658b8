package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"kglids"
	"kglids/client"
	"kglids/internal/connector"
	"kglids/internal/embed"
	"kglids/internal/profiler"
	"kglids/internal/rdf"
	"kglids/internal/schema"
	"kglids/internal/server"
	"kglids/internal/snapshot"
	"kglids/internal/sparql"
	"kglids/internal/store"
	"kglids/internal/vectorindex"
)

// This file is the traced run. It lives the same life as the untraced run,
// once, with a span around every call into a layer's exported functions, and
// adds what only a layer-by-layer view needs: the bootstrap replayed stage by
// stage, sampled reads re-issued at each depth of the serving stack, one
// timed probe per kind of operation, and the job plan replayed directly
// against a second platform. The program under test is not instrumented.

// probes is how many times each kind of operation is probed.
func (r *runner) probes() int {
	if r.cfg.short {
		return 6
	}
	return 60
}

// spanMetric records the median of the spans called name as a metric, scaled
// from seconds by unit.
func (r *runner) spanMetric(res *results, metric, name string, unit float64) {
	d := r.tr.durations(name, "")
	res.put(metric, median(d)*unit, len(d))
}

// runTraced measures the per-layer metrics of one workload.
func (r *runner) runTraced(ctx context.Context, w workload, work string, res *results) error {
	dir, snap := filepath.Join(work, "lake"), filepath.Join(work, "seed.kgs")
	l := genLake(w.lakeShape(r.cfg), extraFamiliesFor(w.jobs(r.cfg)), r.cfg.seed)
	r.printPlans(w, l)
	lakeBytes, err := l.write(dir)
	if err != nil {
		return err
	}

	// Stand up twice: the first grows the heap to its working size, the
	// second is the one compared with the staged replay that follows it.
	r.untraced(func() { _, _, err = r.standUp(ctx, l, dir, snap) })
	if err != nil {
		return err
	}
	plat, st, err := r.standUp(ctx, l, dir, snap)
	if err != nil {
		return err
	}
	runtime.GC() // as the stand-up's own bootstrap started
	staged, err := r.stagedBootstrap(ctx, dir, lakeBytes, plat, res)
	if err != nil {
		return err
	}
	res.put("pipeline.abstract_s", st.pipelines, len(l.scripts))
	res.put("pipeline.scripts_per_s", float64(len(l.scripts))/st.pipelines, len(l.scripts))
	triples := float64(plat.Stats().Triples)
	res.put("snapshot.file_mib", float64(st.snapBytes)/(1<<20), 1)
	res.put("snapshot.bytes_per_triple", float64(st.snapBytes)/triples, 1)
	res.put("core.unattributed_s", st.bootstrap-staged, 1)

	// Serve, in the order the untraced run does: reads then writes, or the
	// other way round where the workload reads what its writes left.
	s := serve(plat, snap, w.overHTTP)
	defer s.close()
	var jobs []job
	var overhead, readRatio, writeRatio float64
	reads := func() error {
		if overhead, readRatio, err = r.tracedReads(ctx, w, l, s, res); err != nil {
			return err
		}
		if err := r.ladder(ctx, w, l, s, res); err != nil {
			return err
		}
		return r.probeKinds(ctx, l, s.plat, res)
	}
	writes := func() error {
		jobs, writeRatio, err = r.tracedWrites(ctx, w, l, s, res)
		return err
	}
	phases := []func() error{reads, writes}
	if w.readsAfterWrites {
		phases = []func() error{writes, reads}
	}
	for _, phase := range phases {
		if err := phase(); err != nil {
			return err
		}
	}
	// The write-heavy workload's cache is the one its jobs keep emptying.
	if w.readsAfterWrites {
		readRatio = writeRatio
	}
	res.put("sparql.cache_hit_ratio", readRatio, 1)
	res.put("bench.trace_overhead_pct", overhead, 1)

	if err := r.replayJobs(ctx, s, jobs, res); err != nil {
		return err
	}
	return r.changelogLayers(ctx, s, res)
}

// tracedWrites runs the write phase with spans: the writer and the reader
// beside it. It returns the jobs and the SPARQL result-cache hit ratio of the
// reads made meanwhile.
func (r *runner) tracedWrites(ctx context.Context, w workload, l *lake, s *stack, res *results) ([]job, float64, error) {
	cache0 := s.plat.Core().Discovery.CacheStats()
	writes, jobs, _, err := r.writePhase(ctx, w, l, s)
	if err != nil {
		return nil, 0, err
	}
	var queued, ran []float64
	for _, life := range writes.jobLife {
		queued = append(queued, life.started.Sub(life.submitted).Seconds())
		ran = append(ran, life.finished.Sub(life.started).Seconds())
	}
	res.put("ingest.tables_per_s", float64(len(writes.jobs))/writes.elapsed, len(writes.jobs))
	res.put("ingest.job_p95_ms", quantile(writes.jobs, 0.95)*1e3, len(writes.jobs))
	res.put("ingest.queue_wait_p50_ms", median(queued)*1e3, len(queued))
	res.put("ingest.run_p50_ms", median(ran)*1e3, len(ran))
	res.put("bench.beside_read_p50_ms", median(writes.reads)*1e3, len(writes.reads))
	res.put("bench.beside_read_p95_ms", quantile(writes.reads, 0.95)*1e3, len(writes.reads))
	res.put("bench.read_lateness_p95_ms", quantile(writes.lateness, 0.95)*1e3, len(writes.lateness))
	return jobs, hitRatio(cache0, s.plat.Core().Discovery.CacheStats()), nil
}

// stagedBootstrap replays one bootstrap over the CSV directory stage by
// stage, driving the exported pieces of each layer in the order core does:
// stream every table through the connector into the profiler's accumulators
// on one worker per CPU, metadata quads into a fresh store, similarity
// edges, edge quads into the store, then the embedding indexes. It returns
// the wall time the stages took together.
func (r *runner) stagedBootstrap(ctx context.Context, dir string, lakeBytes int64, plat *kglids.Platform, res *results) (float64, error) {
	root, done := r.tr.start("staged", "", 0)
	defer done()
	stage := func(name string, fn func()) float64 {
		t0 := time.Now()
		r.tr.time(name, "", root, fn)
		return time.Since(t0).Seconds()
	}

	// Stage 1: connector → profiler.
	prof := profiler.New()
	var src connector.Source
	var refs []connector.TableRef
	var err error
	streamID, endStream := r.tr.start("staged.stream", "", root)
	streamStart := time.Now()
	r.tr.time("connector.read", "open", streamID, func() {
		if src, err = connector.Open("dir://" + dir); err == nil {
			refs, err = src.Tables(ctx)
		}
	})
	if err != nil {
		return 0, err
	}
	perTable := make([][]*profiler.ColumnProfile, len(refs))
	var rows atomic.Int64
	var firstErr atomic.Value
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				ps, n, err := r.streamTable(ctx, prof, src, refs[i], streamID)
				if err != nil {
					firstErr.CompareAndSwap(nil, err)
					continue
				}
				perTable[i] = ps
				rows.Add(int64(n))
			}
		}()
	}
	for i := range refs {
		next <- i
	}
	close(next)
	wg.Wait()
	endStream()
	streamWall := time.Since(streamStart).Seconds()
	if err, ok := firstErr.Load().(error); ok {
		return 0, err
	}
	var profiles []*profiler.ColumnProfile
	for _, ps := range perTable {
		profiles = append(profiles, ps...)
	}

	// Stages 2-4: schema → store → vectorindex.
	b := schema.NewBuilder()
	b.Labels = schema.NewLabelCache()
	st := store.New()
	var metaQuads, edgeQuads []rdf.Quad
	var edges []schema.Edge
	quadsS := stage("schema.quads", func() { metaQuads = schema.MetadataQuads(profiles) })
	addS := stage("store.add", func() { st.AddBatch(metaQuads) })
	edgesS := stage("schema.edges", func() { edges = b.SimilarityEdges(profiles) })
	stats := b.LastStats()
	quadsS += stage("schema.quads", func() { edgeQuads = schema.EdgeQuads(edges) })
	addS += stage("store.add", func() { st.AddBatch(edgeQuads) })
	vecS := stage("vectorindex.build", func() {
		columns, tables := vectorindex.NewExact(), vectorindex.NewExact()
		ann := vectorindex.NewHNSW(16, 64, 64) // core's table index parameters
		byTable := map[string]map[embed.Type][]embed.Vector{}
		var order []string
		for _, cp := range profiles {
			columns.Add(cp.ID(), cp.Embed)
			if byTable[cp.TableID()] == nil {
				byTable[cp.TableID()] = map[embed.Type][]embed.Vector{}
				order = append(order, cp.TableID())
			}
			byTable[cp.TableID()][cp.Type] = append(byTable[cp.TableID()][cp.Type], cp.Embed)
		}
		for _, id := range order {
			emb := embed.TableEmbedding(byTable[id])
			tables.Add(id, emb)
			ann.Add(id, emb)
		}
	})

	r.check(len(edges) == plat.Stats().SimilarityEdges, "staged replay built %d edges, the platform has %d", len(edges), plat.Stats().SimilarityEdges)
	r.check(len(profiles) == plat.Stats().Columns, "staged replay profiled %d columns, the platform has %d", len(profiles), plat.Stats().Columns)

	// Busy seconds are summed over the workers; the stream's wall time is
	// what counts against bootstrap_s.
	read := r.tr.total("connector.read")
	quadCount := len(metaQuads) + len(edgeQuads)
	res.put("connector.read_s", read, len(r.tr.durations("connector.read", "")))
	res.put("connector.rows_per_s", float64(rows.Load())/read, int(rows.Load()))
	res.put("connector.bytes_read", float64(lakeBytes), len(refs))
	res.put("profiler.accumulate_s", r.tr.total("profiler.accumulate"), len(r.tr.durations("profiler.accumulate", "")))
	res.put("profiler.finish_s", r.tr.total("profiler.finish"), len(refs))
	res.put("profiler.columns_per_s", float64(len(profiles))/streamWall, len(profiles))
	res.put("schema.edges_s", edgesS, 1)
	res.put("schema.pairs_compared_ratio", float64(stats.PairsCompared)/float64(max(1, stats.PairsExhaustive)), int(stats.PairsExhaustive))
	res.put("schema.edges", float64(len(edges)), 1)
	res.put("schema.quads_s", quadsS, quadCount)
	res.put("store.add_s", addS, quadCount)
	res.put("store.quads_per_s", float64(quadCount)/addS, quadCount)
	res.put("store.bytes_per_triple", float64(st.ApproxBytes())/float64(max(1, st.Len())), st.Len())
	res.put("vectorindex.build_s", vecS, len(profiles))
	return streamWall + quadsS + addS + edgesS + vecS, nil
}

// streamTable drains one table the way profiler.ProfileTableStream does,
// with a span around each connector read and each profiler call.
func (r *runner) streamTable(ctx context.Context, prof *profiler.Profiler, src connector.Source, ref connector.TableRef, parent int) ([]*profiler.ColumnProfile, int, error) {
	var rd connector.TableReader
	var err error
	r.tr.time("connector.read", "open", parent, func() { rd, err = src.Open(ctx, ref) })
	if err != nil {
		return nil, 0, err
	}
	defer rd.Close()
	accs := make([]*profiler.ColumnAccumulator, len(rd.Columns()))
	for i, name := range rd.Columns() {
		accs[i] = prof.NewColumnAccumulator(ref.Dataset, ref.Table, name)
	}
	rows := 0
	for {
		var chunk *connector.Chunk
		r.tr.time("connector.read", "next", parent, func() { chunk, err = rd.Next(ctx) })
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, 0, err
		}
		rows += chunk.Rows()
		r.tr.time("profiler.accumulate", "", parent, func() {
			for i := range accs {
				if i < len(chunk.Cols) {
					accs[i].Add(chunk.Cols[i])
				}
			}
		})
	}
	out := make([]*profiler.ColumnProfile, len(accs))
	r.tr.time("profiler.finish", "", parent, func() {
		for i, acc := range accs {
			out[i] = acc.Finish()
		}
	})
	return out, rows, nil
}

func hitRatio(before, after sparql.CacheStats) float64 {
	hits, misses := after.Hits-before.Hits, after.Misses-before.Misses
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// tracedReads runs the workload's read plan closed loop in four slices,
// alternately untraced and with a span around every read, so that drift
// during the phase falls on both sides. It returns the tracing overhead in
// percent of the untraced time per read, and the SPARQL result-cache hit
// ratio over the whole phase.
func (r *runner) tracedReads(ctx context.Context, w workload, l *lake, s *stack, res *results) (overheadPct, cacheRatio float64, err error) {
	clients, limit := runtime.NumCPU(), 0
	if w.standUpIsMeasured {
		clients, limit = 1, len(l.family)
	}
	tgts, err := s.targets(clients)
	if err != nil {
		return 0, 0, err
	}
	plan := w.plan(l, r.cfg.seed, clients, "")
	r.warm(ctx, readers(tgts), w.plan(l, r.cfg.seed, clients, "warm"))
	slice := time.Duration(r.cfg.seconds / 6 * float64(time.Second))
	cache0 := s.plat.Core().Discovery.CacheStats()
	var all []float64
	var secs, reads [2]float64
	for i := 0; i < 4; i++ {
		phase := func() {
			log := r.closedLoop(ctx, tgts, plan, slice, limit)
			secs[i%2] += log.elapsed
			reads[i%2] += float64(len(log.reads))
			all = append(all, log.reads...)
		}
		if i%2 == 0 {
			r.untraced(phase)
		} else {
			phase()
		}
	}
	cacheRatio = hitRatio(cache0, s.plat.Core().Discovery.CacheStats())
	if reads[0] == 0 || reads[1] == 0 {
		return 0, 0, fmt.Errorf("read phase issued no reads")
	}
	res.put("bench.read_p99_ms", quantile(all, 0.99)*1e3, len(all))
	return (secs[1]/reads[1]/(secs[0]/reads[0]) - 1) * 100, cacheRatio, nil
}

// statusCounter counts responses by whether they were 304s.
type statusCounter struct {
	next               http.RoundTripper
	notModified, total atomic.Int64
}

func (c *statusCounter) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := c.next.RoundTrip(req)
	if err == nil {
		c.total.Add(1)
		if resp.StatusCode == http.StatusNotModified {
			c.notModified.Add(1)
		}
	}
	return resp, err
}

// ladderStep is how much of the read plan the ladder samples: one
// operation in twenty.
const ladderStep = 20

// ladder re-issues a sample of the read plan at each depth of the serving
// stack — the typed client over loopback, the handler on a recorder, the
// platform call — so that the difference between adjacent rungs is the time
// spent in the layer between them. Operations without an HTTP endpoint are
// skipped. Each rung draws the same operations; SPARQL texts that must stay
// distinct carry the rung in their tag.
func (r *runner) ladder(ctx context.Context, w workload, l *lake, s *stack, res *results) error {
	handler := server.New(s.plat, server.Options{Ingest: s.mgr})
	ts := httptest.NewServer(handler)
	defer ts.Close()
	counter := &statusCounter{next: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	defer counter.next.(*http.Transport).CloseIdleConnections()
	c, err := client.New(ts.URL, client.WithHTTPClient(&http.Client{Transport: counter}))
	if err != nil {
		return err
	}
	rungs := []struct {
		name string
		plan *readPlan
		tgt  reader
	}{
		{"client.roundtrip", w.plan(l, r.cfg.seed, 1, "c"), &service{c: c}},
		{"server.handler", w.plan(l, r.cfg.seed, 1, "h"), &recorder{handler: handler, etags: map[int]string{}}},
		{"platform.call", w.plan(l, r.cfg.seed, 1, "p"), &library{plat: s.plat}},
	}
	rec := rungs[1].tgt.(*recorder)
	for k := range rungs {
		rungs[k].plan.seen = nil   // the recorder reports statuses, not digests
		if rungs[k].plan.repeats { // distinct requests have kinds a rung cannot issue
			r.warm(ctx, []reader{rungs[k].tgt}, rungs[k].plan)
		}
	}
	counter.notModified.Store(0)
	counter.total.Store(0)
	rec.bytes, rec.calls = 0, 0
	samples := r.probes() * 4
	var self []float64
	for i, taken := 0, 0; taken < samples && i < samples*ladderStep*4; i++ {
		var ops [3]*op
		for k := range rungs {
			ops[k] = rungs[k].plan.next(0, i)
		}
		if i%ladderStep != 0 && ops[0].slot == 0 || !ops[0].kind.overHTTP() {
			// Hot requests are all issued, so that the client's ETag
			// cache fills as it does in the run; distinct ones are
			// sampled.
			continue
		}
		taken++
		id, done := r.tr.start("ladder", ops[0].kind.String(), 0)
		var took [3]float64
		var status [3]uint64
		for k, rung := range rungs {
			t0 := time.Now()
			_, end := r.tr.start(rung.name, ops[k].kind.String(), id)
			status[k], err = rung.tgt.read(ctx, ops[k])
			end()
			took[k] = time.Since(t0).Seconds()
			r.attempted.Add(1)
			if err != nil {
				r.fail("ladder %s %s: %v", rung.name, ops[k], err)
			}
		}
		done()
		// A 304 is answered by the server layer alone; a full response
		// spends the platform rung's time below it.
		if status[1] == http.StatusOK {
			took[1] -= took[2]
		}
		self = append(self, took[1])
	}
	rt := r.tr.durations("client.roundtrip", "")
	res.put("client.roundtrip_p50_us", median(rt)*1e6, len(rt))
	res.put("client.roundtrip_p99_us", quantile(rt, 0.99)*1e6, len(rt))
	res.put("client.etag_304_ratio", float64(counter.notModified.Load())/float64(max(1, counter.total.Load())), int(counter.total.Load()))
	r.spanMetric(res, "server.handler_p50_us", "server.handler", 1e6)
	res.put("server.self_p50_us", median(self)*1e6, len(self))
	res.put("server.response_kib_per_op", float64(rec.bytes)/1024/float64(max(1, rec.calls)), rec.calls)
	return nil
}

// recorder reaches the platform through the HTTP handler without a
// listener: requests are built as the typed client builds them, gzip and
// conditional headers included, and served onto a response recorder.
type recorder struct {
	handler http.Handler
	etags   map[int]string // hot slot -> ETag of its last full response
	bytes   int64
	calls   int
}

func (t *recorder) read(_ context.Context, o *op) (uint64, error) {
	q := url.Values{}
	path, method, body := "", http.MethodGet, ""
	switch o.kind {
	case opUnionable, opSimilar:
		path = "/api/v1/" + o.kind.String()
		q.Set("table", tableID(o.table))
		q.Set("k", strconv.Itoa(o.k))
	case opSearch:
		path = "/api/v1/search"
		q.Set("q", o.text)
	case opTables:
		path = "/api/v1/tables"
		q.Set("limit", strconv.Itoa(o.k))
	case opStats:
		path = "/api/v1/stats"
	default:
		path, method, body = "/api/v1/sparql", http.MethodPost, o.text
	}
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	req.Header.Set("Accept-Encoding", "gzip")
	if method == http.MethodPost {
		req.Header.Set("Content-Type", "application/sparql-query")
	} else if etag := t.etags[o.slot]; o.slot > 0 && etag != "" {
		req.Header.Set("If-None-Match", etag)
	}
	rec := httptest.NewRecorder()
	t.handler.ServeHTTP(rec, req)
	t.bytes += int64(rec.Body.Len())
	t.calls++
	if o.slot > 0 && rec.Code == http.StatusOK {
		t.etags[o.slot] = rec.Header().Get("ETag")
	}
	if rec.Code != http.StatusOK && rec.Code != http.StatusNotModified {
		return 0, fmt.Errorf("%s %s: status %d", method, path, rec.Code)
	}
	return uint64(rec.Code), nil // the status stands in for a digest
}

// probeKinds times each kind of operation on its own, in process and one at
// a time, against the served platform and against a second SPARQL engine
// over its store, which has no warm result cache.
func (r *runner) probeKinds(ctx context.Context, l *lake, plat *kglids.Platform, res *results) error {
	n := r.probes()
	lib := &library{plat: plat}
	pick := func(i int) kglids.Table { return l.family[(i*7919)%len(l.family)] }
	probe := func(name string, count int, mk func(i int) op) {
		for i := 0; i < count; i++ {
			o := mk(i)
			_, done := r.tr.start(name, o.kind.String(), 0)
			_, err := lib.read(ctx, &o)
			done()
			r.attempted.Add(1)
			if err != nil {
				r.fail("probe %s: %v", name, err)
			}
		}
	}
	probe("discovery.unionable", n, func(i int) op { return op{kind: opUnionable, table: pick(i), k: 10} })
	probe("discovery.similar", n, func(i int) op { return op{kind: opSimilarFrame, table: pick(i), k: 10} })
	probe("discovery.search", n, func(i int) op { return op{kind: opSearch, text: keywordOf(pick(i))} })
	probe("discovery.joinpath", max(4, n/4), func(i int) op { return op{kind: opJoinPath, table: pick(i), to: pick(i + 1)} })
	r.spanMetric(res, "discovery.unionable_p50_us", "discovery.unionable", 1e6)
	r.spanMetric(res, "discovery.similar_p50_us", "discovery.similar", 1e6)
	r.spanMetric(res, "discovery.search_p50_us", "discovery.search", 1e6)
	r.spanMetric(res, "discovery.joinpath_p50_us", "discovery.joinpath", 1e6)

	// SPARQL: parse and execute apart, per class, on a second engine.
	st := plat.Core().Store
	eng := sparql.NewEngine(st)
	var rows int
	var execSecs float64
	exec := func(name string, kind opKind, count, workers int) error {
		eng.SetWorkers(workers)
		defer eng.SetWorkers(0)
		for i := 0; i < count; i++ {
			text := sparqlText(kind, pick(i), "probe")
			var q *sparql.Query
			var err error
			r.tr.time("sparql.parse", kind.String(), 0, func() { q, err = sparql.Parse(text) })
			if err != nil {
				return fmt.Errorf("parse %s: %w", text, err)
			}
			var out *sparql.Result
			t0 := time.Now()
			r.tr.time(name, kind.String(), 0, func() { out, err = eng.Exec(q) })
			if err != nil {
				return fmt.Errorf("exec %s: %w", text, err)
			}
			execSecs += time.Since(t0).Seconds()
			rows += len(out.Rows)
		}
		return nil
	}
	heavy := max(4, n/4)
	for _, p := range []struct {
		name    string
		kind    opKind
		count   int
		workers int
	}{
		{"sparql.exec_light", opSPARQLLight, n, 0},
		{"sparql.exec_join", opSPARQLJoin, heavy, 0},
		{"sparql.exec_groupby", opSPARQLGroup, heavy, 0},
		{"sparql.exec_join_serial", opSPARQLJoin, heavy, 1},
		{"sparql.exec_groupby_serial", opSPARQLGroup, heavy, 1},
	} {
		if err := exec(p.name, p.kind, p.count, p.workers); err != nil {
			return err
		}
	}
	r.spanMetric(res, "sparql.parse_p50_us", "sparql.parse", 1e6)
	r.spanMetric(res, "sparql.exec_light_p50_us", "sparql.exec_light", 1e6)
	r.spanMetric(res, "sparql.exec_join_p50_ms", "sparql.exec_join", 1e3)
	r.spanMetric(res, "sparql.exec_groupby_p50_ms", "sparql.exec_groupby", 1e3)
	res.put("sparql.rows_per_s", float64(rows)/execSecs, rows)
	ratio := func(serial, wide string) float64 {
		return median(r.tr.durations(serial, "")) / median(r.tr.durations(wide, ""))
	}
	res.put("sparql.parallel_ratio_join", ratio("sparql.exec_join_serial", "sparql.exec_join"), heavy)
	res.put("sparql.parallel_ratio_groupby", ratio("sparql.exec_groupby_serial", "sparql.exec_groupby"), heavy)
	cachedText := sparqlText(opSPARQLLight, pick(0), "cached")
	for i := 0; i <= n; i++ {
		name := "sparql.cached"
		if i == 0 {
			name = "sparql.cache_fill"
		}
		var err error
		r.tr.time(name, "", 0, func() { _, err = eng.Query(cachedText) })
		if err != nil {
			return err
		}
	}
	r.spanMetric(res, "sparql.cached_p50_us", "sparql.cached", 1e6)

	// Store and vector index, under one read view.
	pred, ok := st.EncodeTerm(rdf.PropIsPartOf)
	if !ok {
		return fmt.Errorf("store has no %s triples", rdf.PropIsPartOf.Value)
	}
	view := st.AcquireView()
	var perTriple []float64
	for i := 0; i < heavy; i++ {
		matched := 0
		t0 := time.Now()
		r.tr.time("store.match", "", 0, func() {
			view.MatchIDs(0, pred, 0, store.UnionGraph, func(_, _, _ store.TermID) bool { matched++; return true })
		})
		perTriple = append(perTriple, time.Since(t0).Seconds()/float64(max(1, matched)))
	}
	for i := 0; i < n; i++ {
		r.tr.time("store.count", "", 0, func() { view.CountIDs(0, pred, 0, store.UnionGraph) })
	}
	view.Close()
	res.put("store.match_ns_per_triple", median(perTriple)*1e9, len(perTriple))
	r.spanMetric(res, "store.count_p50_ns", "store.count", 1e9)
	core := plat.Core()
	for i := 0; i < n; i++ {
		if emb, ok := core.TableEmbedding(tableID(pick(i))); ok {
			r.tr.time("vectorindex.search", "", 0, func() { core.TableANN.Search(emb, 10) })
		}
	}
	r.spanMetric(res, "vectorindex.search_p50_us", "vectorindex.search", 1e6)
	return nil
}

// replayJobs applies the job plan directly to a second platform opened from
// the seed snapshot, with a span around each mutation and, for new tables,
// around the profiling and delta-edge steps it consists of. The second
// platform must end where the primary did.
func (r *runner) replayJobs(ctx context.Context, s *stack, jobs []job, res *results) error {
	second, err := kglids.Open(s.snap)
	if err != nil {
		return err
	}
	prof := profiler.New()
	b := schema.NewBuilder()
	b.Labels = schema.NewLabelCache()
	removals := 0
	for i := range jobs {
		j := &jobs[i]
		id, done := r.tr.start("replay", j.kind.String(), 0)
		switch j.kind {
		case jobAdd:
			var added []*profiler.ColumnProfile
			r.tr.time("profiler.delta", "", id, func() { added = prof.ProfileTable(j.table.Dataset, j.table.Frame) })
			existing := second.Core().ProfilesView()
			r.tr.time("schema.delta_edges", "", id, func() { b.SimilarityEdgesDelta(existing, added) })
			r.tr.time("core.add_table", "", id, func() { _, err = second.AddTables([]kglids.Table{j.table}) })
		case jobUpdate:
			r.tr.time("core.update_table", "", id, func() { _, err = second.AddTables([]kglids.Table{j.table}) })
		case jobRemove:
			// Every other removal times the graph removal on its own;
			// RemoveTable then finds the graph gone and does the rest.
			if removals%2 == 1 {
				r.tr.time("store.remove_graph", "", id, func() { second.Core().Store.RemoveGraph(schema.TableGraph(j.id)) })
				err = second.RemoveTable(j.id)
			} else {
				r.tr.time("core.remove_table", "", id, func() { err = second.RemoveTable(j.id) })
			}
			removals++
		}
		done()
		r.attempted.Add(1)
		if err != nil {
			r.fail("replay job %d (%s %s): %v", i, j.kind, j.id, err)
		}
	}
	r.check(second.Stats() == s.plat.Stats(), "replayed platform %+v differs from the primary %+v", second.Stats(), s.plat.Stats())
	r.spanMetric(res, "core.add_table_p50_ms", "core.add_table", 1e3)
	r.spanMetric(res, "core.update_table_p50_ms", "core.update_table", 1e3)
	r.spanMetric(res, "core.remove_table_p50_ms", "core.remove_table", 1e3)
	r.spanMetric(res, "profiler.delta_p50_ms", "profiler.delta", 1e3)
	r.spanMetric(res, "schema.delta_edges_p50_ms", "schema.delta_edges", 1e3)
	r.spanMetric(res, "store.remove_graph_p50_ms", "store.remove_graph", 1e3)
	return nil
}

// changelogLayers measures what replication costs layer by layer: the size
// of the log the job plan left, encoding and decoding its records, fetching
// it page by page through the client, and applying it to a follower.
func (r *runner) changelogLayers(ctx context.Context, s *stack, res *results) error {
	view, err := s.plat.Core().Store.Changelog().Since(s.seedPos, 0)
	if err != nil {
		return err
	}
	quads := 0
	for _, rec := range view.Records {
		quads += len(rec.Quads)
		var payload []byte
		r.tr.time("snapshot.encode_change", string(rec.Kind), 0, func() { payload, err = snapshot.EncodeChange(rec) })
		if err != nil {
			return err
		}
		r.tr.time("snapshot.decode_change", string(rec.Kind), 0, func() { _, err = snapshot.DecodeChange(string(rec.Kind), payload) })
		if err != nil {
			return err
		}
	}
	res.put("store.changelog_records", float64(len(view.Records)), 1)
	res.put("store.changelog_quads_per_record", float64(quads)/float64(max(1, len(view.Records))), len(view.Records))
	r.spanMetric(res, "snapshot.encode_change_p50_us", "snapshot.encode_change", 1e6)
	r.spanMetric(res, "snapshot.decode_change_p50_us", "snapshot.decode_change", 1e6)

	ts := httptest.NewServer(server.New(s.plat, server.Options{}))
	defer ts.Close()
	c, err := client.New(ts.URL)
	if err != nil {
		return err
	}
	for cursor := s.seedPos; ; {
		var page client.ChangelogPage
		r.tr.time("client.changelog_page", "", 0, func() { page, err = c.Changelog(ctx, cursor, changelogPage) })
		if err != nil {
			return err
		}
		cursor = page.NextCursor
		if page.AtHead {
			break
		}
	}
	r.spanMetric(res, "client.changelog_page_p50_ms", "client.changelog_page", 1e3)

	if _, err := r.replicate(ctx, s); err != nil {
		return err
	}
	r.spanMetric(res, "replica.apply_p50_us", "replica.apply", 1e6)
	return nil
}
