package sparql

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"kglids/internal/obs"
	"kglids/internal/rdf"
	"kglids/internal/store"
)

// Binding maps variable names to terms for one solution.
type Binding map[string]rdf.Term

// Result is the outcome of executing a query: column names and rows of
// terms aligned with the columns. Results returned by Query/QueryContext
// may be served from the engine's cache and shared between callers — treat
// them as read-only.
type Result struct {
	Vars []string
	Rows []Binding
}

// Get returns row i's binding for v (zero Term when unbound).
func (r *Result) Get(i int, v string) rdf.Term { return r.Rows[i][v] }

// Engine executes parsed queries against a store.
//
// The default execution path compiles each query into ID space: constant
// terms resolve to dictionary IDs once, variables become integer slots,
// join order is planned from live store cardinalities, and matching
// streams over the encoded indexes — terms materialize only at projection
// time. A bounded LRU cache keyed on (query text, store generation) serves
// repeated queries without re-execution; any store mutation bumps the
// generation and so invalidates every cached result.
//
// Each query runs on one goroutine over one read view; concurrent queries
// run side by side, each on its own view.
type Engine struct {
	st    *store.Store
	cache *queryCache
	// slowNanos, when positive, is the slow-query threshold: any query
	// whose wall time reaches it is logged with its per-stage breakdown.
	slowNanos atomic.Int64
}

// NewEngine returns an engine over st with a DefaultCacheCapacity-sized
// result cache.
func NewEngine(st *store.Store) *Engine {
	return &Engine{st: st, cache: newQueryCache(DefaultCacheCapacity)}
}

// SetSlowQuery sets the slow-query log threshold; 0 disables it.
// Queries at or over the threshold emit one structured warning with the
// query text, total duration, outcome, and parse/compile/plan/execute/
// materialize stage times.
func (e *Engine) SetSlowQuery(d time.Duration) { e.slowNanos.Store(int64(d)) }

// CacheStats reports cumulative cache behaviour (tests and monitoring).
func (e *Engine) CacheStats() CacheStats { return e.cache.stats() }

// SetWorkers has no effect: every query runs serially.
//
// Deprecated: there is no execution width to set. The method remains only
// so existing callers compile, and will be removed.
func (e *Engine) SetWorkers(int) {}

// Query parses and executes src on the compiled ID-space path, serving
// repeated queries from the generation-keyed result cache.
func (e *Engine) Query(src string) (*Result, error) {
	return e.QueryContext(context.Background(), src)
}

// QueryContext is Query under a context: cancellation or deadline expiry
// stops the evaluation mid-iteration and returns the context's error.
//
// Evaluation is traced: parse, compile, plan, execute, and materialize
// stage durations land in the process-wide histograms and — when the
// context carries an obs.Trace (the server installs one per request) —
// on the trace, which is what the slow-query log prints.
func (e *Engine) QueryContext(ctx context.Context, src string) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	slow := time.Duration(e.slowNanos.Load())
	tr := obs.FromContext(ctx)
	if tr == nil && slow > 0 {
		// No caller-supplied trace, but the slow log needs the stage
		// breakdown: open a local one.
		tr = obs.NewTrace("")
		ctx = obs.WithTrace(ctx, tr)
	}
	start := time.Now()
	// Cache lookup and parsing both happen before the view is acquired:
	// hits never parse, and parsing — which doesn't touch the store — never
	// extends the window during which a waiting writer blocks.
	gen := e.st.Generation()
	if res, ok := e.cache.get(src, gen); ok {
		mQueries.WithLabelValues("cache_hit").Inc()
		return res, nil
	}
	parseStart := time.Now()
	q, err := Parse(src)
	parseDur := time.Since(parseStart)
	mStage.WithLabelValues("parse").Observe(parseDur.Seconds())
	tr.AddSpan("parse", parseStart, parseDur)
	if err != nil {
		mQueries.WithLabelValues("parse_error").Inc()
		return nil, err
	}
	v := e.st.AcquireView()
	defer v.Close()
	if g := v.Generation(); g != gen {
		// A mutation landed between the lookup and the view; recheck so a
		// concurrent writer can't make us recompute a cached result.
		gen = g
		if res, ok := e.cache.get(src, gen); ok {
			mQueries.WithLabelValues("cache_hit").Inc()
			return res, nil
		}
	}
	res, err := compileTimed(tr, q, v).execute(ctx, v)
	outcome := "ok"
	switch {
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		outcome = "cancelled"
		mCancellations.Inc()
	case err != nil:
		outcome = "error"
	}
	mQueries.WithLabelValues(outcome).Inc()
	if total := time.Since(start); slow > 0 && total >= slow {
		logSlow(src, total, outcome, tr)
	}
	if err != nil {
		return nil, err
	}
	e.cache.put(src, gen, res)
	return res, nil
}

// compileTimed lowers and plans q, splitting the wall time between the
// "compile" (lowering: slot assignment, constant resolution) and "plan"
// (cardinality-based join ordering) stages.
func compileTimed(tr *obs.Trace, q *Query, v *store.View) *compiledQuery {
	compileStart := time.Now()
	cq := compile(q, v)
	total := time.Since(compileStart)
	lower := total - cq.planDur
	if lower < 0 {
		lower = 0
	}
	mStage.WithLabelValues("compile").Observe(lower.Seconds())
	mStage.WithLabelValues("plan").Observe(cq.planDur.Seconds())
	tr.AddSpan("compile", compileStart, lower)
	tr.AddSpan("plan", compileStart, cq.planDur)
	return cq
}

// logSlow emits the slow-query warning: total wall time, outcome, the
// originating request (when the trace came from the server), and every
// recorded stage.
func logSlow(src string, total time.Duration, outcome string, tr *obs.Trace) {
	args := []any{
		"duration_ms", float64(total.Microseconds()) / 1e3,
		"outcome", outcome,
		"query", truncateQuery(src),
	}
	if tr != nil {
		if tr.ID != "" {
			args = append(args, "request_id", tr.ID)
		}
		for _, s := range tr.Spans() {
			args = append(args, "stage_"+s.Name+"_ms", float64(s.Dur.Microseconds())/1e3)
		}
	}
	slog.Warn("slow sparql query", args...)
}

// truncateQuery bounds the query text quoted in log lines.
func truncateQuery(src string) string {
	const max = 300
	src = strings.Join(strings.Fields(src), " ")
	if len(src) > max {
		return src[:max] + "..."
	}
	return src
}

// Exec executes a parsed query on the compiled path (uncached: the cache
// keys on query text, which a pre-parsed query no longer carries).
func (e *Engine) Exec(q *Query) (*Result, error) {
	return e.ExecContext(context.Background(), q)
}

// ExecContext is Exec under a context.
func (e *Engine) ExecContext(ctx context.Context, q *Query) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	v := e.st.AcquireView()
	defer v.Close()
	return compileTimed(obs.FromContext(ctx), q, v).execute(ctx, v)
}

func hasAggregates(q *Query) bool {
	for _, p := range q.Projection {
		if p.Agg != nil {
			return true
		}
	}
	return false
}

// aggFromValues computes an aggregate over collected values (the ID-space
// engine decodes bound IDs to values first; the test-only reference
// evaluator shares it).
func aggFromValues(a *Aggregate, values []rdf.Term) (rdf.Term, error) {
	if a.Distinct {
		seen := map[string]bool{}
		uniq := values[:0]
		for _, v := range values {
			if !seen[v.Key()] {
				seen[v.Key()] = true
				uniq = append(uniq, v)
			}
		}
		values = uniq
	}
	switch a.Fn {
	case "COUNT":
		return rdf.Integer(int64(len(values))), nil
	case "SUM", "AVG":
		var sum float64
		for _, v := range values {
			f, ok := v.AsFloat()
			if !ok {
				return rdf.Term{}, fmt.Errorf("sparql: %s over non-numeric %v", a.Fn, v)
			}
			sum += f
		}
		if a.Fn == "SUM" {
			return rdf.Float(sum), nil
		}
		if len(values) == 0 {
			return rdf.Float(0), nil
		}
		return rdf.Float(sum / float64(len(values))), nil
	case "MIN", "MAX":
		if len(values) == 0 {
			return rdf.Term{}, nil
		}
		best := values[0]
		for _, v := range values[1:] {
			c := compareTerms(v, best)
			if (a.Fn == "MIN" && c < 0) || (a.Fn == "MAX" && c > 0) {
				best = v
			}
		}
		return best, nil
	}
	return rdf.Term{}, fmt.Errorf("sparql: unknown aggregate %q", a.Fn)
}

// compareTerms orders terms: numerics numerically, otherwise by lexical
// form. Unbound terms sort first.
func compareTerms(a, b rdf.Term) int {
	fa, oka := a.AsFloat()
	fb, okb := b.AsFloat()
	if oka && okb {
		switch {
		case fa < fb:
			return -1
		case fa > fb:
			return 1
		default:
			return 0
		}
	}
	return strings.Compare(a.Value, b.Value)
}

// regexCacheMax bounds the compiled-pattern cache; REGEX patterns come from
// user queries, so an unbounded map would grow with adversarial traffic.
// Eviction is a wholesale reset — simpler than LRU bookkeeping and the
// steady-state pattern set of real workloads is far below the bound.
const regexCacheMax = 256

var regexCache = struct {
	sync.Mutex
	m map[string]*regexp.Regexp
}{m: map[string]*regexp.Regexp{}}

func compileRegex(pat string) (*regexp.Regexp, error) {
	regexCache.Lock()
	re, ok := regexCache.m[pat]
	regexCache.Unlock()
	if ok {
		return re, nil
	}
	re, err := regexp.Compile(pat)
	if err != nil {
		return nil, err
	}
	regexCache.Lock()
	if len(regexCache.m) >= regexCacheMax {
		regexCache.m = make(map[string]*regexp.Regexp, regexCacheMax)
	}
	regexCache.m[pat] = re
	regexCache.Unlock()
	return re, nil
}
