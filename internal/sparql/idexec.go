package sparql

import (
	"context"
	"errors"
	"sort"
	"time"

	"kglids/internal/obs"
	"kglids/internal/rdf"
	"kglids/internal/store"
)

// errStop is the sentinel the executor uses to unwind once a LIMIT that
// needs no further ordering is satisfied.
var errStop = errors.New("sparql: result limit reached")

// ctxCheckInterval is how many index hits pass between context polls; a
// power of two so the check compiles to a mask.
const ctxCheckInterval = 1024

// execState threads the mutable execution context through the streaming
// operators: the shared slot row (variable bindings as term IDs), the store
// view, and the cancellation bookkeeping. Operators extend row in place and
// restore it on backtrack, so intermediate solutions allocate nothing.
type execState struct {
	ctx      context.Context
	v        *store.View
	c        *compiledQuery
	row      []store.TermID
	ticks    int
	graphIDs []store.TermID // lazily fetched domain of unbound GRAPH ?g
	err      error          // context error latched by tick
}

func (es *execState) tick() bool {
	if es.ticks++; es.ticks&(ctxCheckInterval-1) == 0 {
		if err := es.ctx.Err(); err != nil {
			es.err = err
			return false
		}
	}
	return true
}

// slotEnv adapts a slot row to the binder interface of FILTER evaluation,
// decoding a term only when the expression actually reads the variable.
type slotEnv struct {
	c    *compiledQuery
	row  []store.TermID
	dict *store.Dictionary
}

func (s slotEnv) value(name string) (rdf.Term, bool) {
	i, ok := s.c.slots[name]
	if !ok || s.row[i] == 0 {
		return rdf.Term{}, false
	}
	return s.dict.Term(s.row[i]), true
}

// execute streams the compiled query and materializes the result. Solutions
// stay as []TermID rows until the final projection; only FILTER operands,
// ORDER BY keys, aggregate inputs, and projected columns are ever decoded.
// The streaming match and the materialization are timed as the "execute"
// and "materialize" stages.
func (c *compiledQuery) execute(ctx context.Context, v *store.View) (*Result, error) {
	q := c.q
	tr := obs.FromContext(ctx)

	// LIMIT push-down: with no modifier that needs the full solution set,
	// evaluation can stop as soon as offset+limit rows exist.
	earlyStop := -1
	if q.Limit >= 0 && len(q.OrderBy) == 0 && len(q.GroupBy) == 0 && !q.Distinct && !hasAggregates(q) {
		earlyStop = q.Offset + q.Limit
	}

	execStart := time.Now()
	var rows [][]store.TermID
	es := &execState{ctx: ctx, v: v, c: c, row: make([]store.TermID, len(c.names))}
	err := c.root.run(es, store.UnionGraph, func() error {
		rows = append(rows, append([]store.TermID(nil), es.row...))
		if earlyStop >= 0 && len(rows) >= earlyStop {
			return errStop
		}
		return nil
	})
	execDur := time.Since(execStart)
	mStage.WithLabelValues("execute").Observe(execDur.Seconds())
	tr.AddSpan("execute", execStart, execDur)
	if err != nil && !errors.Is(err, errStop) {
		return nil, err
	}
	// The iterator polls the context only every ctxCheckInterval index
	// hits, so a deadline can pass after its last poll; never start the
	// decode work of an already-dead query.
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	matStart := time.Now()
	if len(q.GroupBy) > 0 || hasAggregates(q) {
		if rows, err = c.aggregateIDs(v, rows); err != nil {
			return nil, err
		}
	}
	res := c.materialize(v, rows)
	matDur := time.Since(matStart)
	mStage.WithLabelValues("materialize").Observe(matDur.Seconds())
	tr.AddSpan("materialize", matStart, matDur)
	return res, nil
}

// run streams the group's solutions, extending es.row; stage order matches
// the reference engine (patterns, GRAPH, UNION, OPTIONAL, FILTER).
func (g *cGroup) run(es *execState, gid store.TermID, emit func() error) error {
	return g.runPatterns(es, gid, 0, func() error {
		return g.runGraphs(es, 0, func() error {
			return g.runUnions(es, gid, 0, func() error {
				return g.runOptionals(es, gid, 0, func() error {
					return g.runFilters(es, emit)
				})
			})
		})
	})
}

func (g *cGroup) runPatterns(es *execState, gid store.TermID, i int, emit func() error) error {
	if i == len(g.patterns) {
		return emit()
	}
	ct := g.patterns[i]
	probe := func(n cNode) store.TermID {
		if n.slot < 0 {
			return n.id
		}
		return es.row[n.slot] // 0 (wildcard) when unbound
	}
	var err error
	es.v.MatchIDs(probe(ct.s), probe(ct.p), probe(ct.o), gid, func(ms, mp, mo store.TermID) bool {
		if !es.tick() {
			err = es.err
			return false
		}
		// Bind this match's variables, tracking which slots to restore; a
		// slot already holding a different ID (shared variable) rejects.
		var set [3]int
		n := 0
		bind := func(nd cNode, val store.TermID) bool {
			if nd.slot < 0 {
				return true
			}
			if cur := es.row[nd.slot]; cur != 0 {
				return cur == val
			}
			es.row[nd.slot] = val
			set[n] = nd.slot
			n++
			return true
		}
		if bind(ct.s, ms) && bind(ct.p, mp) && bind(ct.o, mo) {
			if e := g.runPatterns(es, gid, i+1, emit); e != nil {
				err = e
			}
		}
		for j := 0; j < n; j++ {
			es.row[set[j]] = 0
		}
		return err == nil
	})
	return err
}

func (g *cGroup) runGraphs(es *execState, i int, emit func() error) error {
	if i == len(g.graphs) {
		return emit()
	}
	gp := g.graphs[i]
	next := func() error { return g.runGraphs(es, i+1, emit) }
	if gp.node.slot < 0 {
		return gp.group.run(es, gp.node.id, next)
	}
	if cur := es.row[gp.node.slot]; cur != 0 {
		return gp.group.run(es, cur, next)
	}
	if es.graphIDs == nil {
		es.graphIDs = es.v.GraphIDs()
	}
	var err error
	for _, gid := range es.graphIDs {
		es.row[gp.node.slot] = gid
		if err = gp.group.run(es, gid, next); err != nil {
			break
		}
	}
	es.row[gp.node.slot] = 0
	return err
}

func (g *cGroup) runUnions(es *execState, gid store.TermID, i int, emit func() error) error {
	if i == len(g.unions) {
		return emit()
	}
	for _, alt := range g.unions[i] {
		if err := alt.run(es, gid, func() error { return g.runUnions(es, gid, i+1, emit) }); err != nil {
			return err
		}
	}
	return nil
}

func (g *cGroup) runOptionals(es *execState, gid store.TermID, i int, emit func() error) error {
	if i == len(g.optionals) {
		return emit()
	}
	matched := false
	err := g.optionals[i].run(es, gid, func() error {
		matched = true
		return g.runOptionals(es, gid, i+1, emit)
	})
	if err != nil {
		return err
	}
	if !matched {
		return g.runOptionals(es, gid, i+1, emit)
	}
	return nil
}

func (g *cGroup) runFilters(es *execState, emit func() error) error {
	if len(g.filters) > 0 {
		env := slotEnv{c: es.c, row: es.row, dict: es.v.Dict()}
		for _, f := range g.filters {
			v, err := evalExpr(f, env)
			if err != nil || !truthy(v) {
				return nil // row excluded (SPARQL filter-error semantics)
			}
		}
	}
	return emit()
}

// materialize turns ID rows into the final Result of every query, grouped
// or not: DISTINCT and OFFSET/LIMIT operate on raw IDs, ORDER BY decodes
// only its key columns, and projection decodes only projected slots.
func (c *compiledQuery) materialize(v *store.View, rows [][]store.TermID) *Result {
	q := c.q
	vars := c.resultVars(rows)
	slots := c.slotsOf(vars)

	if q.Distinct {
		seen := make(map[string]bool, len(rows))
		out := rows[:0]
		for _, row := range rows {
			k := idKey(row, slots)
			if !seen[k] {
				seen[k] = true
				out = append(out, row)
			}
		}
		rows = out
	}

	if len(q.OrderBy) > 0 {
		// Decode each key column once; non-projected order keys read as
		// unbound, matching the reference engine's projection-first order.
		projected := map[string]bool{}
		for _, v := range vars {
			projected[v] = true
		}
		keys := make([][]rdf.Term, len(rows))
		dict := v.Dict()
		for i, row := range rows {
			ks := make([]rdf.Term, len(q.OrderBy))
			for j, k := range q.OrderBy {
				if !projected[k.Var] {
					continue
				}
				if s, ok := c.slots[k.Var]; ok && row[s] != 0 {
					ks[j] = c.term(dict, row[s])
				}
			}
			keys[i] = ks
		}
		idx := make([]int, len(rows))
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(a, b int) bool {
			for j, k := range q.OrderBy {
				cmp := compareTerms(keys[idx[a]][j], keys[idx[b]][j])
				if cmp == 0 {
					continue
				}
				if k.Desc {
					return cmp > 0
				}
				return cmp < 0
			}
			return false
		})
		sorted := make([][]store.TermID, len(rows))
		for i, j := range idx {
			sorted[i] = rows[j]
		}
		rows = sorted
	}

	if q.Offset > 0 {
		if q.Offset >= len(rows) {
			rows = nil
		} else {
			rows = rows[q.Offset:]
		}
	}
	if q.Limit >= 0 && q.Limit < len(rows) {
		rows = rows[:q.Limit]
	}

	dict := v.Dict()
	out := make([]Binding, len(rows))
	for i, row := range rows {
		b := make(Binding, len(slots))
		for j, s := range slots {
			if s >= 0 && row[s] != 0 {
				b[vars[j]] = c.term(dict, row[s])
			}
		}
		out[i] = b
	}
	return &Result{Vars: vars, Rows: out}
}

// resultVars returns the projected column names; SELECT * projects every
// variable bound in at least one solution, sorted.
func (c *compiledQuery) resultVars(rows [][]store.TermID) []string {
	if !c.q.Star {
		vars := make([]string, len(c.q.Projection))
		for i, p := range c.q.Projection {
			vars[i] = p.Var
		}
		return vars
	}
	bound := make([]bool, len(c.names))
	for _, row := range rows {
		for s, id := range row {
			if id != 0 {
				bound[s] = true
			}
		}
	}
	var vars []string
	for s, ok := range bound {
		if ok {
			vars = append(vars, c.names[s])
		}
	}
	sort.Strings(vars)
	return vars
}

// aggregateIDs implements GROUP BY + aggregates over ID rows, grouping by
// raw IDs (term-key equality and ID equality coincide under interning) and
// decoding only aggregate inputs. Each group becomes one row in the
// query's slot layout: its group keys keep their IDs, and each aggregate
// alias holds the ID of its value in c.computed.
func (c *compiledQuery) aggregateIDs(v *store.View, rows [][]store.TermID) ([][]store.TermID, error) {
	q := c.q
	dict := v.Dict()
	groupSlots := c.slotsOf(q.GroupBy)
	groups := map[string][][]store.TermID{}
	var orderKeys []string
	for _, row := range rows {
		k := idKey(row, groupSlots)
		if _, ok := groups[k]; !ok {
			orderKeys = append(orderKeys, k)
		}
		groups[k] = append(groups[k], row)
	}
	if len(rows) == 0 && len(q.GroupBy) == 0 {
		// Implicit single empty group so COUNT(*) over no rows yields 0.
		orderKeys = append(orderKeys, "")
		groups[""] = nil
	}
	out := make([][]store.TermID, 0, len(orderKeys))
	for _, k := range orderKeys {
		members := groups[k]
		row := make([]store.TermID, len(c.names))
		if len(members) > 0 {
			for _, s := range groupSlots {
				row[s] = members[0][s]
			}
		}
		for _, p := range q.Projection {
			if p.Agg == nil {
				continue
			}
			var values []rdf.Term
			if p.Agg.Var == "*" {
				for range members {
					values = append(values, rdf.Integer(1))
				}
			} else if s, ok := c.slots[p.Agg.Var]; ok {
				for _, m := range members {
					if m[s] != 0 {
						values = append(values, dict.Term(m[s]))
					}
				}
			}
			t, err := aggFromValues(p.Agg, values)
			if err != nil {
				return nil, err
			}
			// MIN/MAX over no values is the zero Term: interned like any
			// other value, so the alias stays bound to it.
			row[c.slots[p.Var]] = c.computed.id(t)
		}
		out = append(out, row)
	}
	return out, nil
}

// computedTerms numbers the terms an execution computes rather than reads
// from the store (aggregate values) down from unmatchable-1, a range no
// dictionary ID reaches, so that they ride in the same slot rows as stored
// terms. Interning by Key keeps ID equality term equality, as DISTINCT
// needs.
type computedTerms struct {
	ids   map[string]store.TermID
	terms []rdf.Term
}

func (ct *computedTerms) id(t rdf.Term) store.TermID {
	k := t.Key()
	if id, ok := ct.ids[k]; ok {
		return id
	}
	if ct.ids == nil {
		ct.ids = map[string]store.TermID{}
	}
	id := unmatchable - 1 - store.TermID(len(ct.terms))
	ct.ids[k] = id
	ct.terms = append(ct.terms, t)
	return id
}

// term decodes a bound slot ID: a computed term, else a dictionary entry.
func (c *compiledQuery) term(dict *store.Dictionary, id store.TermID) rdf.Term {
	if i := unmatchable - 1 - id; i < store.TermID(len(c.computed.terms)) {
		return c.computed.terms[i]
	}
	return dict.Term(id)
}

// idKey packs slot IDs into a map key (little-endian, one separator byte).
func idKey(row []store.TermID, slots []int) string {
	b := make([]byte, 0, len(slots)*5)
	for _, s := range slots {
		var id store.TermID
		if s >= 0 {
			id = row[s]
		}
		b = append(b, byte(id), byte(id>>8), byte(id>>16), byte(id>>24), 0xff)
	}
	return string(b)
}
