package sparql

import (
	"sort"
	"strings"

	"kglids/internal/rdf"
	"kglids/internal/store"
)

// The term-space reference evaluator: the semantic oracle the equivalence
// tests and BenchmarkSPARQL_IDSpaceVsTermSpace compare the compiled
// ID-space engine against. Bindings are maps of terms, joins clone them,
// and join order is a static most-bound-first heuristic — slow, but short
// enough to read as the definition of what a query means. Beyond the
// parser and FILTER evaluation, it shares only the aggregate arithmetic
// (aggFromValues) with production: its solution-modifier tail (finishRows)
// works on terms, where the compiled engine's works on IDs.

// value implements binder for the reference evaluator's FILTERs.
func (b Binding) value(name string) (rdf.Term, bool) {
	t, ok := b[name]
	return t, ok
}

// QueryReference parses and executes src on the term-space reference path.
func (e *Engine) QueryReference(src string) (*Result, error) {
	q, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return e.ExecReference(q)
}

// ExecReference executes a parsed query with the reference evaluator:
// term-space bindings, map-cloning joins, no planning beyond the static
// most-bound-first heuristic. It defines the semantics the compiled engine
// must reproduce.
func (e *Engine) ExecReference(q *Query) (*Result, error) {
	sols, err := e.evalGroup(q.Where, rdf.DefaultGraph, []Binding{{}})
	if err != nil {
		return nil, err
	}
	if len(q.GroupBy) > 0 || hasAggregates(q) {
		sols, err = aggregate(q, sols)
		if err != nil {
			return nil, err
		}
	}
	return finishRows(q, sols), nil
}

// evalGroup evaluates a group pattern under the active graph, extending each
// input binding.
func (e *Engine) evalGroup(g *GroupPattern, graph rdf.Term, in []Binding) ([]Binding, error) {
	sols := in
	// Order triple patterns greedily: most-bound (fewest unbound vars given
	// already-seen variables) first. This mirrors index-driven join ordering
	// in RDF engines.
	pats := orderPatterns(g.Triples, in)
	for _, tp := range pats {
		sols = e.evalTriple(tp, graph, sols)
		if len(sols) == 0 {
			break
		}
	}
	// GRAPH blocks.
	for _, gp := range g.Graphs {
		var err error
		sols, err = e.evalGraphPattern(gp, sols)
		if err != nil {
			return nil, err
		}
	}
	// UNION blocks.
	for _, alts := range g.Unions {
		var merged []Binding
		for _, alt := range alts {
			sub, err := e.evalGroup(alt, graph, sols)
			if err != nil {
				return nil, err
			}
			merged = append(merged, sub...)
		}
		sols = merged
	}
	// OPTIONAL blocks (left join).
	for _, opt := range g.Optionals {
		var out []Binding
		for _, b := range sols {
			sub, err := e.evalGroup(opt, graph, []Binding{b})
			if err != nil {
				return nil, err
			}
			if len(sub) == 0 {
				out = append(out, b)
			} else {
				out = append(out, sub...)
			}
		}
		sols = out
	}
	// FILTERs.
	for _, f := range g.Filters {
		var out []Binding
		for _, b := range sols {
			v, err := evalExpr(f, b)
			if err != nil {
				continue // error in filter → row excluded
			}
			if truthy(v) {
				out = append(out, b)
			}
		}
		sols = out
	}
	return sols, nil
}

func (e *Engine) evalGraphPattern(gp *GraphPattern, in []Binding) ([]Binding, error) {
	if !gp.Graph.IsVar() {
		return e.evalGroup(gp.Pattern, gp.Graph.Term, in)
	}
	// Variable graph: if already bound use it, else iterate all graphs.
	var out []Binding
	for _, b := range in {
		if t, ok := b[gp.Graph.Var]; ok {
			sub, err := e.evalGroup(gp.Pattern, t, []Binding{b})
			if err != nil {
				return nil, err
			}
			out = append(out, sub...)
			continue
		}
		for _, gt := range e.graphs() {
			nb := cloneBinding(b)
			nb[gp.Graph.Var] = gt
			sub, err := e.evalGroup(gp.Pattern, gt, []Binding{nb})
			if err != nil {
				return nil, err
			}
			out = append(out, sub...)
		}
	}
	return out, nil
}

// graphs returns the store's named graphs in ID order.
func (e *Engine) graphs() []rdf.Term {
	v := e.st.AcquireView()
	ids := v.GraphIDs()
	v.Close()
	out := make([]rdf.Term, len(ids))
	for i, id := range ids {
		out[i] = e.st.DecodeTerm(id)
	}
	return out
}

// orderPatterns sorts triple patterns so that patterns with more bound
// positions (constants or already-bound variables) come first.
func orderPatterns(pats []TriplePattern, in []Binding) []TriplePattern {
	bound := map[string]bool{}
	if len(in) > 0 {
		for v := range in[0] {
			bound[v] = true
		}
	}
	rest := append([]TriplePattern(nil), pats...)
	var ordered []TriplePattern
	for len(rest) > 0 {
		best, bestScore := 0, -1
		for i, tp := range rest {
			score := 0
			for _, n := range []NodePattern{tp.S, tp.P, tp.O} {
				if !n.IsVar() || bound[n.Var] {
					score++
				}
			}
			// Prefer bound subject over bound object over bound predicate,
			// reflecting index selectivity.
			if !tp.S.IsVar() || bound[tp.S.Var] {
				score++
			}
			if score > bestScore {
				best, bestScore = i, score
			}
		}
		tp := rest[best]
		rest = append(rest[:best], rest[best+1:]...)
		ordered = append(ordered, tp)
		for _, n := range []NodePattern{tp.S, tp.P, tp.O} {
			if n.IsVar() {
				bound[n.Var] = true
			}
		}
	}
	return ordered
}

func (e *Engine) evalTriple(tp TriplePattern, graph rdf.Term, in []Binding) []Binding {
	var out []Binding
	for _, b := range in {
		s := resolveNode(tp.S, b)
		p := resolveNode(tp.P, b)
		o := resolveNode(tp.O, b)
		e.st.MatchFunc(s, p, o, graph, func(t rdf.Triple) bool {
			nb := cloneBinding(b)
			if tp.S.IsVar() {
				if prev, ok := nb[tp.S.Var]; ok && !prev.Equal(t.Subject) {
					return true
				}
				nb[tp.S.Var] = t.Subject
			}
			if tp.P.IsVar() {
				if prev, ok := nb[tp.P.Var]; ok && !prev.Equal(t.Predicate) {
					return true
				}
				nb[tp.P.Var] = t.Predicate
			}
			if tp.O.IsVar() {
				if prev, ok := nb[tp.O.Var]; ok && !prev.Equal(t.Object) {
					return true
				}
				nb[tp.O.Var] = t.Object
			}
			out = append(out, nb)
			return true
		})
	}
	return out
}

func resolveNode(n NodePattern, b Binding) rdf.Term {
	if !n.IsVar() {
		return n.Term
	}
	if t, ok := b[n.Var]; ok {
		return t
	}
	return store.Wildcard
}

func cloneBinding(b Binding) Binding {
	nb := make(Binding, len(b)+3)
	for k, v := range b {
		nb[k] = v
	}
	return nb
}

// aggregate implements GROUP BY + aggregates (or a single implicit group).
func aggregate(q *Query, sols []Binding) ([]Binding, error) {
	groups := map[string][]Binding{}
	var orderKeys []string
	for _, s := range sols {
		var sb strings.Builder
		for _, v := range q.GroupBy {
			if t, ok := s[v]; ok {
				sb.WriteString(t.Key())
			}
			sb.WriteByte(0)
		}
		k := sb.String()
		if _, ok := groups[k]; !ok {
			orderKeys = append(orderKeys, k)
		}
		groups[k] = append(groups[k], s)
	}
	if len(sols) == 0 && len(q.GroupBy) == 0 {
		// Implicit single empty group so COUNT(*) over no rows yields 0.
		orderKeys = append(orderKeys, "")
		groups[""] = nil
	}
	var out []Binding
	for _, k := range orderKeys {
		members := groups[k]
		row := Binding{}
		for _, v := range q.GroupBy {
			if len(members) > 0 {
				if t, ok := members[0][v]; ok {
					row[v] = t
				}
			}
		}
		for _, p := range q.Projection {
			if p.Agg == nil {
				continue
			}
			t, err := evalAggregate(p.Agg, members)
			if err != nil {
				return nil, err
			}
			row[p.Var] = t
		}
		out = append(out, row)
	}
	return out, nil
}

func evalAggregate(a *Aggregate, members []Binding) (rdf.Term, error) {
	var values []rdf.Term
	for _, m := range members {
		if a.Var == "*" {
			values = append(values, rdf.Integer(1))
			continue
		}
		if t, ok := m[a.Var]; ok {
			values = append(values, t)
		}
	}
	return aggFromValues(a, values)
}

// finishRows applies the solution-modifier tail to term-space solutions:
// projection, DISTINCT, ORDER BY, OFFSET/LIMIT.
func finishRows(q *Query, sols []Binding) *Result {
	vars := projectionVars(q, sols)
	rows := make([]Binding, 0, len(sols))
	for _, s := range sols {
		row := Binding{}
		for _, v := range vars {
			if t, ok := s[v]; ok {
				row[v] = t
			}
		}
		rows = append(rows, row)
	}
	if q.Distinct {
		rows = distinctRows(vars, rows)
	}
	if len(q.OrderBy) > 0 {
		sort.SliceStable(rows, func(i, j int) bool {
			for _, k := range q.OrderBy {
				c := compareTerms(rows[i][k.Var], rows[j][k.Var])
				if c == 0 {
					continue
				}
				if k.Desc {
					return c > 0
				}
				return c < 0
			}
			return false
		})
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
	return &Result{Vars: vars, Rows: rows}
}

func projectionVars(q *Query, sols []Binding) []string {
	if !q.Star {
		vars := make([]string, len(q.Projection))
		for i, p := range q.Projection {
			vars[i] = p.Var
		}
		return vars
	}
	seen := map[string]bool{}
	var vars []string
	for _, s := range sols {
		for v := range s {
			if !seen[v] {
				seen[v] = true
				vars = append(vars, v)
			}
		}
	}
	sort.Strings(vars)
	return vars
}

func distinctRows(vars []string, rows []Binding) []Binding {
	seen := map[string]bool{}
	out := rows[:0]
	for _, r := range rows {
		var sb strings.Builder
		for _, v := range vars {
			if t, ok := r[v]; ok {
				sb.WriteString(t.Key())
			}
			sb.WriteByte(0)
		}
		k := sb.String()
		if !seen[k] {
			seen[k] = true
			out = append(out, r)
		}
	}
	return out
}
