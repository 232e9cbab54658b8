package sparql

import (
	"time"

	"kglids/internal/store"
)

// unmatchable is the ID substituted for a constant term that is not in the
// store's dictionary. It can never appear in an index (IDs are dense from
// 1 and 2^32-1 terms would not fit in memory), so every probe constrained
// by it is naturally empty — which is exactly the semantics of matching
// against an unknown term, with no special-casing in the executor. The IDs
// below it number an execution's computed terms (see computedTerms).
const unmatchable = ^store.TermID(0)

// cNode is a compiled triple-pattern position: a variable slot or a
// constant resolved to its dictionary ID.
type cNode struct {
	slot int          // >= 0 when variable; -1 for constants
	id   store.TermID // constant ID (possibly unmatchable) when slot < 0
}

// cTriple is a compiled pattern; patterns is stored in planned join order.
type cTriple struct{ s, p, o cNode }

// cGroup mirrors GroupPattern in compiled form. Stage order matches the
// reference engine: patterns, GRAPH blocks, UNIONs, OPTIONALs, FILTERs.
type cGroup struct {
	patterns  []cTriple
	graphs    []*cGraph
	unions    [][]*cGroup
	optionals []*cGroup
	filters   []Expr
}

// cGraph is a compiled GRAPH block.
type cGraph struct {
	node  cNode
	group *cGroup
}

// compiledQuery is one query lowered into ID space against a specific
// store view: slots assigned, constants resolved, joins planned. It is
// rebuilt per execution — compilation is microseconds, and resolving
// constants against the live dictionary is what lets the cache invalidate
// purely on store generation.
type compiledQuery struct {
	q     *Query
	slots map[string]int
	names []string // slot -> variable name
	root  *cGroup
	// planDur accumulates the time spent in planPatterns across all
	// groups, so the "plan" stage can be reported apart from lowering.
	planDur time.Duration
	// computed holds the aggregate values this execution computed.
	computed computedTerms
}

// compile lowers q against the view: every variable in the query (patterns,
// filters, projection, GROUP BY, ORDER BY) gets an integer slot, constants
// resolve to term IDs once, and each group's patterns are ordered by
// estimated cardinality from the store's live statistics.
func compile(q *Query, v *store.View) *compiledQuery {
	c := &compiledQuery{q: q, slots: map[string]int{}}
	c.collectGroupVars(q.Where)
	for _, p := range q.Projection {
		c.slotFor(p.Var)
		if p.Agg != nil && p.Agg.Var != "*" {
			c.slotFor(p.Agg.Var)
		}
	}
	for _, v := range q.GroupBy {
		c.slotFor(v)
	}
	for _, k := range q.OrderBy {
		c.slotFor(k.Var)
	}
	c.root = c.compileGroup(q.Where, v, store.UnionGraph, map[int]bool{})
	return c
}

func (c *compiledQuery) slotFor(name string) int {
	if i, ok := c.slots[name]; ok {
		return i
	}
	i := len(c.names)
	c.slots[name] = i
	c.names = append(c.names, name)
	return i
}

// collectGroupVars assigns slots to every variable of a group subtree in
// syntactic order, so slot numbering is deterministic.
func (c *compiledQuery) collectGroupVars(g *GroupPattern) {
	if g == nil {
		return
	}
	for _, tp := range g.Triples {
		for _, n := range []NodePattern{tp.S, tp.P, tp.O} {
			if n.IsVar() {
				c.slotFor(n.Var)
			}
		}
	}
	for _, f := range g.Filters {
		c.collectExprVars(f)
	}
	for _, gp := range g.Graphs {
		if gp.Graph.IsVar() {
			c.slotFor(gp.Graph.Var)
		}
		c.collectGroupVars(gp.Pattern)
	}
	for _, alts := range g.Unions {
		for _, alt := range alts {
			c.collectGroupVars(alt)
		}
	}
	for _, opt := range g.Optionals {
		c.collectGroupVars(opt)
	}
}

func (c *compiledQuery) collectExprVars(e Expr) {
	switch x := e.(type) {
	case *VarExpr:
		c.slotFor(x.Name)
	case *UnaryExpr:
		c.collectExprVars(x.X)
	case *BinaryExpr:
		c.collectExprVars(x.Left)
		c.collectExprVars(x.Right)
	case *CallExpr:
		for _, a := range x.Args {
			c.collectExprVars(a)
		}
	}
}

// compileGroup lowers one group. gid is the statically-known active graph
// (UnionGraph when the group runs under a graph variable), used only for
// cardinality estimation; bound tracks slots bound by enclosing groups so
// the planner can cost join variables realistically.
func (c *compiledQuery) compileGroup(g *GroupPattern, v *store.View, gid store.TermID, bound map[int]bool) *cGroup {
	if g == nil {
		return &cGroup{}
	}
	cg := &cGroup{filters: g.Filters}
	planStart := time.Now()
	cg.patterns = c.planPatterns(g.Triples, v, gid, bound)
	c.planDur += time.Since(planStart)
	for _, ct := range cg.patterns {
		markBound(ct, bound)
	}
	for _, gp := range g.Graphs {
		cgp := &cGraph{node: c.compileNode(gp.Graph, v)}
		innerGid := gid
		if cgp.node.slot < 0 {
			innerGid = cgp.node.id
		} else {
			innerGid = store.UnionGraph
		}
		cgp.group = c.compileGroup(gp.Pattern, v, innerGid, bound)
		if cgp.node.slot >= 0 {
			bound[cgp.node.slot] = true
		}
		cg.graphs = append(cg.graphs, cgp)
	}
	for _, alts := range g.Unions {
		var calts []*cGroup
		for _, alt := range alts {
			calts = append(calts, c.compileGroup(alt, v, gid, cloneBound(bound)))
		}
		// Variables bound by any alternative may be bound downstream.
		for _, alt := range alts {
			c.markGroupVarsBound(alt, bound)
		}
		cg.unions = append(cg.unions, calts)
	}
	for _, opt := range g.Optionals {
		cg.optionals = append(cg.optionals, c.compileGroup(opt, v, gid, cloneBound(bound)))
	}
	return cg
}

func (c *compiledQuery) markGroupVarsBound(g *GroupPattern, bound map[int]bool) {
	for _, tp := range g.Triples {
		for _, n := range []NodePattern{tp.S, tp.P, tp.O} {
			if n.IsVar() {
				bound[c.slots[n.Var]] = true
			}
		}
	}
}

func cloneBound(b map[int]bool) map[int]bool {
	nb := make(map[int]bool, len(b))
	for k, v := range b {
		nb[k] = v
	}
	return nb
}

func (c *compiledQuery) compileNode(n NodePattern, v *store.View) cNode {
	if n.IsVar() {
		return cNode{slot: c.slots[n.Var]}
	}
	id, ok := v.Dict().Lookup(n.Term)
	if !ok {
		id = unmatchable
	}
	return cNode{slot: -1, id: id}
}

// planPatterns orders a group's triple patterns greedily by estimated
// result cardinality: at each step the cheapest pattern given the
// variables bound so far runs next. Estimates come from the store's real
// index sizes and per-predicate statistics rather than the syntactic
// most-bound-first heuristic of the reference engine.
func (c *compiledQuery) planPatterns(pats []TriplePattern, v *store.View, gid store.TermID, bound map[int]bool) []cTriple {
	rest := make([]cTriple, len(pats))
	for i, tp := range pats {
		rest[i] = cTriple{s: c.compileNode(tp.S, v), p: c.compileNode(tp.P, v), o: c.compileNode(tp.O, v)}
	}
	local := cloneBound(bound)
	ordered := make([]cTriple, 0, len(rest))
	for len(rest) > 0 {
		best, bestCost := 0, -1.0
		for i, ct := range rest {
			cost := estimateCost(ct, v, gid, local)
			if bestCost < 0 || cost < bestCost {
				best, bestCost = i, cost
			}
		}
		ct := rest[best]
		rest = append(rest[:best], rest[best+1:]...)
		ordered = append(ordered, ct)
		markBound(ct, local)
	}
	return ordered
}

func markBound(ct cTriple, bound map[int]bool) {
	for _, n := range []cNode{ct.s, ct.p, ct.o} {
		if n.slot >= 0 {
			bound[n.slot] = true
		}
	}
}

// estimateCost predicts the number of rows a pattern contributes given the
// slots already bound. Constants probe the indexes directly; a bound join
// variable divides the constant-only estimate by the predicate's distinct
// subject/object count (its average fan-out); unbound predicates or
// missing stats fall back to a generic selectivity discount.
func estimateCost(ct cTriple, v *store.View, gid store.TermID, bound map[int]bool) float64 {
	constID := func(n cNode) store.TermID {
		if n.slot < 0 {
			return n.id
		}
		return 0
	}
	s, p, o := constID(ct.s), constID(ct.p), constID(ct.o)
	est := float64(v.CountIDs(s, p, o, gid))
	if est == 0 {
		return 0
	}
	var ps store.PredicateStats
	if p != 0 && p != unmatchable {
		ps = v.PredStats(p)
	}
	discount := func(n cNode, distinct int) {
		if n.slot < 0 || !bound[n.slot] {
			return
		}
		d := float64(distinct)
		if d <= 0 {
			d = 10 // generic join selectivity when stats are unavailable
		}
		est /= d
	}
	discount(ct.s, ps.Subjects)
	discount(ct.o, ps.Objects)
	discount(ct.p, 10)
	if est < 0.001 {
		est = 0.001 // keep zero reserved for provably-empty patterns
	}
	return est
}

// slotsOf returns the slots of the given variable names (for group-by
// key construction); missing names yield -1.
func (c *compiledQuery) slotsOf(names []string) []int {
	out := make([]int, len(names))
	for i, n := range names {
		if s, ok := c.slots[n]; ok {
			out[i] = s
		} else {
			out[i] = -1
		}
	}
	return out
}
