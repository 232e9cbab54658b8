package store

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"kglids/internal/rdf"
)

func statsFixtureQuads() []rdf.Quad {
	var quads []rdf.Quad
	for i := 0; i < 6; i++ {
		t := rdf.Resource(fmt.Sprintf("ds/t%d", i))
		quads = append(quads,
			rdf.Q(t, rdf.RDFType, rdf.ClassTable, rdf.DefaultGraph),
			rdf.Q(t, rdf.PropRowCount, rdf.Integer(int64(100*i)), rdf.DefaultGraph),
			rdf.Q(t, rdf.PropIsPartOf, rdf.Resource("ds"), rdf.DefaultGraph))
		for j := 0; j < 3; j++ {
			c := rdf.Resource(fmt.Sprintf("ds/t%d/c%d", i, j))
			g := rdf.Resource(fmt.Sprintf("graph/t%d", i))
			quads = append(quads,
				rdf.Q(c, rdf.RDFType, rdf.ClassColumn, g),
				rdf.Q(c, rdf.PropIsPartOf, t, g))
		}
	}
	return quads
}

// recount computes predicate stats the slow way, straight from Match.
func recount(st *Store, p rdf.Term) PredicateStats {
	var ps PredicateStats
	subj, obj := map[TermID]bool{}, map[TermID]bool{}
	pid, ok := st.EncodeTerm(p)
	if !ok {
		return ps
	}
	st.MatchIDs(0, pid, 0, UnionGraph, func(s, _, o TermID) bool {
		ps.Triples++
		subj[s], obj[o] = true, true
		return true
	})
	ps.Subjects, ps.Objects = len(subj), len(obj)
	return ps
}

func checkStats(t *testing.T, st *Store, label string) {
	t.Helper()
	for _, p := range []rdf.Term{rdf.RDFType, rdf.PropRowCount, rdf.PropIsPartOf} {
		pid, ok := st.EncodeTerm(p)
		if !ok {
			continue
		}
		got, want := st.PredStats(pid), recount(st, p)
		if got != want {
			t.Fatalf("%s: stats for %v = %+v, want %+v", label, p, got, want)
		}
	}
}

func TestPredicateStatsMaintained(t *testing.T) {
	st := New()
	quads := statsFixtureQuads()
	st.AddBatch(quads)
	checkStats(t, st, "after add")

	// Duplicate adds change nothing.
	gen := st.Generation()
	st.AddBatch(quads[:5])
	if st.Generation() != gen {
		t.Fatal("duplicate adds bumped the generation")
	}
	checkStats(t, st, "after duplicate add")

	// Removing quads (incl. whole graphs) keeps stats exact.
	st.RemoveQuad(quads[0])
	st.RemoveGraph(rdf.Resource("graph/t0"))
	checkStats(t, st, "after removal")
	if g := st.Generation(); g <= gen {
		t.Fatalf("generation %d did not advance past %d after removals", g, gen)
	}
}

func TestStatsRebuiltByBulkLoad(t *testing.T) {
	src := New()
	src.AddBatch(statsFixtureQuads())

	// Replay through the snapshot-restore path.
	dst := New()
	if err := dst.Dict().BulkLoad(src.Dict().Terms()); err != nil {
		t.Fatal(err)
	}
	dst.AddEncodedBatch(src.EncodedQuads())
	checkStats(t, dst, "after bulk load")
	if dst.Generation() == 0 {
		t.Fatal("bulk load did not bump the generation")
	}
}

// countsByWalk recounts NodeCount, PredicateCount and GraphCount by a
// walk of every stored triple: its distinct subjects and objects, its
// distinct predicates, and the named graphs that hold it.
func countsByWalk(st *Store) (nodes, predicates, graphs int) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	n, p, g := map[TermID]bool{}, map[TermID]bool{}, map[TermID]bool{}
	for q, gs := range st.graphsOf {
		n[q.S], n[q.O], p[q.P] = true, true, true
		for _, id := range gs {
			if id != unionGraph {
				g[id] = true
			}
		}
	}
	return len(n), len(p), len(g)
}

// TestCountsMatchRecount: NodeCount, PredicateCount and GraphCount, which
// read what the store maintains, equal a walk of every stored triple after
// bulk loads, per-quad adds, batch removals and graph removals.
func TestCountsMatchRecount(t *testing.T) {
	u := newBulkUniverse()
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		st := New()
		for step := 0; step < 60; step++ {
			var op string
			switch rng.Intn(4) {
			case 0:
				op = "bulk load" // a batch at least the store's size takes the bulk path
				st.AddBatch(u.quads(rng, st.Len()+1+rng.Intn(100)))
			case 1:
				op = "per-quad adds"
				for _, q := range u.quads(rng, 1+rng.Intn(20)) {
					st.AddQuad(q)
				}
			case 2:
				// Every stored quad of one predicate, or about half of them.
				op = "RemoveBatch"
				pred := u.predicates[rng.Intn(len(u.predicates))]
				half := rng.Intn(2) == 0
				var batch []rdf.Quad
				for _, q := range st.EncodedQuads() {
					if st.DecodeTerm(q.P) == pred && (!half || rng.Intn(2) == 0) {
						batch = append(batch, rdf.Quad{
							Triple: rdf.T(st.DecodeTerm(q.S), pred, st.DecodeTerm(q.O)),
							Graph:  st.DecodeTerm(q.G), // the zero term, DefaultGraph, for G == 0
						})
					}
				}
				st.RemoveBatch(batch)
			default:
				op = "RemoveGraph"
				st.RemoveGraph(u.graphs[rng.Intn(len(u.graphs))])
			}
			n, p, g := countsByWalk(st)
			if st.NodeCount() != n || st.PredicateCount() != p || st.GraphCount() != g {
				t.Fatalf("seed %d, step %d (%s): NodeCount/PredicateCount/GraphCount = %d/%d/%d, recount %d/%d/%d",
					seed, step, op, st.NodeCount(), st.PredicateCount(), st.GraphCount(), n, p, g)
			}
		}
	}
}

func TestCountIDsMatchesCountMatch(t *testing.T) {
	st := New()
	st.AddBatch(statsFixtureQuads())
	tbl := rdf.Resource("ds/t1")
	cases := []struct{ s, p, o rdf.Term }{
		{tbl, rdf.RDFType, rdf.ClassTable},
		{tbl, Wildcard, Wildcard},
		{tbl, rdf.PropRowCount, Wildcard},
		{Wildcard, rdf.RDFType, rdf.ClassColumn},
		{Wildcard, rdf.PropIsPartOf, Wildcard},
		{Wildcard, Wildcard, tbl},
		{Wildcard, Wildcard, Wildcard},
	}
	enc := func(t rdf.Term) TermID {
		if isWild(t) {
			return 0
		}
		id, _ := st.EncodeTerm(t)
		return id
	}
	for _, c := range cases {
		got := st.CountIDs(enc(c.s), enc(c.p), enc(c.o), UnionGraph)
		want := st.CountMatch(c.s, c.p, c.o, rdf.DefaultGraph)
		if got != want {
			t.Errorf("CountIDs(%v %v %v) = %d, want %d", c.s, c.p, c.o, got, want)
		}
	}
}

func TestMatchIDsAgreesWithMatchFunc(t *testing.T) {
	st := New()
	st.AddBatch(statsFixtureQuads())
	pid, _ := st.EncodeTerm(rdf.PropIsPartOf)
	var viaIDs []string
	st.MatchIDs(0, pid, 0, UnionGraph, func(s, p, o TermID) bool {
		viaIDs = append(viaIDs, st.DecodeTerm(s).Key()+"|"+st.DecodeTerm(o).Key())
		return true
	})
	var viaTerms []string
	st.MatchFunc(Wildcard, rdf.PropIsPartOf, Wildcard, rdf.DefaultGraph, func(tr rdf.Triple) bool {
		viaTerms = append(viaTerms, tr.Subject.Key()+"|"+tr.Object.Key())
		return true
	})
	if len(viaIDs) != len(viaTerms) {
		t.Fatalf("MatchIDs %d rows, MatchFunc %d rows", len(viaIDs), len(viaTerms))
	}
	// Index iteration over maps is unordered; compare as multisets.
	sort.Strings(viaIDs)
	sort.Strings(viaTerms)
	for i := range viaIDs {
		if viaIDs[i] != viaTerms[i] {
			t.Fatalf("row %d: %q != %q", i, viaIDs[i], viaTerms[i])
		}
	}
}

func TestViewPinsGeneration(t *testing.T) {
	st := New()
	st.Add(rdf.T(rdf.Resource("a"), rdf.PropName, rdf.String("a")))
	v := st.AcquireView()
	gen := v.Generation()
	if got := v.CountIDs(0, 0, 0, UnionGraph); got != 1 {
		t.Fatalf("view count = %d", got)
	}
	v.Close()
	st.Add(rdf.T(rdf.Resource("b"), rdf.PropName, rdf.String("b")))
	if st.Generation() <= gen {
		t.Fatal("generation did not advance after mutation")
	}
}

// PredStats returns the union-index cardinality stats for a predicate. A
// zero value means the predicate is absent.
func (st *Store) PredStats(p TermID) PredicateStats {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.predStatsLocked(p)
}

// CountIDs estimates the number of triples matching an encoded pattern
// (see countIDsLocked).
func (st *Store) CountIDs(s, p, o, g TermID) int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.countIDsLocked(s, p, o, g)
}
