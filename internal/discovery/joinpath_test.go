package discovery_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"kglids"
	"kglids/internal/discovery"
	"kglids/internal/lakegen"
	"kglids/internal/rdf"
	"kglids/internal/schema"
	"kglids/internal/store"
)

// TestJoinPathMatchesReference holds GetPathToTable to the term-space
// search it replaced (ReferenceGetPathToTable): the same paths, in the same
// order, with the same float64 scores, and nil where it returns nil. It
// compares every ordered pair of table IDs, resident or not, at one to
// three hops on two random lakes, after bootstrap and after each step of a
// random sequence of adds, updates and removals; and on dense cliques and a
// star where the path cap and the expanded-state cap bind.
func TestJoinPathMatchesReference(t *testing.T) {
	for _, seed := range []int64{3, 11} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			bench := lakegen.WideLake(22, 6, 24, seed)
			var tables []kglids.Table
			var iris []rdf.Term
			for _, df := range bench.Tables {
				tables = append(tables, kglids.Table{Dataset: bench.Dataset[df.Name], Frame: df})
				iris = append(iris, schema.TableIRI(bench.Dataset[df.Name]+"/"+df.Name))
			}
			base, pool := tables[:len(tables)-4], tables[len(tables)-4:]
			p := kglids.Bootstrap(kglids.Options{}, base)
			assertPathsMatch(t, "bootstrap", p.Core().Discovery, iris, iris, 3)

			rng := rand.New(rand.NewSource(seed))
			for step := 0; step < 3; step++ {
				var err error
				switch rng.Intn(3) {
				case 0: // add (or re-add) a pool table
					_, err = p.AddTables([]kglids.Table{pool[rng.Intn(len(pool))]})
				case 1: // update any table with truncated content
					tb := tables[rng.Intn(len(tables))]
					_, err = p.AddTables([]kglids.Table{{Dataset: tb.Dataset, Frame: tb.Frame.Head(4 + rng.Intn(16))}})
				default: // remove a resident table
					resident := p.TableIDs()
					err = p.RemoveTable(resident[rng.Intn(len(resident))])
				}
				if err != nil {
					t.Fatal(err)
				}
				assertPathsMatch(t, fmt.Sprintf("step %d", step), p.Core().Discovery, iris, iris, 3)
			}
		})
	}

	t.Run("clique", func(t *testing.T) {
		// Every table joins every other: each expanded state finds a path,
		// so the path cap binds first.
		names := tableNames("K", 12)
		e, iri := joinEngine(t, clique(names, 1))
		from, to := iri(names[:3]), iri(names[9:])
		assertPathsMatch(t, "path cap", e, from, to, 6)
		if n := len(e.GetPathToTable(from[0], to[0], 6)); n != 256 {
			t.Fatalf("path cap: %d paths, want the cap of 256", n)
		}
	})
	t.Run("bridge", func(t *testing.T) {
		// Only the last clique table joins the target: most expanded states
		// find no path, so the state cap binds before the path cap.
		names := tableNames("K", 20)
		e, iri := joinEngine(t, append(clique(names, 2), joinEdge{names[len(names)-1], "T", 0.9}))
		from, to := iri(names[:3]), iri([]string{"T"})
		assertPathsMatch(t, "state cap", e, from, to, 5)
		// Uncapped, five hops reach T by over 5,000 simple paths: fewer
		// than 256 means the expanded states ran out first.
		if n := len(e.GetPathToTable(from[0], to[0], 5)); n == 0 || n >= 256 {
			t.Fatalf("state cap: %d paths, want some but fewer than the path cap", n)
		}
	})
	t.Run("star", func(t *testing.T) {
		// S joins 4,100 leaves, all ranked alike, so by IRI. Expanding S
		// and then the leaves in turn, the 4,096-state cap admits leaves
		// L0000 to L4094: of the two leaves joining T, the path through
		// L4094 is found and the one through L4095 is not.
		leaves := tableNames("L", 4100)
		edges := []joinEdge{{"L4094", "T", 0.9}, {"L4095", "T", 0.9}}
		for _, l := range leaves {
			edges = append(edges, joinEdge{"S", l, 0.9})
		}
		e, iri := joinEngine(t, edges)
		s, target := iri([]string{"S"})[0], iri([]string{"T"})[0]
		got, want := e.GetPathToTable(s, target, 2), discovery.ReferenceGetPathToTable(e, s, target, 2)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("state cap:\n  got:       %v\n  reference: %v", got, want)
		}
		if len(got) != 1 || !got[0].Tables[1].Equal(iri([]string{"L4094"})[0]) {
			t.Fatalf("state cap: paths = %v, want the one through L4094", got)
		}
	})
}

// TestJoinPathUnknownEnds pins that a start or target the store's
// dictionary does not know ends the search before it visits any table's
// columns: nothing can join it, however many states the caps would allow.
func TestJoinPathUnknownEnds(t *testing.T) {
	names := tableNames("K", 6)
	st, iri := joinStore(clique(names, 1))
	adj := &countingAdjacency{Adjacency: discovery.StoreAdjacency(st)}
	e := discovery.New(st, adj)
	known, absent := iri(names)[0], schema.TableIRI("d/absent")
	for _, c := range []struct {
		what          string
		start, target rdf.Term
	}{{"unknown start", absent, known}, {"unknown target", known, absent}} {
		adj.calls = 0
		if got := e.GetPathToTable(c.start, c.target, 3); got != nil || adj.calls != 0 {
			t.Errorf("%s: %d paths after %d VisitColumns calls, want nil after none", c.what, len(got), adj.calls)
		}
	}
	adj.calls = 0
	if got := e.GetPathToTable(known, iri(names)[1], 3); got == nil || adj.calls == 0 {
		t.Fatalf("known ends: %d paths after %d VisitColumns calls, want some after some", len(got), adj.calls)
	}
}

// countingAdjacency counts the tables visited.
type countingAdjacency struct {
	discovery.Adjacency
	calls int
}

func (a *countingAdjacency) VisitColumns(table store.TermID, fn func(col store.TermID, label, content []discovery.Neighbor)) {
	a.calls++
	a.Adjacency.VisitColumns(table, fn)
}

// assertPathsMatch compares GetPathToTable with the reference for every
// pair of from and to at every hop budget up to maxHops. It fails if a
// budget above one finds no path: the comparison would then exercise
// nothing.
func assertPathsMatch(t *testing.T, when string, e *discovery.Engine, from, to []rdf.Term, maxHops int) {
	t.Helper()
	for hops := 1; hops <= maxHops; hops++ {
		found := 0
		for _, a := range from {
			for _, b := range to {
				got, want := e.GetPathToTable(a, b, hops), discovery.ReferenceGetPathToTable(e, a, b, hops)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: %s -> %s at %d hops:\n  got:       %v\n  reference: %v", when, a.Value, b.Value, hops, got, want)
				}
				found += len(got)
			}
		}
		if found == 0 && hops > 1 {
			t.Fatalf("%s: no pair has a path at %d hops; the lake exercises nothing", when, hops)
		}
	}
}

// tableNames returns n names whose lexical order is their numeric order.
func tableNames(prefix string, n int) []string {
	width := len(fmt.Sprint(n - 1))
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s%0*d", prefix, width, i)
	}
	return out
}

// joinEdge is a content-similarity edge between two tables, each end a
// column of its own.
type joinEdge struct {
	a, b  string
	score float64
}

// clique links every pair of names by one to parallel edges of random
// certainty, so a table's score is a sum over several columns.
func clique(names []string, parallel int) []joinEdge {
	rng := rand.New(rand.NewSource(int64(len(names))))
	var out []joinEdge
	for i := range names {
		for j := i + 1; j < len(names); j++ {
			for k := 1 + rng.Intn(parallel); k > 0; k-- {
				out = append(out, joinEdge{names[i], names[j], 0.5 + rng.Float64()/2})
			}
		}
	}
	return out
}

// joinEngine builds a store whose join graph is exactly edges, and an
// engine that ranks from the store walk, each table walked once.
func joinEngine(t *testing.T, edges []joinEdge) (*discovery.Engine, func([]string) []rdf.Term) {
	t.Helper()
	st, iri := joinStore(edges)
	adj := &frozenAdjacency{Adjacency: discovery.StoreAdjacency(st), seen: map[store.TermID][]visited{}}
	return discovery.New(st, adj), iri
}

// joinStore builds a store whose join graph is exactly edges, and returns
// it with the IRIs of table names.
func joinStore(edges []joinEdge) (*store.Store, func([]string) []rdf.Term) {
	cols := map[string]int{}
	var quads []rdf.Quad
	var simEdges []schema.Edge
	col := func(table string) string {
		cols[table]++
		id := fmt.Sprintf("d/%s/c%d", table, cols[table])
		quads = append(quads,
			rdf.Quad{Triple: rdf.T(schema.TableIRI("d/"+table), rdf.PropHasColumn, schema.ColumnIRI(id)), Graph: rdf.DefaultGraph},
			rdf.Quad{Triple: rdf.T(schema.ColumnIRI(id), rdf.PropIsPartOf, schema.TableIRI("d/"+table)), Graph: rdf.DefaultGraph},
		)
		return id
	}
	for _, e := range edges {
		simEdges = append(simEdges, schema.Edge{A: col(e.a), B: col(e.b), Kind: "ContentSimilarity", Score: e.score})
	}
	st := store.New()
	st.AddBatch(quads)
	st.AddBatch(schema.EdgeQuads(simEdges))
	iri := func(ns []string) []rdf.Term {
		out := make([]rdf.Term, len(ns))
		for i, n := range ns {
			out[i] = schema.TableIRI("d/" + n)
		}
		return out
	}
	return st, iri
}

// frozenAdjacency replays what an adjacency over an unchanging store
// reported the first time it visited each table, so searches that rank
// thousands of states do not walk the store for each.
type frozenAdjacency struct {
	discovery.Adjacency
	seen map[store.TermID][]visited
}

type visited struct {
	col            store.TermID
	label, content []discovery.Neighbor
}

func (a *frozenAdjacency) VisitColumns(table store.TermID, fn func(col store.TermID, label, content []discovery.Neighbor)) {
	cols, ok := a.seen[table]
	if !ok {
		a.Adjacency.VisitColumns(table, func(col store.TermID, label, content []discovery.Neighbor) {
			cols = append(cols, visited{col, slices.Clone(label), slices.Clone(content)})
		})
		a.seen[table] = cols
	}
	for _, c := range cols {
		fn(c.col, c.label, c.content)
	}
}

// BenchmarkGetPathToTable times join-path search on a lake of the
// benchmark's lake-M shape (lakegen seed 104: 24 families of 8 tables, 28
// noise tables, 250 rows), cycling through 30 seeded pairs of family
// tables, at one, two and three hops. paths/op is the mean paths a call
// returns.
func BenchmarkGetPathToTable(b *testing.B) {
	gen := lakegen.Generate(lakegen.Spec{Name: "bench", Families: 24, TablesPerFamily: 8, NoiseTables: 28, RowsPerTable: 250, Seed: 104})
	var tables []kglids.Table
	var family []rdf.Term
	for _, df := range gen.Tables {
		ds := gen.Dataset[df.Name]
		tables = append(tables, kglids.Table{Dataset: ds, Frame: df})
		if strings.HasPrefix(ds, "family_") {
			family = append(family, schema.TableIRI(ds+"/"+df.Name))
		}
	}
	e := kglids.Bootstrap(kglids.Options{}, tables).Core().Discovery
	rng := rand.New(rand.NewSource(1))
	var pairs [][2]rdf.Term
	for len(pairs) < 30 {
		from, to := family[rng.Intn(len(family))], family[rng.Intn(len(family))]
		if !from.Equal(to) {
			pairs = append(pairs, [2]rdf.Term{from, to})
		}
	}
	for hops := 1; hops <= 3; hops++ {
		b.Run(fmt.Sprintf("hops=%d", hops), func(b *testing.B) {
			b.ReportAllocs()
			paths := 0
			for i := 0; i < b.N; i++ {
				pair := pairs[i%len(pairs)]
				paths += len(e.GetPathToTable(pair[0], pair[1], hops))
			}
			b.ReportMetric(float64(paths)/float64(b.N), "paths/op")
		})
	}
}
