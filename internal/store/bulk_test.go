package store

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"kglids/internal/rdf"
)

// bulkUniverse is a term universe small enough that random quads collide:
// duplicates, one triple in several graphs, quoted triples nested two deep,
// and literals that differ only in datatype.
type bulkUniverse struct {
	subjects, predicates, objects, graphs []rdf.Term
}

func newBulkUniverse() bulkUniverse {
	var u bulkUniverse
	for i := 0; i < 10; i++ {
		u.subjects = append(u.subjects, rdf.Resource(fmt.Sprintf("r%d", i)))
	}
	u.subjects = append(u.subjects, rdf.Blank("r0"), rdf.Blank("b1"))
	for i := 0; i < 4; i++ {
		u.predicates = append(u.predicates, rdf.Ontology(fmt.Sprintf("p%d", i)))
	}
	u.objects = append(u.objects, u.subjects...)
	for i := 0; i < 4; i++ {
		lex := fmt.Sprint(i)
		u.objects = append(u.objects, rdf.String(lex), rdf.Integer(int64(i)))
	}
	// Quoted triples over the plain terms, then quoted triples over those.
	inner := []rdf.Term{
		rdf.QuotedTriple(rdf.T(u.subjects[0], u.predicates[0], u.objects[1])),
		rdf.QuotedTriple(rdf.T(u.subjects[1], u.predicates[1], rdf.String("0"))),
		rdf.QuotedTriple(rdf.T(u.subjects[1], u.predicates[1], rdf.Integer(0))),
	}
	outer := []rdf.Term{
		rdf.QuotedTriple(rdf.T(inner[0], u.predicates[2], rdf.Float(0.5))),
		rdf.QuotedTriple(rdf.T(inner[1], u.predicates[2], inner[2])),
	}
	u.subjects = append(append(u.subjects, inner...), outer...)
	u.graphs = []rdf.Term{rdf.DefaultGraph, rdf.DefaultGraph, rdf.Resource("g0"), rdf.Resource("g1"), rdf.Resource("g2")}
	return u
}

func (u bulkUniverse) quad(rng *rand.Rand) rdf.Quad {
	pick := func(ts []rdf.Term) rdf.Term { return ts[rng.Intn(len(ts))] }
	return rdf.Quad{Triple: rdf.T(pick(u.subjects), pick(u.predicates), pick(u.objects)), Graph: pick(u.graphs)}
}

func (u bulkUniverse) quads(rng *rand.Rand, n int) []rdf.Quad {
	out := make([]rdf.Quad, n)
	for i := range out {
		out[i] = u.quad(rng)
	}
	return out
}

// matchDump renders, for every graph and every stored triple, the result
// of Match over all eight bound/unbound shapes of that triple.
func matchDump(st *Store) map[string]string {
	out := map[string]string{}
	for _, g := range append([]rdf.Term{rdf.DefaultGraph}, st.Graphs()...) {
		for _, t := range st.Match(Wildcard, Wildcard, Wildcard, g) {
			for mask := 0; mask < 8; mask++ {
				pat := [3]rdf.Term{t.Subject, t.Predicate, t.Object}
				for pos := 0; pos < 3; pos++ {
					if mask&(1<<pos) != 0 {
						pat[pos] = Wildcard
					}
				}
				key := fmt.Sprintf("%s | %s %s %s", g, pat[0], pat[1], pat[2])
				if _, done := out[key]; done {
					continue
				}
				var rows []string
				for _, m := range st.Match(pat[0], pat[1], pat[2], g) {
					rows = append(rows, m.String())
				}
				sort.Strings(rows)
				out[key] = strings.Join(rows, "\n")
			}
		}
	}
	return out
}

// requireSameStore fails unless two stores are indistinguishable: through
// the public API (sizes, graphs, generation, statistics, every match
// shape, dictionary IDs) and in their index maps.
func requireSameStore(t *testing.T, label string, got, want *Store) {
	t.Helper()
	if got.Len() != want.Len() || got.Generation() != want.Generation() {
		t.Fatalf("%s: Len/Generation = %d/%d, want %d/%d", label, got.Len(), got.Generation(), want.Len(), want.Generation())
	}
	gotTerms, gotQuoted := got.Dict().Terms()
	wantTerms, wantQuoted := want.Dict().Terms()
	if !reflect.DeepEqual(gotTerms, wantTerms) || !reflect.DeepEqual(gotQuoted, wantQuoted) {
		t.Fatalf("%s: dictionaries differ: %d terms vs %d", label, len(gotTerms), len(wantTerms))
	}
	if g, w := got.Graphs(), want.Graphs(); !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: Graphs = %v, want %v", label, g, w)
	}
	for _, g := range want.Graphs() {
		if got.GraphLen(g) != want.GraphLen(g) {
			t.Fatalf("%s: GraphLen(%v) = %d, want %d", label, g, got.GraphLen(g), want.GraphLen(g))
		}
	}
	for id := TermID(1); int(id) <= want.Dict().Len(); id++ {
		if g, w := got.PredStats(id), want.PredStats(id); g != w {
			t.Fatalf("%s: PredStats(%v) = %+v, want %+v", label, want.DecodeTerm(id), g, w)
		}
	}
	if g, w := matchDump(got), matchDump(want); !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: Match results differ (%d vs %d patterns)", label, len(g), len(w))
	}
	for name, pair := range map[string][2]index{"spo": {got.spo, want.spo}, "pos": {got.pos, want.pos}, "osp": {got.osp, want.osp}} {
		if !reflect.DeepEqual(pair[0], pair[1]) {
			t.Fatalf("%s: %s index maps differ", label, name)
		}
	}
	if !reflect.DeepEqual(got.graphs, want.graphs) || len(got.graphsOf) != len(want.graphsOf) {
		t.Fatalf("%s: graph counts or membership sets differ", label)
	}
	for k, w := range want.graphsOf {
		g := append([]TermID(nil), got.graphsOf[k]...)
		w = append([]TermID(nil), w...)
		sort.Slice(g, func(i, j int) bool { return g[i] < g[j] })
		sort.Slice(w, func(i, j int) bool { return w[i] < w[j] })
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: memberships of %v = %v, want %v", label, k, g, w)
		}
	}
}

// TestBulkLoadEqualsPerQuad: a batch loaded through the bulk loader — in
// one piece into an empty store, and in two pieces so that the second
// merges into what the first left — is indistinguishable from the same
// quads added one AddQuad at a time, and stays so under the same random
// mutations. The mutations are what catch a posting list or membership set
// that still shares spare capacity with its neighbour in the loader's
// backing array.
func TestBulkLoadEqualsPerQuad(t *testing.T) {
	u := newBulkUniverse()
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		batch := u.quads(rng, 40+rng.Intn(400))
		cut := rng.Intn(len(batch)/2 + 1) // second piece at least as large as the first

		perQuad := New()
		for _, q := range batch {
			perQuad.AddQuad(q)
		}
		whole, pieces := New(), New()
		whole.AddBatch(batch)
		pieces.AddBatch(batch[:cut])
		pieces.AddBatch(batch[cut:])
		stores := map[string]*Store{"one batch": whole, "two batches": pieces}

		// Through the snapshot path too: same dictionary, encoded quads.
		restored := New()
		if err := restored.Dict().BulkLoad(perQuad.Dict().Terms()); err != nil {
			t.Fatal(err)
		}
		enc := perQuad.EncodedQuads()
		restored.AddEncodedBatch(append(enc, enc[:len(enc)/3]...))
		stores["encoded batch"] = restored

		for name, st := range stores {
			requireSameStore(t, fmt.Sprintf("seed %d, %s", seed, name), st, perQuad)
		}

		for step := 0; step < 300; step++ {
			q := u.quad(rng)
			op := rng.Intn(10)
			for _, st := range append([]*Store{perQuad}, whole, pieces, restored) {
				switch {
				case op < 5:
					st.AddQuad(q)
				case op < 9:
					st.RemoveQuad(q)
				default:
					st.RemoveGraph(q.Graph)
				}
			}
		}
		for name, st := range stores {
			requireSameStore(t, fmt.Sprintf("seed %d, %s, after mutation", seed, name), st, perQuad)
		}
	}
}

// TestAddBatchBothPaths takes one store through both of AddBatch's paths —
// a batch at least as large as the store (bulk), a smaller one (quad by
// quad), a larger one again, now merging into a mutated store — and checks
// that on each the generation advances by one per accepted quad.
func TestAddBatchBothPaths(t *testing.T) {
	u := newBulkUniverse()
	rng := rand.New(rand.NewSource(7))
	big, small := u.quads(rng, 500), u.quads(rng, 20)
	st, ref := New(), New()
	for _, batch := range [][]rdf.Quad{big, small, big} {
		before := st.Len()
		gen := st.Generation()
		st.AddBatch(batch)
		for _, q := range batch {
			ref.AddQuad(q)
		}
		if got := st.Generation() - gen; got != uint64(st.Len()-before) {
			t.Fatalf("generation advanced by %d for %d accepted quads", got, st.Len()-before)
		}
	}
	requireSameStore(t, "bulk, per-quad, bulk", st, ref)
}

func TestDictionaryStructuralKeys(t *testing.T) {
	d := NewDictionary()
	same := []rdf.Term{
		rdf.IRI("x"), rdf.Blank("x"), rdf.String("x"),
		{Kind: rdf.KindLiteral, Value: "x", Datatype: rdf.XSDNS + "integer"},
		{Kind: rdf.KindLiteral, Value: "x"},
	}
	ids := map[TermID]rdf.Term{}
	for _, term := range same {
		id := d.Intern(term)
		if prev, dup := ids[id]; dup {
			t.Fatalf("%v and %v share ID %d", prev, term, id)
		}
		ids[id] = term
		if again := d.Intern(term); again != id {
			t.Fatalf("%v interned to %d then %d", term, id, again)
		}
		if got, ok := d.Lookup(term); !ok || got != id {
			t.Fatalf("Lookup(%v) = %d, %v; want %d", term, got, ok, id)
		}
	}

	// A quoted triple is keyed by its components: an unknown component
	// means the triple cannot be known, and looking it up interns nothing.
	known := rdf.QuotedTriple(rdf.T(rdf.IRI("x"), rdf.IRI("p"), rdf.String("x")))
	kid := d.Intern(known)
	n := d.Len()
	for _, unknown := range []rdf.Term{
		rdf.QuotedTriple(rdf.T(rdf.IRI("x"), rdf.IRI("p"), rdf.String("never"))),
		rdf.QuotedTriple(rdf.T(known, rdf.IRI("p"), rdf.IRI("never"))),
		rdf.QuotedTriple(rdf.T(rdf.IRI("x"), rdf.IRI("p"), rdf.Blank("x"))), // known components, unknown triple
	} {
		if id, ok := d.Lookup(unknown); ok {
			t.Fatalf("Lookup(%v) = %d, want a miss", unknown, id)
		}
	}
	if d.Len() != n {
		t.Fatalf("Lookup interned %d terms", d.Len()-n)
	}
	if got, ok := d.Lookup(rdf.QuotedTriple(rdf.T(rdf.IRI("x"), rdf.IRI("p"), rdf.String("x")))); !ok || got != kid {
		t.Fatalf("Lookup of an equal quoted triple = %d, %v; want %d", got, ok, kid)
	}
	// Components are interned before the triple that quotes them, which is
	// the order BulkLoad relies on.
	nested := rdf.QuotedTriple(rdf.T(known, rdf.IRI("q"), rdf.Integer(1)))
	nid := d.Intern(nested)
	if q, one := d.Intern(rdf.IRI("q")), d.Intern(rdf.Integer(1)); q >= nid || one >= nid {
		t.Fatalf("components %d, %d not interned before their quoted triple %d", q, one, nid)
	}
}

func TestDictionaryBulkLoad(t *testing.T) {
	src := NewDictionary()
	a, p := rdf.IRI("a"), rdf.IRI("p")
	quoted := rdf.QuotedTriple(rdf.T(a, p, rdf.String("a")))
	src.Intern(rdf.QuotedTriple(rdf.T(quoted, p, rdf.Blank("a"))))
	terms, components := src.Terms()
	if want := []TripleIDs{{1, 2, 3}, {4, 2, 5}}; !reflect.DeepEqual(components, want) {
		t.Fatalf("Terms components = %v, want %v", components, want)
	}

	dst := NewDictionary()
	if err := dst.BulkLoad(terms, components); err != nil {
		t.Fatal(err)
	}
	for i, term := range terms {
		if id, ok := dst.Lookup(term); !ok || id != TermID(i+1) {
			t.Fatalf("Lookup(%v) = %d, %v; want %d", term, id, ok, i+1)
		}
	}
	if err := dst.BulkLoad(terms, components); err == nil {
		t.Error("BulkLoad into a non-empty dictionary succeeded")
	}
	if err := NewDictionary().BulkLoad([]rdf.Term{a, p, a}, nil); err == nil {
		t.Error("BulkLoad accepted a duplicate term")
	}
	if err := NewDictionary().BulkLoad([]rdf.Term{a, quoted, p, rdf.String("a")}, []TripleIDs{{1, 3, 4}}); err == nil {
		t.Error("BulkLoad accepted a quoted triple listed before its components")
	}
	if err := NewDictionary().BulkLoad([]rdf.Term{a, p, rdf.String("a"), quoted}, []TripleIDs{{1, 2, 1}}); err == nil {
		t.Error("BulkLoad accepted component IDs naming other terms")
	}
	if err := NewDictionary().BulkLoad([]rdf.Term{a, p, rdf.String("a"), quoted}, nil); err == nil {
		t.Error("BulkLoad accepted a quoted triple without its component IDs")
	}
}

// lidsQuads generates n quads shaped like a LiDS graph: per-table metadata
// in named graphs (a tenth of the quads), then similarity edges between
// columns in the default graph, both directions, each with its RDF-star
// certainty annotation.
func lidsQuads(n int) []rdf.Quad {
	rng := rand.New(rand.NewSource(1))
	quads := make([]rdf.Quad, 0, n)
	var columns []rdf.Term
	for t := 0; len(quads) < n/10; t++ {
		table := rdf.Resource(fmt.Sprintf("lake/table%d.csv", t))
		quads = append(quads, rdf.Q(table, rdf.RDFType, rdf.ClassTable, table))
		for c := 0; c < 5; c++ {
			col := rdf.Resource(fmt.Sprintf("lake/table%d.csv/column%d", t, c))
			columns = append(columns, col)
			quads = append(quads,
				rdf.Q(col, rdf.RDFType, rdf.ClassColumn, table),
				rdf.Q(col, rdf.PropIsPartOf, table, table),
				rdf.Q(col, rdf.PropName, rdf.String(fmt.Sprintf("column%d", c)), table),
				rdf.Q(col, rdf.PropTotalValues, rdf.Integer(int64(rng.Intn(1000))), table))
		}
	}
	for len(quads) < n {
		a, b := columns[rng.Intn(len(columns))], columns[rng.Intn(len(columns))]
		score := rdf.Float(rng.Float64())
		for _, t := range []rdf.Triple{rdf.T(a, rdf.PropContentSimilarity, b), rdf.T(b, rdf.PropContentSimilarity, a)} {
			quads = append(quads,
				rdf.Quad{Triple: t, Graph: rdf.DefaultGraph},
				rdf.Quad{Triple: rdf.T(rdf.QuotedTriple(t), rdf.PropCertainty, score), Graph: rdf.DefaultGraph})
		}
	}
	return quads[:n]
}

// BenchmarkStore_BulkVsPerQuad loads the same 300k generated quads into an
// empty store through AddBatch's bulk loader and one AddQuad at a time.
func BenchmarkStore_BulkVsPerQuad(b *testing.B) {
	quads := lidsQuads(300_000)
	for _, path := range []struct {
		name string
		load func(*Store)
	}{
		{"bulk", func(st *Store) { st.AddBatch(quads) }},
		{"per-quad", func(st *Store) {
			for _, q := range quads {
				st.AddQuad(q)
			}
		}},
	} {
		b.Run(path.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				path.load(New())
			}
			b.ReportMetric(float64(len(quads))*float64(b.N)/b.Elapsed().Seconds(), "quads/s")
		})
	}
}

// Terms is Pages with the terms copied into one slice: terms[i] is the
// term with ID i+1.
func (d *Dictionary) Terms() (terms []rdf.Term, quoted []TripleIDs) {
	pages, quoted := d.Pages()
	for _, page := range pages {
		terms = append(terms, page...)
	}
	return terms, quoted
}
