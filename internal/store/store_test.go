package store

import (
	"fmt"
	"sort"
	"testing"
	"testing/quick"

	"kglids/internal/rdf"
)

func TestDictionaryIntern(t *testing.T) {
	d := NewDictionary()
	a := d.Intern(rdf.IRI("x"))
	b := d.Intern(rdf.IRI("x"))
	if a != b {
		t.Errorf("same term interned to %d and %d", a, b)
	}
	c := d.Intern(rdf.String("x"))
	if c == a {
		t.Error("literal and IRI share an ID")
	}
	if got := d.Term(a); !got.Equal(rdf.IRI("x")) {
		t.Errorf("Term(%d) = %v", a, got)
	}
	if d.Len() != 2 {
		t.Errorf("Len = %d, want 2", d.Len())
	}
	if _, ok := d.Lookup(rdf.IRI("missing")); ok {
		t.Error("Lookup found missing term")
	}
}

func TestAddAndMatch(t *testing.T) {
	st := New()
	s, p, o := rdf.Resource("s"), rdf.Ontology("p"), rdf.String("o")
	st.Add(rdf.T(s, p, o))
	st.Add(rdf.T(s, p, o)) // duplicate
	if st.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (dup ignored)", st.Len())
	}
	for name, pat := range map[string][3]rdf.Term{
		"spo": {s, p, o},
		"s??": {s, Wildcard, Wildcard},
		"?p?": {Wildcard, p, Wildcard},
		"??o": {Wildcard, Wildcard, o},
		"sp?": {s, p, Wildcard},
		"s?o": {s, Wildcard, o},
		"?po": {Wildcard, p, o},
		"???": {Wildcard, Wildcard, Wildcard},
	} {
		got := st.Match(pat[0], pat[1], pat[2], rdf.DefaultGraph)
		if len(got) != 1 || !got[0].Equal(rdf.T(s, p, o)) {
			t.Errorf("pattern %s: got %v", name, got)
		}
	}
	if got := st.Match(rdf.Resource("nope"), Wildcard, Wildcard, rdf.DefaultGraph); len(got) != 0 {
		t.Errorf("unknown subject matched %v", got)
	}
}

func TestNamedGraphs(t *testing.T) {
	st := New()
	g1, g2 := rdf.Resource("pipeline/1"), rdf.Resource("pipeline/2")
	st.AddToGraph(rdf.T(rdf.IRI("a"), rdf.IRI("p"), rdf.IRI("b")), g1)
	st.AddToGraph(rdf.T(rdf.IRI("c"), rdf.IRI("p"), rdf.IRI("d")), g2)

	if n := st.GraphLen(g1); n != 1 {
		t.Errorf("GraphLen(g1) = %d", n)
	}
	// Union query sees both.
	if got := st.Match(Wildcard, rdf.IRI("p"), Wildcard, rdf.DefaultGraph); len(got) != 2 {
		t.Errorf("union match = %d triples, want 2", len(got))
	}
	// Graph-restricted query sees one.
	if got := st.Match(Wildcard, rdf.IRI("p"), Wildcard, g1); len(got) != 1 {
		t.Errorf("g1 match = %d triples, want 1", len(got))
	}
	if gs := st.Graphs(); len(gs) != 2 {
		t.Errorf("Graphs() = %v", gs)
	}
}

func TestSameTripleInTwoGraphs(t *testing.T) {
	st := New()
	tr := rdf.T(rdf.IRI("a"), rdf.IRI("p"), rdf.IRI("b"))
	st.AddToGraph(tr, rdf.Resource("g1"))
	st.AddToGraph(tr, rdf.Resource("g2"))
	if st.Len() != 2 {
		t.Errorf("Len = %d, want 2 (one per graph)", st.Len())
	}
	// Union index should report the triple once per match call.
	if got := st.Match(rdf.IRI("a"), Wildcard, Wildcard, rdf.DefaultGraph); len(got) != 1 {
		t.Errorf("union dedup: got %d", len(got))
	}
}

func TestAnnotation(t *testing.T) {
	st := New()
	tr := rdf.T(rdf.Resource("colA"), rdf.PropContentSimilarity, rdf.Resource("colB"))
	st.AddAnnotated(tr, rdf.DefaultGraph, rdf.PropCertainty, rdf.Float(0.92))
	v, ok := st.Annotation(tr, rdf.PropCertainty)
	if !ok {
		t.Fatal("annotation not found")
	}
	if f, _ := v.AsFloat(); f != 0.92 {
		t.Errorf("certainty = %v", v)
	}
	_, ok = st.Annotation(rdf.T(rdf.Resource("x"), rdf.PropContentSimilarity, rdf.Resource("y")), rdf.PropCertainty)
	if ok {
		t.Error("found annotation for unannotated triple")
	}
}

func TestCountsAndStats(t *testing.T) {
	st := New()
	for i := 0; i < 10; i++ {
		st.Add(rdf.T(rdf.Resource(fmt.Sprintf("s%d", i)), rdf.RDFType, rdf.ClassColumn))
	}
	if n := st.CountMatch(Wildcard, rdf.RDFType, rdf.ClassColumn, rdf.DefaultGraph); n != 10 {
		t.Errorf("CountMatch = %d", n)
	}
	if n := st.NodeCount(); n != 11 { // 10 subjects + 1 class
		t.Errorf("NodeCount = %d", n)
	}
	if n := st.PredicateCount(); n != 1 {
		t.Errorf("PredicateCount = %d", n)
	}
	if st.ApproxBytes() <= 0 {
		t.Error("ApproxBytes not positive")
	}
}

func TestSubjectsObjects(t *testing.T) {
	st := New()
	st.Add(rdf.T(rdf.Resource("t1"), rdf.RDFType, rdf.ClassTable))
	st.Add(rdf.T(rdf.Resource("t2"), rdf.RDFType, rdf.ClassTable))
	st.Add(rdf.T(rdf.Resource("t1"), rdf.PropName, rdf.String("train.csv")))
	subs := st.Subjects(rdf.RDFType, rdf.ClassTable, rdf.DefaultGraph)
	if len(subs) != 2 {
		t.Errorf("Subjects = %v", subs)
	}
	objs := st.Objects(rdf.Resource("t1"), Wildcard, rdf.DefaultGraph)
	if len(objs) != 2 {
		t.Errorf("Objects = %v", objs)
	}
}

func TestMatchFuncEarlyStop(t *testing.T) {
	st := New()
	for i := 0; i < 100; i++ {
		st.Add(rdf.T(rdf.Resource(fmt.Sprintf("s%d", i)), rdf.RDFType, rdf.ClassColumn))
	}
	n := 0
	st.MatchFunc(Wildcard, rdf.RDFType, Wildcard, rdf.DefaultGraph, func(rdf.Triple) bool {
		n++
		return n < 5
	})
	if n != 5 {
		t.Errorf("early stop after %d, want 5", n)
	}
}

// Property: every added triple is findable by full pattern, and Len equals
// number of distinct triples added.
func TestQuickAddFind(t *testing.T) {
	f := func(subjects, objects []uint8) bool {
		st := New()
		type key struct{ s, o uint8 }
		distinct := map[key]struct{}{}
		n := min(len(subjects), len(objects))
		for i := 0; i < n; i++ {
			s := rdf.Resource(fmt.Sprintf("s%d", subjects[i]))
			o := rdf.Resource(fmt.Sprintf("o%d", objects[i]))
			st.Add(rdf.T(s, rdf.PropReads, o))
			distinct[key{subjects[i], objects[i]}] = struct{}{}
		}
		if st.Len() != len(distinct) {
			return false
		}
		for k := range distinct {
			got := st.Match(rdf.Resource(fmt.Sprintf("s%d", k.s)), rdf.PropReads, rdf.Resource(fmt.Sprintf("o%d", k.o)), rdf.DefaultGraph)
			if len(got) != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestConcurrentAdd(t *testing.T) {
	st := New()
	done := make(chan struct{})
	for w := 0; w < 8; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 200; i++ {
				st.Add(rdf.T(rdf.Resource(fmt.Sprintf("w%d-s%d", w, i)), rdf.RDFType, rdf.ClassColumn))
			}
		}(w)
	}
	for w := 0; w < 8; w++ {
		<-done
	}
	if st.Len() != 8*200 {
		t.Errorf("Len = %d, want %d", st.Len(), 8*200)
	}
}

// Subjects returns the distinct subjects of triples matching (p, o) in g.
func (st *Store) Subjects(p, o, g rdf.Term) []rdf.Term {
	seen := map[string]struct{}{}
	var out []rdf.Term
	st.MatchFunc(Wildcard, p, o, g, func(t rdf.Triple) bool {
		k := t.Subject.Key()
		if _, dup := seen[k]; !dup {
			seen[k] = struct{}{}
			out = append(out, t.Subject)
		}
		return true
	})
	return out
}

// Graphs returns all named graphs in the store.
func (st *Store) Graphs() []rdf.Term {
	st.mu.RLock()
	ids := make([]TermID, 0, len(st.graphs))
	for g := range st.graphs {
		if g != unionGraph {
			ids = append(ids, g)
		}
	}
	st.mu.RUnlock()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := make([]rdf.Term, len(ids))
	for i, id := range ids {
		out[i] = st.dict.Term(id)
	}
	return out
}
