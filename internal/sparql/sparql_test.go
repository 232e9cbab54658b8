package sparql

import (
	"testing"

	"kglids/internal/rdf"
	"kglids/internal/store"
)

// buildFixture creates a small LiDS-like graph: two tables with columns and
// a pipeline graph reading one table.
func buildFixture() *store.Store {
	st := store.New()
	t1 := rdf.Resource("kaggle/titanic/train.csv")
	t2 := rdf.Resource("kaggle/heart-uci/heart.csv")
	st.Add(rdf.T(t1, rdf.RDFType, rdf.ClassTable))
	st.Add(rdf.T(t2, rdf.RDFType, rdf.ClassTable))
	st.Add(rdf.T(t1, rdf.PropName, rdf.String("train.csv")))
	st.Add(rdf.T(t2, rdf.PropName, rdf.String("heart.csv")))
	st.Add(rdf.T(t1, rdf.PropRowCount, rdf.Integer(891)))
	st.Add(rdf.T(t2, rdf.PropRowCount, rdf.Integer(303)))
	cols := map[string]rdf.Term{}
	for _, c := range []struct {
		table rdf.Term
		name  string
		typ   string
	}{
		{t1, "Sex", "named_entity"},
		{t1, "Age", "int"},
		{t1, "Survived", "boolean"},
		{t2, "gender", "named_entity"},
		{t2, "age", "int"},
		{t2, "target", "boolean"},
	} {
		col := rdf.Resource(c.table.Local() + "/" + c.name)
		cols[c.name] = col
		st.Add(rdf.T(col, rdf.RDFType, rdf.ClassColumn))
		st.Add(rdf.T(col, rdf.PropName, rdf.String(c.name)))
		st.Add(rdf.T(col, rdf.PropDataType, rdf.String(c.typ)))
		st.Add(rdf.T(col, rdf.PropIsPartOf, c.table))
	}
	sim := rdf.T(cols["Sex"], rdf.PropLabelSimilarity, cols["gender"])
	st.AddAnnotated(sim, rdf.DefaultGraph, rdf.PropCertainty, rdf.Float(0.92))
	// Pipeline named graph.
	pg := rdf.Resource("pipeline/p1")
	s1 := rdf.Resource("pipeline/p1/s1")
	st.AddToGraph(rdf.T(s1, rdf.RDFType, rdf.ClassStatement), pg)
	st.AddToGraph(rdf.T(s1, rdf.PropReads, t1), pg)
	return st
}

func TestBasicSelect(t *testing.T) {
	e := NewEngine(buildFixture())
	res, err := e.Query(`SELECT ?t WHERE { ?t a kglids:Table . }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(res.Rows))
	}
}

func TestJoinAndFilter(t *testing.T) {
	e := NewEngine(buildFixture())
	res, err := e.Query(`
		SELECT ?col ?name WHERE {
			?col a kglids:Column ;
			     kglids:name ?name ;
			     kglids:dataType "int" .
		}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("int columns = %d, want 2", len(res.Rows))
	}
	res, err = e.Query(`
		SELECT ?t WHERE {
			?t a kglids:Table ; kglids:rowCount ?n .
			FILTER(?n > 500)
		}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0]["t"].Local() != "train.csv" {
		t.Fatalf("filter result = %v", res.Rows)
	}
}

func TestStringFunctions(t *testing.T) {
	e := NewEngine(buildFixture())
	res, err := e.Query(`
		SELECT ?c WHERE {
			?c a kglids:Column ; kglids:name ?n .
			FILTER(CONTAINS(LCASE(?n), "age"))
		}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 { // Age, age
		t.Fatalf("CONTAINS matched %d, want 2", len(res.Rows))
	}
	res, err = e.Query(`
		SELECT ?c WHERE {
			?c a kglids:Column ; kglids:name ?n .
			FILTER(REGEX(?n, "^s", "i"))
		}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 { // Sex, Survived
		t.Fatalf("REGEX matched %d, want 2", len(res.Rows))
	}
}

func TestAggregates(t *testing.T) {
	e := NewEngine(buildFixture())
	res, err := e.Query(`
		SELECT ?typ (COUNT(?c) AS ?n) WHERE {
			?c a kglids:Column ; kglids:dataType ?typ .
		} GROUP BY ?typ ORDER BY DESC(?n)`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("groups = %d, want 3", len(res.Rows))
	}
	for _, r := range res.Rows {
		if n, _ := r["n"].AsInt(); n != 2 {
			t.Errorf("group %v count = %v, want 2", r["typ"], r["n"])
		}
	}
	res, err = e.Query(`SELECT (COUNT(*) AS ?n) (AVG(?rc) AS ?avg) WHERE { ?t kglids:rowCount ?rc . }`)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := res.Rows[0]["n"].AsInt(); n != 2 {
		t.Errorf("COUNT(*) = %v", res.Rows[0]["n"])
	}
	if avg, _ := res.Rows[0]["avg"].AsFloat(); avg != 597 {
		t.Errorf("AVG = %v, want 597", avg)
	}
}

func TestCountEmptyIsZero(t *testing.T) {
	e := NewEngine(store.New())
	res, err := e.Query(`SELECT (COUNT(*) AS ?n) WHERE { ?s a kglids:Table . }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if n, _ := res.Rows[0]["n"].AsInt(); n != 0 {
		t.Errorf("COUNT over empty = %v", res.Rows[0]["n"])
	}
}

func TestGraphPattern(t *testing.T) {
	e := NewEngine(buildFixture())
	// Named-graph restricted query.
	res, err := e.Query(`
		SELECT ?s ?t WHERE {
			GRAPH ?g { ?s kglids:reads ?t . }
		}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("graph rows = %d, want 1", len(res.Rows))
	}
	res, err = e.Query(`
		SELECT ?s WHERE {
			GRAPH <http://kglids.org/resource/pipeline/p1> { ?s a kglids:Statement . }
		}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("explicit graph rows = %d, want 1", len(res.Rows))
	}
}

func TestOptional(t *testing.T) {
	e := NewEngine(buildFixture())
	res, err := e.Query(`
		SELECT ?c ?sim WHERE {
			?c a kglids:Column .
			OPTIONAL { ?c kglids:labelSimilarity ?sim . }
		}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(res.Rows))
	}
	withSim := 0
	for _, r := range res.Rows {
		if _, ok := r["sim"]; ok {
			withSim++
		}
	}
	if withSim != 1 {
		t.Errorf("rows with sim = %d, want 1", withSim)
	}
}

func TestUnion(t *testing.T) {
	e := NewEngine(buildFixture())
	res, err := e.Query(`
		SELECT DISTINCT ?c WHERE {
			{ ?c kglids:dataType "int" . } UNION { ?c kglids:dataType "boolean" . }
		}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("union rows = %d, want 4", len(res.Rows))
	}
}

func TestOrderLimitOffset(t *testing.T) {
	e := NewEngine(buildFixture())
	res, err := e.Query(`
		SELECT ?n WHERE { ?c a kglids:Column ; kglids:name ?n . }
		ORDER BY ?n LIMIT 2 OFFSET 1`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.Rows[0]["n"].Value != "Sex" || res.Rows[1]["n"].Value != "Survived" {
		t.Errorf("ordered rows = %v %v", res.Rows[0]["n"], res.Rows[1]["n"])
	}
}

func TestDistinct(t *testing.T) {
	e := NewEngine(buildFixture())
	res, err := e.Query(`SELECT DISTINCT ?typ WHERE { ?c kglids:dataType ?typ . }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("distinct types = %d, want 3", len(res.Rows))
	}
}

func TestSharedVariableJoin(t *testing.T) {
	e := NewEngine(buildFixture())
	// Columns of the table named train.csv.
	res, err := e.Query(`
		SELECT ?col WHERE {
			?t kglids:name "train.csv" .
			?col kglids:isPartOf ?t .
		}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("columns of train.csv = %d, want 3", len(res.Rows))
	}
}

func TestRDFStarAnnotationQuery(t *testing.T) {
	st := buildFixture()
	e := NewEngine(st)
	// The annotation triple's subject is a quoted triple; verify we can
	// find high-certainty similarity edges by querying annotations through
	// the store API and filtering in SPARQL on the pair.
	res, err := e.Query(`
		SELECT ?a ?b WHERE { ?a kglids:labelSimilarity ?b . }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("similarity edges = %d", len(res.Rows))
	}
	tr := rdf.T(res.Rows[0]["a"], rdf.PropLabelSimilarity, res.Rows[0]["b"])
	score, ok := st.Annotation(tr, rdf.PropCertainty)
	if !ok {
		t.Fatal("no certainty annotation")
	}
	if f, _ := score.AsFloat(); f != 0.92 {
		t.Errorf("certainty = %v", score)
	}
}

func TestParseErrors(t *testing.T) {
	for _, src := range []string{
		``,
		`SELECT WHERE { }`,
		`SELECT ?x WHERE { ?x ?y }`,      // incomplete triple
		`SELECT ?x WHERE { ?x a ?y . `,   // unterminated group
		`SELECT ?x WHERE { FILTER ?x }`,  // filter without parens
		`SELECT ?x WHERE { ?x a foo:y }`, // unknown prefix
	} {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestArithmeticFilter(t *testing.T) {
	e := NewEngine(buildFixture())
	res, err := e.Query(`
		SELECT ?t WHERE {
			?t kglids:rowCount ?n .
			FILTER(?n * 2 > 1000 && ?n - 91 = 800)
		}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(res.Rows))
	}
}

func TestBoundAndNegation(t *testing.T) {
	e := NewEngine(buildFixture())
	res, err := e.Query(`
		SELECT ?c WHERE {
			?c a kglids:Column .
			OPTIONAL { ?c kglids:labelSimilarity ?s . }
			FILTER(!BOUND(?s))
		}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("unmatched columns = %d, want 5", len(res.Rows))
	}
}

// TestQuoteStringRoundTrip: a quoted value parses back to the value itself,
// whatever quotes, backslashes and control characters it holds.
func TestQuoteStringRoundTrip(t *testing.T) {
	for _, s := range []string{"", "plain", `say "hi"`, `C:\x`, `a\\"b`, `nope" . } } #`, "tab\there\nline", `\`, `"`} {
		q, err := Parse(`SELECT ?x WHERE { ?x kglids:task ` + QuoteString(s) + ` . }`)
		if err != nil {
			t.Fatalf("%q: %v", s, err)
		}
		if got := q.Where.Triples[0].O.Term.Value; got != s {
			t.Errorf("%q parsed back as %q", s, got)
		}
	}
}
