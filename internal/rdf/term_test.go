package rdf

import (
	"testing"
	"testing/quick"
)

func TestTermConstructors(t *testing.T) {
	if got := IRI("http://x/y").Local(); got != "y" {
		t.Errorf("Local() = %q, want y", got)
	}
	if got := Ontology("Column").Value; got != OntologyNS+"Column" {
		t.Errorf("Ontology = %q", got)
	}
	if got := Resource("ds1").Value; got != ResourceNS+"ds1" {
		t.Errorf("Resource = %q", got)
	}
}

func TestNumericLiterals(t *testing.T) {
	f, ok := Float(3.25).AsFloat()
	if !ok || f != 3.25 {
		t.Errorf("Float roundtrip = %v, %v", f, ok)
	}
	n, ok := Integer(-42).AsInt()
	if !ok || n != -42 {
		t.Errorf("Integer roundtrip = %v, %v", n, ok)
	}
	if _, ok := String("abc").AsFloat(); ok {
		t.Error("non-numeric literal parsed as float")
	}
	if _, ok := IRI("x").AsFloat(); ok {
		t.Error("IRI parsed as float")
	}
	if f, ok := Integer(7).AsFloat(); !ok || f != 7 {
		t.Error("integer literal should parse as float")
	}
}

func TestBoolLiteral(t *testing.T) {
	if Bool(true).Value != "true" || Bool(false).Value != "false" {
		t.Error("Bool lexical forms wrong")
	}
}

func TestTermString(t *testing.T) {
	cases := []struct {
		term Term
		want string
	}{
		{IRI("http://a"), "<http://a>"},
		{Blank("b0"), "_:b0"},
		{String("v"), `"v"`},
		{Integer(5), `"5"^^<` + XSDNS + `integer>`},
	}
	for _, c := range cases {
		if got := c.term.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestQuotedTriple(t *testing.T) {
	tr := T(IRI("s"), IRI("p"), IRI("o"))
	q := QuotedTriple(tr)
	if q.Kind != KindQuoted || !q.Quoted.Equal(tr) {
		t.Fatal("quoted triple not preserved")
	}
	q2 := QuotedTriple(tr)
	if !q.Equal(q2) {
		t.Error("equal quoted triples not Equal")
	}
	if q.Key() != q2.Key() {
		t.Error("equal quoted triples have different keys")
	}
	other := QuotedTriple(T(IRI("s"), IRI("p"), IRI("x")))
	if q.Equal(other) {
		t.Error("different quoted triples reported Equal")
	}
}

func TestKeyUniqueness(t *testing.T) {
	// Literal "Ix" must not collide with IRI "x".
	if String("Ix").Key() == IRI("x").Key() {
		t.Error("literal/IRI key collision")
	}
	if String("a").Key() == Blank("a").Key() {
		t.Error("literal/blank key collision")
	}
	if String("a").Key() == String("a\x01"+XSDNS+"other").Key() {
		t.Error("datatype not part of key")
	}
}

func TestKeyEqualConsistency(t *testing.T) {
	// Property: Equal terms have equal keys, and for the generated domain
	// distinct values yield distinct keys.
	f := func(a, b string) bool {
		ta, tb := String(a), String(b)
		if (a == b) != ta.Equal(tb) {
			return false
		}
		return (ta.Key() == tb.Key()) == ta.Equal(tb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTripleEqualString(t *testing.T) {
	a := T(IRI("s"), IRI("p"), String("o"))
	b := T(IRI("s"), IRI("p"), String("o"))
	if !a.Equal(b) {
		t.Error("identical triples not Equal")
	}
	if a.String() != `<s> <p> "o"` {
		t.Errorf("Triple.String() = %q", a.String())
	}
}
