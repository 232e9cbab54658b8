// Package rdf provides the RDF-star data model used by the LiDS graph:
// IRIs, literals, blank nodes, quoted triples, triples, and quads with
// named-graph support. It mirrors the subset of RDF 1.1 + RDF-star that
// the KGLiDS paper relies on (Section 2.1).
package rdf

import (
	"fmt"
	"strconv"
	"strings"
)

// Namespace prefixes used throughout the LiDS graph, matching the paper's
// ontology URIs.
const (
	OntologyNS = "http://kglids.org/ontology/"
	ResourceNS = "http://kglids.org/resource/"
	RDFNS      = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
	RDFSNS     = "http://www.w3.org/2000/01/rdf-schema#"
	XSDNS      = "http://www.w3.org/2001/XMLSchema#"
)

// TermKind discriminates the variants of Term.
type TermKind uint8

const (
	KindIRI TermKind = iota
	KindLiteral
	KindBlank
	KindQuoted // RDF-star quoted triple used as a term
)

// Term is a node or edge label in an RDF graph. Exactly one variant is
// populated depending on Kind.
type Term struct {
	Kind     TermKind
	Value    string  // IRI string, literal lexical form, or blank node label
	Datatype string  // literal datatype IRI ("" means xsd:string)
	Quoted   *Triple // populated when Kind == KindQuoted
}

// IRI returns an IRI term.
func IRI(iri string) Term { return Term{Kind: KindIRI, Value: iri} }

// Ontology returns an IRI in the LiDS ontology namespace.
func Ontology(local string) Term { return IRI(OntologyNS + local) }

// Resource returns an IRI in the LiDS resource namespace.
func Resource(local string) Term { return IRI(ResourceNS + local) }

// Blank returns a blank node with the given label.
func Blank(label string) Term { return Term{Kind: KindBlank, Value: label} }

// String returns an xsd:string literal.
func String(v string) Term { return Term{Kind: KindLiteral, Value: v, Datatype: XSDNS + "string"} }

// Integer returns an xsd:integer literal.
func Integer(v int64) Term {
	return Term{Kind: KindLiteral, Value: strconv.FormatInt(v, 10), Datatype: XSDNS + "integer"}
}

// Float returns an xsd:double literal.
func Float(v float64) Term {
	return Term{Kind: KindLiteral, Value: strconv.FormatFloat(v, 'g', -1, 64), Datatype: XSDNS + "double"}
}

// Bool returns an xsd:boolean literal.
func Bool(v bool) Term {
	return Term{Kind: KindLiteral, Value: strconv.FormatBool(v), Datatype: XSDNS + "boolean"}
}

// QuotedTriple returns an RDF-star quoted-triple term wrapping t.
func QuotedTriple(t Triple) Term { return Term{Kind: KindQuoted, Quoted: &t} }

// AsFloat parses a numeric literal. It returns false for non-numeric terms.
func (t Term) AsFloat() (float64, bool) {
	if t.Kind != KindLiteral {
		return 0, false
	}
	f, err := strconv.ParseFloat(t.Value, 64)
	if err != nil {
		return 0, false
	}
	return f, nil == err
}

// AsInt parses an integer literal. It returns false for non-integer terms.
func (t Term) AsInt() (int64, bool) {
	if t.Kind != KindLiteral {
		return 0, false
	}
	n, err := strconv.ParseInt(t.Value, 10, 64)
	return n, err == nil
}

// Local returns the local name of an IRI (the part after the last '/' or '#').
func (t Term) Local() string {
	if t.Kind != KindIRI {
		return t.Value
	}
	v := t.Value
	if i := strings.LastIndexAny(v, "/#"); i >= 0 {
		return v[i+1:]
	}
	return v
}

// String renders the term in N-Triples-like syntax.
func (t Term) String() string {
	switch t.Kind {
	case KindIRI:
		return "<" + t.Value + ">"
	case KindBlank:
		return "_:" + t.Value
	case KindQuoted:
		return "<< " + t.Quoted.String() + " >>"
	default:
		if t.Datatype == "" || t.Datatype == XSDNS+"string" {
			return strconv.Quote(t.Value)
		}
		return strconv.Quote(t.Value) + "^^<" + t.Datatype + ">"
	}
}

// Equal reports deep equality of two terms.
func (t Term) Equal(o Term) bool {
	if t.Kind != o.Kind || t.Value != o.Value || t.Datatype != o.Datatype {
		return false
	}
	if t.Kind == KindQuoted {
		return t.Quoted.Equal(*o.Quoted)
	}
	return true
}

// Key returns a canonical string key for dictionary encoding.
func (t Term) Key() string {
	switch t.Kind {
	case KindIRI:
		return "I" + t.Value
	case KindBlank:
		return "B" + t.Value
	case KindQuoted:
		q := t.Quoted
		return "Q" + q.Subject.Key() + "\x00" + q.Predicate.Key() + "\x00" + q.Object.Key()
	default:
		return "L" + t.Value + "\x01" + t.Datatype
	}
}

// Triple is a single RDF statement.
type Triple struct {
	Subject   Term
	Predicate Term
	Object    Term
}

// T is shorthand for constructing a Triple.
func T(s, p, o Term) Triple { return Triple{Subject: s, Predicate: p, Object: o} }

// String renders the triple in N-Triples-like syntax (without trailing dot).
func (t Triple) String() string {
	return fmt.Sprintf("%s %s %s", t.Subject, t.Predicate, t.Object)
}

// Equal reports deep equality of two triples.
func (t Triple) Equal(o Triple) bool {
	return t.Subject.Equal(o.Subject) && t.Predicate.Equal(o.Predicate) && t.Object.Equal(o.Object)
}

// Quad is a triple within a named graph. An empty Graph denotes the default
// graph.
type Quad struct {
	Triple
	Graph Term
}

// Q is shorthand for constructing a Quad.
func Q(s, p, o, g Term) Quad { return Quad{Triple: T(s, p, o), Graph: g} }

// DefaultGraph is the term denoting the default graph.
var DefaultGraph = Term{Kind: KindIRI, Value: ""}

// Well-known predicates used across the LiDS graph.
var (
	RDFType   = IRI(RDFNS + "type")
	RDFSLabel = IRI(RDFSNS + "label")
)
