// Package store implements the KGLiDS Storage substrate (paper Section 2.2):
// a dictionary-encoded, index-backed RDF-star quad store with named graphs.
// It substitutes for GraphDB in the original system.
package store

import (
	"fmt"
	"sync"

	"kglids/internal/rdf"
)

// TermID is a dense integer handle for an interned term. ID 0 is reserved
// for "unbound".
type TermID uint32

// literalKey identifies a literal: two literals with the same lexical form
// and different datatypes are different terms.
type literalKey struct{ value, datatype string }

// quotedKey identifies an RDF-star quoted triple by the IDs of its
// components, which are therefore always interned before it.
type quotedKey struct{ s, p, o TermID }

// Dictionary interns terms to dense integer IDs and back. It is safe for
// concurrent use.
//
// Terms are keyed structurally, one map per kind, so neither interning nor
// lookup builds a key string: an IRI or blank node is found by its value,
// a literal by value and datatype, a quoted triple by three integers.
type Dictionary struct {
	mu       sync.RWMutex
	iris     map[string]TermID
	blanks   map[string]TermID
	literals map[literalKey]TermID
	quoted   map[quotedKey]TermID
	// pages holds the terms in ID order in fixed-size pages — the term for
	// id is pages[(id-1)/termPage][(id-1)%termPage] — so that interning
	// never copies the terms already there, however many a batch adds.
	pages [][]rdf.Term
	n     int // terms interned
}

const termPage = 1 << 12

// NewDictionary returns an empty dictionary.
func NewDictionary() *Dictionary {
	return &Dictionary{
		iris:     map[string]TermID{},
		blanks:   map[string]TermID{},
		literals: map[literalKey]TermID{},
		quoted:   map[quotedKey]TermID{},
	}
}

// resolve returns the ID of t. An unknown term gets the next ID when intern
// is set (caller holds d.mu for writing) and is reported as a miss
// otherwise (caller holds d.mu in either mode). A quoted triple resolves
// its components first; a miss on any of them is a miss on the triple, and
// nothing is interned on the way to a miss.
func (d *Dictionary) resolve(t *rdf.Term, intern bool) (TermID, bool) {
	switch t.Kind {
	case rdf.KindIRI:
		return resolveIn(d, d.iris, t.Value, t, intern)
	case rdf.KindBlank:
		return resolveIn(d, d.blanks, t.Value, t, intern)
	case rdf.KindQuoted:
		var k quotedKey
		var ok bool
		if k.s, ok = d.resolve(&t.Quoted.Subject, intern); !ok {
			return 0, false
		}
		if k.p, ok = d.resolve(&t.Quoted.Predicate, intern); !ok {
			return 0, false
		}
		if k.o, ok = d.resolve(&t.Quoted.Object, intern); !ok {
			return 0, false
		}
		return resolveIn(d, d.quoted, k, t, intern)
	default:
		return resolveIn(d, d.literals, literalKey{t.Value, t.Datatype}, t, intern)
	}
}

func resolveIn[K comparable](d *Dictionary, m map[K]TermID, k K, t *rdf.Term, intern bool) (TermID, bool) {
	id, ok := m[k]
	if ok || !intern {
		return id, ok
	}
	if d.n%termPage == 0 {
		d.pages = append(d.pages, make([]rdf.Term, 0, termPage))
	}
	last := &d.pages[len(d.pages)-1]
	*last = append(*last, *t)
	d.n++
	id = TermID(d.n)
	m[k] = id
	return id, true
}

// Intern returns the ID for t, assigning a new one if needed.
func (d *Dictionary) Intern(t rdf.Term) TermID {
	if id, ok := d.Lookup(t); ok {
		return id
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	id, _ := d.resolve(&t, true)
	return id
}

// internQuads encodes a batch under one lock acquisition. Unknown terms get
// IDs in first-occurrence order (graph, subject, predicate, object of each
// quad in turn), so the assignment is a function of the batch alone.
func (d *Dictionary) internQuads(quads []rdf.Quad) []EncodedQuad {
	enc := make([]EncodedQuad, len(quads))
	d.mu.Lock()
	defer d.mu.Unlock()
	for i := range quads {
		q, e := &quads[i], &enc[i]
		if q.Graph.Value != "" {
			e.G, _ = d.resolve(&q.Graph, true)
		}
		e.S, _ = d.resolve(&q.Subject, true)
		e.P, _ = d.resolve(&q.Predicate, true)
		e.O, _ = d.resolve(&q.Object, true)
	}
	return enc
}

// Lookup returns the ID for t without interning. The second result reports
// whether the term is known.
func (d *Dictionary) Lookup(t rdf.Term) (TermID, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.resolve(&t, false)
}

// Term returns the term for a previously interned ID.
func (d *Dictionary) Term(id TermID) rdf.Term {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.pages[(id-1)/termPage][(id-1)%termPage]
}

// BulkLoad fills an empty dictionary with terms in ID order (terms[i] is
// assigned ID i+1), the snapshot-restore counterpart of Terms. It rejects
// non-empty dictionaries, duplicate terms (which would corrupt lookups)
// and a quoted triple listed before one of its components — Terms never
// produces either, because interning a quoted triple interns its
// components first.
func (d *Dictionary) BulkLoad(terms []rdf.Term) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.n != 0 {
		return fmt.Errorf("store: BulkLoad into non-empty dictionary (%d terms)", d.n)
	}
	var kinds [rdf.KindQuoted + 1]int
	for _, t := range terms {
		if int(t.Kind) < len(kinds) {
			kinds[t.Kind]++
		}
	}
	d.iris = make(map[string]TermID, kinds[rdf.KindIRI])
	d.blanks = make(map[string]TermID, kinds[rdf.KindBlank])
	d.literals = make(map[literalKey]TermID, kinds[rdf.KindLiteral])
	d.quoted = make(map[quotedKey]TermID, kinds[rdf.KindQuoted])
	for i := range terms {
		if id, _ := d.resolve(&terms[i], true); id != TermID(i+1) {
			return fmt.Errorf("store: BulkLoad term %d (%s) is a duplicate or precedes a component of its quoted triple", i+1, terms[i])
		}
	}
	return nil
}

// Terms returns a copy of all interned terms in ID order: Terms()[i] is the
// term with ID i+1. Interning the returned slice in order into an empty
// dictionary reproduces the same ID assignment, which is what the snapshot
// codec relies on.
func (d *Dictionary) Terms() []rdf.Term {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]rdf.Term, 0, d.n)
	for _, page := range d.pages {
		out = append(out, page...)
	}
	return out
}

// Len returns the number of interned terms.
func (d *Dictionary) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.n
}
