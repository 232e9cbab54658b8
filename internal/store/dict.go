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

// TripleIDs identifies an RDF-star quoted triple by the IDs of its
// subject, predicate and object, which are therefore always interned
// before it.
type TripleIDs struct{ S, P, O TermID }

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
	quoted   map[TripleIDs]TermID
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
		quoted:   map[TripleIDs]TermID{},
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
		var k TripleIDs
		var ok bool
		if k.S, ok = d.resolve(&t.Quoted.Subject, intern); !ok {
			return 0, false
		}
		if k.P, ok = d.resolve(&t.Quoted.Predicate, intern); !ok {
			return 0, false
		}
		if k.O, ok = d.resolve(&t.Quoted.Object, intern); !ok {
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
	return *d.at(id)
}

// at returns the slot of id. Caller holds d.mu.
func (d *Dictionary) at(id TermID) *rdf.Term {
	return &d.pages[(id-1)/termPage][(id-1)%termPage]
}

// BulkLoad fills an empty dictionary with terms in ID order (terms[i] is
// assigned ID i+1), the snapshot-restore counterpart of Terms: quoted[k]
// holds the component IDs of the k-th quoted triple in terms, so a quoted
// triple is keyed without looking its components up again. It rejects
// non-empty dictionaries, duplicate terms (which would corrupt lookups),
// a quoted list of the wrong length, and a quoted triple whose component
// IDs are not those of earlier terms equal to its components — Terms never
// produces any of these, because interning a quoted triple interns its
// components first.
func (d *Dictionary) BulkLoad(terms []rdf.Term, quoted []TripleIDs) error {
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
	if kinds[rdf.KindQuoted] != len(quoted) {
		return fmt.Errorf("store: BulkLoad of %d quoted triples given components for %d", kinds[rdf.KindQuoted], len(quoted))
	}
	d.iris = make(map[string]TermID, kinds[rdf.KindIRI])
	d.blanks = make(map[string]TermID, kinds[rdf.KindBlank])
	d.literals = make(map[literalKey]TermID, kinds[rdf.KindLiteral])
	d.quoted = make(map[TripleIDs]TermID, kinds[rdf.KindQuoted])
	for i := range terms {
		t, want := &terms[i], TermID(i+1)
		var id TermID
		if t.Kind == rdf.KindQuoted {
			k := quoted[0]
			quoted = quoted[1:]
			q := t.Quoted
			if !d.component(k.S, want, &q.Subject) || !d.component(k.P, want, &q.Predicate) || !d.component(k.O, want, &q.Object) {
				return fmt.Errorf("store: BulkLoad term %d (%s) does not follow its components %d, %d, %d", want, t, k.S, k.P, k.O)
			}
			id, _ = resolveIn(d, d.quoted, k, t, true)
		} else {
			id, _ = d.resolve(t, true)
		}
		if id != want {
			return fmt.Errorf("store: BulkLoad term %d (%s) is a duplicate", want, t)
		}
	}
	return nil
}

// component reports whether c names, among the IDs below id, a term equal
// to t. Caller holds d.mu.
func (d *Dictionary) component(c, id TermID, t *rdf.Term) bool {
	return c != 0 && c < id && d.at(c).Equal(*t)
}

// Pages returns all interned terms in ID order without copying them — the
// dictionary's own pages, each clipped to the terms it holds, so that the
// term with ID i+1 is the i-th across them — and the component IDs of the
// quoted triples among them, also in ID order: quoted[k] belongs to the
// k-th quoted triple in the pages. BulkLoad takes the terms and quoted
// back into an empty dictionary and reproduces the same ID assignment,
// which is what the snapshot codec relies on. A term never changes once
// interned and a page never moves, so the pages stay valid, and hold the
// same terms, while more are interned.
func (d *Dictionary) Pages() (pages [][]rdf.Term, quoted []TripleIDs) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	pages = make([][]rdf.Term, len(d.pages))
	for i, page := range d.pages {
		pages[i] = page[:len(page):len(page)]
	}
	// The quoted map is keyed by components. Inverting it through an array
	// indexed by ID keeps the map's iteration order out of the result.
	byID := make([]TripleIDs, d.n)
	for k, id := range d.quoted {
		byID[id-1] = k
	}
	quoted = make([]TripleIDs, 0, len(d.quoted))
	for i, page := range pages {
		for j := range page {
			if page[j].Kind == rdf.KindQuoted {
				quoted = append(quoted, byID[i*termPage+j])
			}
		}
	}
	return pages, quoted
}

// Len returns the number of interned terms.
func (d *Dictionary) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.n
}
