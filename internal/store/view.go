package store

import (
	"sort"

	"kglids/internal/rdf"
)

// EncodeTerm resolves a term to its dictionary ID without interning. ok is
// false when the term has never been stored — a pattern constrained by such
// a term cannot match anything.
func (st *Store) EncodeTerm(t rdf.Term) (TermID, bool) { return st.dict.Lookup(t) }

// DecodeTerm returns the term for a previously interned ID. Decoding the
// reserved unbound ID 0 returns the zero term.
func (st *Store) DecodeTerm(id TermID) rdf.Term {
	if id == 0 {
		return rdf.Term{}
	}
	return st.dict.Term(id)
}

// MatchIDs streams the encoded triples matching (s, p, o) in graph g to fn;
// 0 IDs are wildcards and g == UnionGraph matches across all graphs.
// Iteration stops when fn returns false. This is the ID-space counterpart
// of MatchFunc: no term decoding, no per-call dictionary lookups.
func (st *Store) MatchIDs(s, p, o, g TermID, fn func(s, p, o TermID) bool) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	st.matchEncoded(s, p, o, g, fn)
}

// View is a read-locked handle on the store: it pins one consistent state
// for a whole multi-pattern query execution, letting the SPARQL engine run
// many index probes without per-call lock traffic (and without the nested
// read-lock acquisitions that could deadlock against a waiting writer).
// A View must be Closed exactly once; mutations block while any View is
// open, so hold one only for the duration of a query.
type View struct{ st *Store }

// AcquireView read-locks the store and returns the handle.
func (st *Store) AcquireView() *View {
	st.mu.RLock()
	return &View{st: st}
}

// Close releases the view's read lock.
func (v *View) Close() { v.st.mu.RUnlock() }

// Generation returns the store generation, stable for the view's lifetime.
func (v *View) Generation() uint64 { return v.st.gen }

// MatchIDs streams encoded matches under the already-held read lock.
func (v *View) MatchIDs(s, p, o, g TermID, fn func(s, p, o TermID) bool) {
	v.st.matchEncoded(s, p, o, g, fn)
}

// CountIDs estimates the matches of an encoded pattern (see Store.CountIDs).
func (v *View) CountIDs(s, p, o, g TermID) int { return v.st.countIDsLocked(s, p, o, g) }

// PredStats returns the per-predicate cardinality stats (union index).
func (v *View) PredStats(p TermID) PredicateStats { return v.st.predStatsLocked(p) }

// GraphIDs returns the IDs of all named graphs in ascending order, the
// iteration domain of an unbound GRAPH ?g pattern.
func (v *View) GraphIDs() []TermID {
	ids := make([]TermID, 0, len(v.st.graphs))
	for g := range v.st.graphs {
		if g != unionGraph {
			ids = append(ids, g)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Dict exposes the term dictionary for late materialization. The dictionary
// carries its own lock and is safe to use under the view.
func (v *View) Dict() *Dictionary { return v.st.dict }
