// Package vectorindex is the embedding store of KGLiDS (paper Section 2.2),
// substituting for Faiss: it indexes column/table embeddings and supports
// exact and approximate (HNSW) nearest-neighbour search by cosine
// similarity.
package vectorindex

import (
	"slices"
	"sort"
	"sync"

	"kglids/internal/embed"
)

// Result is one nearest-neighbour hit.
type Result struct {
	ID    string
	Score float64 // cosine similarity
}

// Index is the interface shared by the exact and HNSW implementations.
type Index interface {
	// Add inserts a vector under an ID. Adding an existing ID replaces it.
	Add(id string, v embed.Vector)
	// Search returns the k entries most similar to q, best first.
	Search(q embed.Vector, k int) []Result
	// Len returns the number of indexed vectors.
	Len() int
}

// Exact is a brute-force cosine index. It is safe for concurrent use: reads
// (Search, Get, IDs, Len) take a shared lock, mutations an exclusive one, so
// a served platform can index new tables while answering queries.
type Exact struct {
	mu   sync.RWMutex
	ids  []string
	vecs []embed.Vector
	pos  map[string]int
}

// NewExact returns an empty brute-force index.
func NewExact() *Exact { return &Exact{pos: map[string]int{}} }

// Add implements Index.
func (e *Exact) Add(id string, v embed.Vector) {
	u := v.Clone()
	u.Normalize()
	e.mu.Lock()
	defer e.mu.Unlock()
	if i, ok := e.pos[id]; ok {
		e.vecs[i] = u
		return
	}
	e.pos[id] = len(e.ids)
	e.ids = append(e.ids, id)
	e.vecs = append(e.vecs, u)
}

// Remove deletes a vector by ID, preserving the insertion order of the
// remaining entries (tie-breaking in Search depends on it). Returns whether
// the ID was present.
func (e *Exact) Remove(id string) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	i, ok := e.pos[id]
	if !ok {
		return false
	}
	e.ids = append(e.ids[:i], e.ids[i+1:]...)
	e.vecs = append(e.vecs[:i], e.vecs[i+1:]...)
	delete(e.pos, id)
	for j := i; j < len(e.ids); j++ {
		e.pos[e.ids[j]] = j
	}
	return true
}

// Search implements Index. Non-positive k and empty indexes yield no
// results. It is a bounded top-k scan: each score is inserted into a list
// of at most k hits ordered by score, best first, an earlier-inserted
// entry ahead of a later one with the same score — the order a stable
// sort of every score gives, for vectors with finite entries. Only the
// query's non-zero chunks are dotted: a skipped term is ±0, which never
// changes a sum that began at +0, so every score is the full dot product.
func (e *Exact) Search(q embed.Vector, k int) []Result {
	if k <= 0 {
		return nil
	}
	nq := q.Clone()
	nq.Normalize()
	spans := nonZeroSpans(nq)
	e.mu.RLock()
	defer e.mu.RUnlock()
	if len(e.ids) == 0 {
		return nil
	}
	top := make([]Result, 0, min(k, len(e.ids)))
	for i, v := range e.vecs {
		s := dotSpans(nq, v, spans)
		if len(top) == k && !(s > top[k-1].Score) {
			continue
		}
		// The first hit scoring below s; ties stay ahead of s.
		at := sort.Search(len(top), func(j int) bool { return top[j].Score < s })
		if len(top) < k {
			top = append(top, Result{})
		}
		copy(top[at+1:], top[at:len(top)-1])
		top[at] = Result{ID: e.ids[i], Score: s}
	}
	return top
}

// dotChunk is the width of the chunks a query is split into to skip its
// zero entries: table embeddings leave the 300-wide block of every column
// type a table lacks at zero.
const dotChunk = 60

// nonZeroSpans returns the [lo, hi) spans of q that cover its dotChunk-wide
// chunks holding a non-zero entry, adjacent chunks merged.
func nonZeroSpans(q embed.Vector) [][2]int {
	var spans [][2]int
	for lo := 0; lo < len(q); lo += dotChunk {
		hi := min(lo+dotChunk, len(q))
		if !slices.ContainsFunc(q[lo:hi], func(x float64) bool { return x != 0 }) {
			continue
		}
		if n := len(spans); n > 0 && spans[n-1][1] == lo {
			spans[n-1][1] = hi
		} else {
			spans = append(spans, [2]int{lo, hi})
		}
	}
	return spans
}

// dotSpans is q·v summed over the spans only, term by term in index order
// as embed.Vector.Dot sums.
func dotSpans(q, v embed.Vector, spans [][2]int) float64 {
	s := 0.0
	for _, sp := range spans {
		qs, vs := q[sp[0]:sp[1]], v[sp[0]:sp[1]]
		for i := range qs {
			s += qs[i] * vs[i]
		}
	}
	return s
}

// Len implements Index.
func (e *Exact) Len() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return len(e.ids)
}

// IDs returns all indexed IDs in insertion order.
func (e *Exact) IDs() []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return append([]string(nil), e.ids...)
}
