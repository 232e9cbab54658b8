package vectorindex

import (
	"fmt"
	"math/rand"
	"testing"

	"kglids/internal/embed"
)

func randVec(rng *rand.Rand, dim int) embed.Vector {
	v := embed.NewVector(dim)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

func TestExactSearch(t *testing.T) {
	idx := NewExact()
	idx.Add("a", embed.Vector{1, 0, 0})
	idx.Add("b", embed.Vector{0, 1, 0})
	idx.Add("c", embed.Vector{0.9, 0.1, 0})
	res := idx.Search(embed.Vector{1, 0, 0}, 2)
	if len(res) != 2 || res[0].ID != "a" || res[1].ID != "c" {
		t.Fatalf("Search = %v", res)
	}
	if res[0].Score < 0.999 {
		t.Errorf("self-similarity = %v", res[0].Score)
	}
}

func TestExactReplace(t *testing.T) {
	idx := NewExact()
	idx.Add("a", embed.Vector{1, 0})
	idx.Add("a", embed.Vector{0, 1})
	if idx.Len() != 1 {
		t.Fatalf("Len = %d after replace", idx.Len())
	}
	res := idx.Search(embed.Vector{0, 1}, 1)
	if res[0].Score < 0.999 {
		t.Error("replacement vector not used")
	}
	v, ok := idx.Get("a")
	if !ok || v[1] != 1 {
		t.Errorf("Get = %v, %v", v, ok)
	}
	if _, ok := idx.Get("zz"); ok {
		t.Error("Get found missing ID")
	}
}

func TestExactKLargerThanIndex(t *testing.T) {
	idx := NewExact()
	idx.Add("a", embed.Vector{1, 0})
	res := idx.Search(embed.Vector{1, 0}, 10)
	if len(res) != 1 {
		t.Errorf("len = %d", len(res))
	}
}

func TestHNSWRecall(t *testing.T) {
	const n, dim, k = 500, 32, 10
	rng := rand.New(rand.NewSource(7))
	exact := NewExact()
	hnsw := NewHNSW(16, 100, 80)
	for i := 0; i < n; i++ {
		v := randVec(rng, dim)
		id := fmt.Sprintf("v%d", i)
		exact.Add(id, v)
		hnsw.Add(id, v)
	}
	if hnsw.Len() != n {
		t.Fatalf("hnsw len = %d", hnsw.Len())
	}
	// Average recall@k over queries must be high.
	totalRecall := 0.0
	const queries = 20
	for qi := 0; qi < queries; qi++ {
		q := randVec(rng, dim)
		want := map[string]bool{}
		for _, r := range exact.Search(q, k) {
			want[r.ID] = true
		}
		hits := 0
		for _, r := range hnsw.Search(q, k) {
			if want[r.ID] {
				hits++
			}
		}
		totalRecall += float64(hits) / float64(k)
	}
	if avg := totalRecall / queries; avg < 0.85 {
		t.Errorf("HNSW recall@%d = %.3f, want >= 0.85", k, avg)
	}
}

func TestHNSWEmpty(t *testing.T) {
	h := NewHNSW(8, 32, 32)
	if res := h.Search(embed.Vector{1, 0}, 5); res != nil {
		t.Errorf("empty search = %v", res)
	}
}

func TestHNSWSingle(t *testing.T) {
	h := NewHNSW(8, 32, 32)
	h.Add("only", embed.Vector{1, 2, 3})
	res := h.Search(embed.Vector{1, 2, 3}, 3)
	if len(res) != 1 || res[0].ID != "only" {
		t.Errorf("single search = %v", res)
	}
}

func TestHNSWReplace(t *testing.T) {
	h := NewHNSW(8, 32, 32)
	h.Add("a", embed.Vector{1, 0})
	h.Add("a", embed.Vector{0, 1})
	if h.Len() != 1 {
		t.Fatalf("len = %d", h.Len())
	}
}

func TestHNSWDeterministic(t *testing.T) {
	build := func() []Result {
		h := NewHNSW(8, 50, 50)
		rng := rand.New(rand.NewSource(9))
		for i := 0; i < 100; i++ {
			h.Add(fmt.Sprintf("v%d", i), randVec(rng, 16))
		}
		q := embed.NewVector(16)
		q[0] = 1
		return h.Search(q, 5)
	}
	a, b := build(), build()
	for i := range a {
		if a[i].ID != b[i].ID {
			t.Fatal("HNSW build/search not deterministic")
		}
	}
}

// Get returns the stored (normalized) vector for id.
func (e *Exact) Get(id string) (embed.Vector, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	i, ok := e.pos[id]
	if !ok {
		return nil, false
	}
	return e.vecs[i], true
}
