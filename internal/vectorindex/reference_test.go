package vectorindex

import (
	"math"
	"math/rand"
	"sort"
	"strconv"
	"testing"

	"kglids/internal/embed"
)

// refSearch states Exact.Search plainly: every score from the full dot
// product, then a stable sort of them all.
func refSearch(e *Exact, q embed.Vector, k int) []Result {
	if k <= 0 {
		return nil
	}
	nq := q.Clone()
	nq.Normalize()
	e.mu.RLock()
	defer e.mu.RUnlock()
	if len(e.ids) == 0 {
		return nil
	}
	results := make([]Result, 0, len(e.ids))
	for i, v := range e.vecs {
		results = append(results, Result{ID: e.ids[i], Score: nq.Dot(v)})
	}
	sort.SliceStable(results, func(i, j int) bool { return results[i].Score > results[j].Score })
	if k < len(results) {
		results = results[:k]
	}
	return results
}

// coarseVec is a table-shaped vector whose filled blocks hold entries from
// {-1, 0, 1}, so that scores tie often.
func coarseVec(rng *rand.Rand) embed.Vector {
	v := embed.NewVector(embed.TableDim)
	for b := 0; b < len(embed.EmbeddedTypes); b++ {
		if rng.Intn(3) == 0 {
			continue
		}
		for i := b * embed.Dim; i < (b+1)*embed.Dim; i += 1 + rng.Intn(40) {
			v[i] = float64(rng.Intn(3) - 1)
		}
	}
	return v
}

// TestExactSearchMatchesStableSort compares Search with the stable sort of
// every score, ID and score bit for bit, over indexes full of ties: coarse
// vectors, duplicates, zero vectors, and replaced and removed entries.
func TestExactSearchMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	e := NewExact()
	var added []embed.Vector
	for i := 0; i < 120; i++ {
		var v embed.Vector
		switch {
		case i%10 == 3:
			v = embed.NewVector(embed.TableDim) // zero vector
		case i%7 == 5 && len(added) > 0:
			v = added[rng.Intn(len(added))].Clone() // duplicate
		case i%2 == 0:
			v = coarseVec(rng)
		default:
			v = tableVec(rng)
		}
		added = append(added, v)
		e.Add("t"+strconv.Itoa(i), v)
	}
	queries := []embed.Vector{embed.NewVector(embed.TableDim), added[0], added[3], added[5]}
	for i := 0; i < 30; i++ {
		if i%2 == 0 {
			queries = append(queries, coarseVec(rng))
		} else {
			queries = append(queries, tableVec(rng))
		}
	}
	ties := 0
	check := func(stage string) {
		t.Helper()
		n := e.Len()
		for qi, q := range queries {
			for _, k := range []int{1, n / 2, n, n + 5} {
				got, want := e.Search(q, k), refSearch(e, q, k)
				if len(got) != len(want) {
					t.Fatalf("%s, query %d, k=%d: %d hits, reference %d", stage, qi, k, len(got), len(want))
				}
				for i := range got {
					if i > 0 && want[i].Score == want[i-1].Score {
						ties++
					}
					if got[i].ID != want[i].ID || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
						t.Fatalf("%s, query %d, k=%d: hit %d = %v, reference %v", stage, qi, k, i, got[i], want[i])
					}
				}
			}
		}
	}
	check("added")
	for i := 0; i < 120; i += 9 {
		e.Add("t"+strconv.Itoa(i), added[(i*7)%len(added)]) // replace in place
	}
	check("replaced")
	for i := 1; i < 120; i += 4 {
		e.Remove("t" + strconv.Itoa(i))
	}
	check("removed")
	if ties < 1000 {
		t.Fatalf("only %d tied hits: the index no longer exercises the tie order", ties)
	}
}
