package vectorindex

import (
	"math"
	"math/rand"
	"testing"

	"kglids/internal/embed"
)

// randomClusteredVecs builds vectors around nCenters random unit centers
// plus a few zero vectors, the shape the leader pre-filter serves.
func randomClusteredVecs(rng *rand.Rand, n, dim, nCenters int) []embed.Vector {
	centers := make([]embed.Vector, nCenters)
	for i := range centers {
		c := embed.NewVector(dim)
		for d := range c {
			c[d] = rng.NormFloat64()
		}
		c.Normalize()
		centers[i] = c
	}
	out := make([]embed.Vector, n)
	for i := range out {
		if i%17 == 0 {
			out[i] = embed.NewVector(dim) // zero vector
			continue
		}
		c := centers[rng.Intn(nCenters)]
		v := c.Clone()
		for d := range v {
			v[d] += 0.25 * rng.NormFloat64()
		}
		v.Scale(1 + rng.Float64()) // unnormalized on purpose
		out[i] = v
	}
	return out
}

// TestLeaderIndexExactSuperset is the contract test: for random data and
// random thresholds, Candidates must report every vector whose cosine
// similarity to the query is at or above the threshold.
func TestLeaderIndexExactSuperset(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 40 + rng.Intn(160)
		vecs := randomClusteredVecs(rng, n, 24, 1+rng.Intn(8))
		target := 1 + rng.Intn(16)
		threshold := []float64{0.95, 0.85, 0.6, 0.3, 0.0}[rng.Intn(5)]
		maxAngle := PruneAngle(threshold)
		ix := NewLeaderIndex(vecs, target, maxAngle/2)
		for q := 0; q < n; q += 1 + rng.Intn(5) {
			got := map[int32]bool{}
			ix.Candidates(vecs[q], maxAngle, func(pos int32) { got[pos] = true })
			for j, v := range vecs {
				if embed.Cosine(vecs[q], v) >= threshold && !got[int32(j)] {
					t.Fatalf("trial %d: query %d lost neighbour %d (cos %.4f >= %.2f, %d clusters)",
						trial, q, j, embed.Cosine(vecs[q], v), threshold, ix.Clusters())
				}
			}
		}
	}
}

// TestLeaderIndexPrunes asserts the pre-filter actually skips far-away
// clusters on well-separated data (pruning quality, not correctness).
func TestLeaderIndexPrunes(t *testing.T) {
	dim := 32
	mk := func(axis int, n int) []embed.Vector {
		out := make([]embed.Vector, n)
		for i := range out {
			v := embed.NewVector(dim)
			v[axis] = 1
			v[(axis+1)%dim] = 0.05 * float64(i%3)
			out[i] = v
		}
		return out
	}
	vecs := append(mk(0, 50), mk(8, 50)...) // two orthogonal families
	ix := NewLeaderIndex(vecs, 25, PruneAngle(0.85)/2)
	count := 0
	ix.Candidates(vecs[0], PruneAngle(0.85), func(pos int32) { count++ })
	if count >= len(vecs) {
		t.Fatalf("no pruning: %d candidates of %d vectors", count, len(vecs))
	}
	if count < 50 {
		t.Fatalf("own family pruned: %d candidates", count)
	}
}

// TestLeaderIndexZeroVectors pins the zero-vector semantics: a zero query
// has cosine 0 to everything, so with a threshold <= 0 every vector must be
// a candidate, and the structure never panics.
func TestLeaderIndexZeroVectors(t *testing.T) {
	vecs := []embed.Vector{
		embed.NewVector(8), embed.NewVector(8),
		{1, 0, 0, 0, 0, 0, 0, 0}, {0, 1, 0, 0, 0, 0, 0, 0},
	}
	ix := NewLeaderIndex(vecs, 2, PruneAngle(0.9)/2)
	got := map[int32]bool{}
	ix.Candidates(vecs[0], PruneAngle(0.0), func(pos int32) { got[pos] = true })
	for j := range vecs {
		if !got[int32(j)] {
			t.Fatalf("zero query at threshold 0 lost vector %d", j)
		}
	}
}

// TestPruneAngle pins the threshold-to-radius conversion at the edges.
func TestPruneAngle(t *testing.T) {
	if a := PruneAngle(1.0); a != 0 {
		t.Errorf("PruneAngle(1) = %v", a)
	}
	if a := PruneAngle(2.0); a != 0 {
		t.Errorf("PruneAngle(2) = %v", a)
	}
	if a := PruneAngle(-5); math.Abs(a-math.Pi) > 1e-12 {
		t.Errorf("PruneAngle(-5) = %v", a)
	}
	if a := PruneAngle(0.85); math.Abs(math.Cos(a)-0.85) > 1e-12 {
		t.Errorf("cos(PruneAngle(0.85)) = %v", math.Cos(a))
	}
}

// Clusters returns the number of leader clusters.
func (ix *LeaderIndex) Clusters() int { return len(ix.leaders) }
