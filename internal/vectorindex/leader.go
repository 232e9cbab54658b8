package vectorindex

import (
	"math"

	"kglids/internal/embed"
)

// LeaderIndex is the candidate pre-filter behind the blocked similarity-
// edge pipeline (schema package): it partitions a fixed set of vectors
// into leader-centred clusters and answers radius queries with an *exact
// superset guarantee* — Candidates(q, maxAngle) reports every vector whose
// angle to q is at most maxAngle, and usually far fewer than all of them.
//
// Unlike the HNSW index, which trades recall for speed, the guarantee here
// is unconditional. It rests on the angular triangle inequality: for a
// member m of the cluster led by l,
//
//	angle(q, m) >= angle(q, l) - angle(m, l) >= angle(q, l) - radius(l)
//
// so when angle(q, l) > maxAngle + radius(l) no member of l's cluster can
// be within maxAngle of q and the whole cluster is skipped with one dot
// product. Zero vectors are safe by construction: their dot with anything
// is 0, so their angle is recorded as pi/2 and the inequality above only
// ever widens (a zero leader's cluster simply stops being prunable).
//
// Build cost is O(n * leaders * dim); query cost is O(leaders * dim) plus
// the members of the clusters that survive. Pruning quality is data-
// dependent — clustered embeddings (columns sharing value domains) prune
// heavily, adversarially orthogonal ones degrade to a full scan — but
// correctness never depends on it.
type LeaderIndex struct {
	leaders []embed.Vector // unit (or zero) leader vectors
	members [][]int32      // positions into the input slice, per leader
	radius  []float64      // max member-to-leader angle, per leader
}

// angleEps absorbs the floating-point error of dot products and Acos near
// +-1 (where the derivative of Acos blows the ~1e-13 dot error up to
// ~1e-6 of angle). Every prune test keeps this much slack so a pair
// exactly at a threshold can never be lost to rounding.
const angleEps = 1e-5

// angleBetween returns the angle of two unit-or-zero vectors.
func angleBetween(a, b embed.Vector) float64 {
	d := a.Dot(b)
	if d > 1 {
		d = 1
	} else if d < -1 {
		d = -1
	}
	return math.Acos(d)
}

// PruneAngle converts a cosine-similarity threshold into the search radius
// that preserves every pair at or above it: angle(a, b) <= PruneAngle(t)
// whenever cosine(a, b) >= t. Thresholds outside [-1, 1] clamp.
func PruneAngle(threshold float64) float64 {
	if threshold > 1 {
		threshold = 1
	} else if threshold < -1 {
		threshold = -1
	}
	return math.Acos(threshold)
}

// NewLeaderIndex builds the pre-filter over vecs (unnormalized; normalized
// copies are taken). attachAngle is the preferred cluster radius: a vector
// joins the first cluster (in recently-used order) whose leader is within
// attachAngle, otherwise it founds a new cluster — so the leader count
// tracks the number of natural domains in the data, and the move-to-front
// scan order makes runs of same-domain input (tables of one family
// profiled consecutively) attach after probing a handful of leaders.
//
// targetCluster (the desired average cluster size at scale) sets the
// leader cap, max(n/targetCluster, 1024): small and medium blocks cluster
// freely, very large ones converge to ~targetCluster members per cluster.
// Past the cap a vector attaches to its *nearest* leader instead, growing
// that cluster's recorded radius — queries stay exact regardless, pruning
// just weakens gracefully.
func NewLeaderIndex(vecs []embed.Vector, targetCluster int, attachAngle float64) *LeaderIndex {
	if targetCluster < 1 {
		targetCluster = 1
	}
	maxLeaders := (len(vecs) + targetCluster - 1) / targetCluster
	if maxLeaders < 1024 {
		maxLeaders = 1024
	}
	ix := &LeaderIndex{}
	var order []int // leader ids, most recently used first
	attach := func(li int, angle float64, pos int) {
		ix.members[li] = append(ix.members[li], int32(pos))
		if r := angle + angleEps; r > ix.radius[li] {
			ix.radius[li] = r
		}
	}
	for pos, v := range vecs {
		u := v.Clone()
		u.Normalize()
		if len(ix.leaders) < maxLeaders {
			attached := false
			for oi, li := range order {
				if a := angleBetween(u, ix.leaders[li]); a <= attachAngle {
					attach(li, a, pos)
					copy(order[1:oi+1], order[:oi])
					order[0] = li
					attached = true
					break
				}
			}
			if !attached {
				ix.leaders = append(ix.leaders, u)
				ix.members = append(ix.members, []int32{int32(pos)})
				ix.radius = append(ix.radius, 0)
				order = append([]int{len(ix.leaders) - 1}, order...)
			}
			continue
		}
		bestLeader, bestAngle := 0, math.Inf(1)
		for li, l := range ix.leaders {
			if a := angleBetween(u, l); a < bestAngle {
				bestLeader, bestAngle = li, a
			}
		}
		attach(bestLeader, bestAngle, pos)
	}
	return ix
}

// Candidates invokes fn with the position of every indexed vector whose
// angle to q might be at most maxAngle. The superset guarantee: any vector
// v with angle(q, v) <= maxAngle is reported. Vectors outside the radius
// may be reported too (they share a cluster with ones inside); callers
// verify candidates with the exact similarity measure.
func (ix *LeaderIndex) Candidates(q embed.Vector, maxAngle float64, fn func(pos int32)) {
	u := q.Clone()
	u.Normalize()
	for li, l := range ix.leaders {
		if angleBetween(u, l) > maxAngle+ix.radius[li]+angleEps {
			continue
		}
		for _, m := range ix.members[li] {
			fn(m)
		}
	}
}
