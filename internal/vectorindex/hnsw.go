package vectorindex

import (
	"math"
	"math/rand"
	"sort"
	"sync"

	"kglids/internal/embed"
)

// HNSW is a Hierarchical Navigable Small World approximate-nearest-
// neighbour index (Malkov & Yashunin), the structure Starmie uses and that
// KGLiDS's embedding store exposes for embedding-based discovery. Like
// Exact it is safe for concurrent use (shared lock for Search/Len,
// exclusive for Add).
type HNSW struct {
	mu             sync.RWMutex
	m              int // max links per node per layer
	efConstruction int
	efSearch       int

	nodes  []hnswNode
	byID   map[string]int
	entry  int // index of entry point, -1 when empty
	maxLvl int
	rng    *rand.Rand
	levelF float64

	// deleted marks tombstoned node indexes. Tombstones stay navigable —
	// removing a node's links would tear holes in the small-world graph —
	// but are never returned from Search and never counted by Len. The
	// index compacts itself (rebuilding from live nodes) when tombstones
	// outnumber live entries.
	deleted  map[int]bool
	nDeleted int
}

type hnswNode struct {
	id    string
	vec   embed.Vector
	links [][]int // links[level] -> neighbour node indexes
}

// NewHNSW returns an HNSW index with the given connectivity (m) and
// construction/search beam widths. Typical values: m=16, ef=64.
func NewHNSW(m, efConstruction, efSearch int) *HNSW {
	return &HNSW{
		m:              m,
		efConstruction: efConstruction,
		efSearch:       efSearch,
		byID:           map[string]int{},
		entry:          -1,
		rng:            rand.New(rand.NewSource(42)),
		levelF:         1.0 / math.Log(float64(m)),
		deleted:        map[int]bool{},
	}
}

// Len implements Index. Tombstoned nodes are not counted.
func (h *HNSW) Len() int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return len(h.nodes) - h.nDeleted
}

// Has reports whether id is in the index; tombstoned IDs are not.
func (h *HNSW) Has(id string) bool {
	h.mu.RLock()
	defer h.mu.RUnlock()
	_, ok := h.byID[id]
	return ok
}

// Add implements Index. Re-adding an ID that was removed inserts a fresh
// node with newly selected neighbours (the tombstone stays behind until
// compaction).
func (h *HNSW) Add(id string, v embed.Vector) {
	u := v.Clone()
	u.Normalize()
	h.mu.Lock()
	defer h.mu.Unlock()
	h.addLocked(id, u)
}

// addLocked inserts a pre-normalized vector; caller holds h.mu.
func (h *HNSW) addLocked(id string, u embed.Vector) {
	if i, ok := h.byID[id]; ok {
		h.nodes[i].vec = u
		return
	}
	level := int(math.Floor(-math.Log(h.rng.Float64()+1e-12) * h.levelF))
	node := hnswNode{id: id, vec: u, links: make([][]int, level+1)}
	idx := len(h.nodes)
	h.nodes = append(h.nodes, node)
	h.byID[id] = idx

	if h.entry < 0 {
		h.entry = idx
		h.maxLvl = level
		return
	}
	cur := h.entry
	// Greedy descent through upper layers.
	for l := h.maxLvl; l > level; l-- {
		cur = h.greedyClosest(u, cur, l)
	}
	// Insert at each layer from min(level, maxLvl) down to 0.
	for l := min(level, h.maxLvl); l >= 0; l-- {
		cands := h.searchLayer(u, cur, h.efConstruction, l)
		neighbours := h.selectNeighbours(cands, h.m)
		h.nodes[idx].links[l] = neighbours
		for _, n := range neighbours {
			h.nodes[n].links[l] = append(h.nodes[n].links[l], idx)
			if len(h.nodes[n].links[l]) > h.m*2 {
				h.pruneLinks(n, l)
			}
		}
		if len(cands) > 0 {
			cur = cands[0].node
		}
	}
	if level > h.maxLvl {
		h.maxLvl = level
		h.entry = idx
	}
}

// Remove tombstones a node: it disappears from Search results and Len but
// keeps its links so the navigable graph stays connected. When tombstones
// outnumber live nodes the index rebuilds itself from the live set.
// Returns whether the ID was present.
func (h *HNSW) Remove(id string) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	i, ok := h.byID[id]
	if !ok {
		return false
	}
	delete(h.byID, id)
	h.deleted[i] = true
	h.nDeleted++
	if live := len(h.nodes) - h.nDeleted; h.nDeleted > live && len(h.nodes) > 16 {
		h.compactLocked()
	}
	return true
}

// compactLocked rebuilds the index from its live nodes, discarding
// tombstones. Insertion order (and the level RNG stream) continues from
// the current state, so the rebuilt graph is deterministic.
func (h *HNSW) compactLocked() {
	type entry struct {
		id  string
		vec embed.Vector
	}
	live := make([]entry, 0, len(h.nodes)-h.nDeleted)
	for i, n := range h.nodes {
		if !h.deleted[i] {
			live = append(live, entry{id: n.id, vec: n.vec})
		}
	}
	h.nodes = h.nodes[:0]
	h.byID = make(map[string]int, len(live))
	h.deleted = map[int]bool{}
	h.nDeleted = 0
	h.entry = -1
	h.maxLvl = 0
	for _, e := range live {
		h.addLocked(e.id, e.vec)
	}
}

type scored struct {
	node  int
	score float64
}

func (h *HNSW) greedyClosest(q embed.Vector, start, level int) int {
	cur := start
	curScore := q.Dot(h.nodes[cur].vec)
	for {
		improved := false
		for _, n := range h.nodes[cur].links[levelIdx(level, len(h.nodes[cur].links))] {
			if s := q.Dot(h.nodes[n].vec); s > curScore {
				cur, curScore = n, s
				improved = true
			}
		}
		if !improved {
			return cur
		}
	}
}

// levelIdx clamps a level to the node's available layers.
func levelIdx(level, nLayers int) int {
	if level >= nLayers {
		return nLayers - 1
	}
	return level
}

// searchLayer is the beam search of HNSW within one layer; results are
// sorted best-first.
func (h *HNSW) searchLayer(q embed.Vector, entry, ef, level int) []scored {
	visited := map[int]bool{entry: true}
	start := scored{node: entry, score: q.Dot(h.nodes[entry].vec)}
	candidates := []scored{start}
	results := []scored{start}
	for len(candidates) > 0 {
		// Pop best candidate.
		best := 0
		for i, c := range candidates {
			if c.score > candidates[best].score {
				best = i
			}
		}
		c := candidates[best]
		candidates = append(candidates[:best], candidates[best+1:]...)
		// Worst current result.
		worst := results[len(results)-1].score
		if c.score < worst && len(results) >= ef {
			break
		}
		node := h.nodes[c.node]
		if level >= len(node.links) {
			continue
		}
		for _, n := range node.links[level] {
			if visited[n] {
				continue
			}
			visited[n] = true
			s := q.Dot(h.nodes[n].vec)
			if len(results) < ef || s > results[len(results)-1].score {
				candidates = append(candidates, scored{node: n, score: s})
				results = append(results, scored{node: n, score: s})
				sort.Slice(results, func(i, j int) bool { return results[i].score > results[j].score })
				if len(results) > ef {
					results = results[:ef]
				}
			}
		}
	}
	return results
}

// selectNeighbours keeps the top-m candidates.
func (h *HNSW) selectNeighbours(cands []scored, m int) []int {
	out := make([]int, 0, m)
	for _, c := range cands {
		if len(out) >= m {
			break
		}
		out = append(out, c.node)
	}
	return out
}

// pruneLinks trims a node's neighbour list at a layer to the best m.
func (h *HNSW) pruneLinks(node, level int) {
	v := h.nodes[node].vec
	links := h.nodes[node].links[level]
	sort.Slice(links, func(i, j int) bool {
		return v.Dot(h.nodes[links[i]].vec) > v.Dot(h.nodes[links[j]].vec)
	})
	if len(links) > h.m {
		h.nodes[node].links[level] = append([]int(nil), links[:h.m]...)
	}
}

// Search implements Index. Non-positive k and empty (or fully tombstoned)
// indexes yield no results; tombstoned nodes are traversed but never
// returned.
func (h *HNSW) Search(q embed.Vector, k int) []Result {
	if k <= 0 {
		return nil
	}
	h.mu.RLock()
	defer h.mu.RUnlock()
	if h.entry < 0 || len(h.nodes) == h.nDeleted {
		return nil
	}
	nq := q.Clone()
	nq.Normalize()
	cur := h.entry
	for l := h.maxLvl; l > 0; l-- {
		cur = h.greedyClosest(nq, cur, l)
	}
	// Widen the beam by the tombstone count so deletions do not silently
	// shrink recall below k.
	ef := h.efSearch
	if ef < k {
		ef = k
	}
	ef += h.nDeleted
	cands := h.searchLayer(nq, cur, ef, 0)
	out := make([]Result, 0, k)
	for _, c := range cands {
		if len(out) >= k {
			break
		}
		if h.deleted[c.node] {
			continue
		}
		out = append(out, Result{ID: h.nodes[c.node].id, Score: c.score})
	}
	return out
}
