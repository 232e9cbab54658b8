package vectorindex

import (
	"fmt"
	"math"
	"math/rand"

	"kglids/internal/embed"
)

// Graph is the serializable state of an HNSW index: its construction
// parameters plus the full navigable small-world structure. Persisting the
// graph (rather than the raw vectors) means a restored index answers
// queries identically to the saved one — the links are reproduced verbatim
// instead of being rebuilt from a fresh random level assignment.
type Graph struct {
	M              int
	EfConstruction int
	EfSearch       int
	Entry          int // node index of the entry point, -1 when empty
	MaxLevel       int
	Nodes          []GraphNode
}

// GraphNode is one serialized HNSW node. Vec is the normalized vector as
// stored, shared with the index rather than copied: nothing writes a node
// vector after insertion (a re-add swaps in a new slice), so neither may a
// holder of a Graph. Links[level] lists neighbour node indexes at that
// layer.
type GraphNode struct {
	ID    string
	Vec   embed.Vector
	Links [][]int
}

// Export captures the index state for snapshotting. Tombstoned nodes are
// compacted away: live nodes keep their relative order, links are remapped
// (links into tombstones are dropped), and the entry point is re-anchored
// to a live node if the original was removed. The exported graph therefore
// always round-trips through ImportHNSW regardless of deletion history.
func (h *HNSW) Export() Graph {
	h.mu.RLock()
	defer h.mu.RUnlock()
	g := Graph{
		M:              h.m,
		EfConstruction: h.efConstruction,
		EfSearch:       h.efSearch,
		Entry:          -1,
		Nodes:          make([]GraphNode, 0, len(h.nodes)-h.nDeleted),
	}
	remap := make(map[int]int, len(h.nodes)-h.nDeleted)
	for i := range h.nodes {
		if !h.deleted[i] {
			remap[i] = len(remap)
		}
	}
	for i, n := range h.nodes {
		if h.deleted[i] {
			continue
		}
		links := make([][]int, len(n.links))
		for l, ns := range n.links {
			links[l] = make([]int, 0, len(ns))
			for _, nb := range ns {
				if to, live := remap[nb]; live {
					links[l] = append(links[l], to)
				}
			}
		}
		if lvl := len(n.links) - 1; lvl > g.MaxLevel {
			g.MaxLevel = lvl
		}
		g.Nodes = append(g.Nodes, GraphNode{ID: n.id, Vec: n.vec, Links: links})
	}
	if to, live := remap[h.entry]; live {
		g.Entry = to
	} else {
		// Entry was tombstoned: anchor to the highest-levelled live node
		// (first such node for determinism).
		for i, gn := range g.Nodes {
			if len(gn.Links)-1 == g.MaxLevel {
				g.Entry = i
				break
			}
		}
	}
	return g
}

// ImportHNSW reconstructs an index from an exported graph. The structure is
// restored verbatim, so searches return exactly what the exported index
// returned. The level-assignment RNG is reseeded deterministically; nodes
// added after an import may therefore land on different levels than they
// would have on the original index, which only affects approximation
// quality, never correctness. The index adopts the graph's vectors.
func ImportHNSW(g Graph) (*HNSW, error) {
	if g.M <= 1 || g.EfConstruction < 1 || g.EfSearch < 1 {
		return nil, fmt.Errorf("vectorindex: invalid HNSW parameters m=%d efc=%d efs=%d", g.M, g.EfConstruction, g.EfSearch)
	}
	n := len(g.Nodes)
	if g.Entry < -1 || g.Entry >= n || (g.Entry == -1 && n > 0) {
		return nil, fmt.Errorf("vectorindex: entry point %d out of range for %d nodes", g.Entry, n)
	}
	h := &HNSW{
		m:              g.M,
		efConstruction: g.EfConstruction,
		efSearch:       g.EfSearch,
		byID:           make(map[string]int, n),
		entry:          g.Entry,
		maxLvl:         g.MaxLevel,
		rng:            rand.New(rand.NewSource(42)),
		levelF:         1.0 / math.Log(float64(g.M)),
		deleted:        map[int]bool{},
	}
	h.nodes = make([]hnswNode, n)
	for i, gn := range g.Nodes {
		if _, dup := h.byID[gn.ID]; dup {
			return nil, fmt.Errorf("vectorindex: duplicate node ID %q", gn.ID)
		}
		// Add always creates at least one layer; a zero-layer node would
		// make levelIdx return -1 and panic during search.
		if len(gn.Links) == 0 {
			return nil, fmt.Errorf("vectorindex: node %d (%q) has no link layers", i, gn.ID)
		}
		links := make([][]int, len(gn.Links))
		for l, ns := range gn.Links {
			for _, nb := range ns {
				if nb < 0 || nb >= n {
					return nil, fmt.Errorf("vectorindex: node %d level %d links to out-of-range node %d", i, l, nb)
				}
			}
			links[l] = append([]int(nil), ns...)
		}
		h.nodes[i] = hnswNode{id: gn.ID, vec: gn.Vec, links: links}
		h.byID[gn.ID] = i
	}
	return h, nil
}
