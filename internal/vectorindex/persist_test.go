package vectorindex

import (
	"fmt"
	"reflect"
	"testing"

	"kglids/internal/embed"
)

func randVecs(n, dim int) []embed.Vector {
	out := make([]embed.Vector, n)
	for i := range out {
		v := embed.NewVector(dim)
		for d := range v {
			v[d] = float64((i*31+d*7)%17) - 8
		}
		out[i] = v
	}
	return out
}

func TestExportImportRoundTrip(t *testing.T) {
	h := NewHNSW(8, 32, 32)
	vecs := randVecs(60, 16)
	for i, v := range vecs {
		h.Add(fmt.Sprintf("v%03d", i), v)
	}
	imported, err := ImportHNSW(h.Export())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		q := vecs[i*5]
		want := h.Search(q, 5)
		got := imported.Search(q, 5)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("query %d: imported search differs\n got %v\nwant %v", i, got, want)
		}
	}
	// The imported index stays usable for further inserts.
	imported.Add("extra", randVecs(1, 16)[0])
	if imported.Len() != 61 {
		t.Fatalf("len after insert = %d", imported.Len())
	}
}

// TestExportSharesUnchangingVectors: Export shares the node vectors rather
// than copying them, so what it returned must not change under later
// writes to the index: a re-add under the same ID, a removal, and the
// compaction that enough removals trigger.
func TestExportSharesUnchangingVectors(t *testing.T) {
	h := NewHNSW(4, 16, 16)
	vecs := randVecs(24, 8)
	for i, v := range vecs {
		h.Add(fmt.Sprintf("v%02d", i), v)
	}
	g := h.Export()
	want := make([]embed.Vector, len(g.Nodes))
	for i, n := range g.Nodes {
		want[i] = n.Vec.Clone()
	}
	h.Add("v00", vecs[1])
	for i := 2; i < 20; i++ {
		h.Remove(fmt.Sprintf("v%02d", i))
	}
	if n := len(h.nodes); n >= len(vecs) {
		t.Fatalf("index still holds %d nodes: no compaction ran", n)
	}
	for i, n := range g.Nodes {
		if !reflect.DeepEqual(n.Vec, want[i]) {
			t.Fatalf("exported vector of %s changed under later writes", n.ID)
		}
	}
}

func TestImportRejectsInvalidGraphs(t *testing.T) {
	vec := randVecs(1, 4)[0]
	cases := []struct {
		name string
		g    Graph
	}{
		{"bad params", Graph{M: 1, EfConstruction: 0, EfSearch: 0}},
		{"entry out of range", Graph{M: 8, EfConstruction: 32, EfSearch: 32, Entry: 5,
			Nodes: []GraphNode{{ID: "a", Vec: vec, Links: [][]int{{}}}}}},
		{"entry -1 with nodes", Graph{M: 8, EfConstruction: 32, EfSearch: 32, Entry: -1,
			Nodes: []GraphNode{{ID: "a", Vec: vec, Links: [][]int{{}}}}}},
		{"duplicate IDs", Graph{M: 8, EfConstruction: 32, EfSearch: 32, Entry: 0,
			Nodes: []GraphNode{
				{ID: "a", Vec: vec, Links: [][]int{{}}},
				{ID: "a", Vec: vec, Links: [][]int{{}}},
			}}},
		{"link out of range", Graph{M: 8, EfConstruction: 32, EfSearch: 32, Entry: 0,
			Nodes: []GraphNode{{ID: "a", Vec: vec, Links: [][]int{{7}}}}}},
		{"zero link layers", Graph{M: 8, EfConstruction: 32, EfSearch: 32, Entry: 0,
			Nodes: []GraphNode{{ID: "a", Vec: vec, Links: [][]int{}}}}},
	}
	for _, c := range cases {
		if _, err := ImportHNSW(c.g); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}
