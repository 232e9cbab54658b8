package core

import (
	"slices"
	"strings"
	"testing"

	"kglids/internal/vectorindex"
)

// TestRestoreRejectsTableSetMismatch: the table order and a persisted HNSW
// graph must hold exactly the tables of the embeddings, each once. A state
// that leaves a table out of either would restore a platform whose indexes
// never return a table it counts. Embeddings of differing lengths would
// panic the HNSW index, on a goroutine no caller can recover.
func TestRestoreRejectsTableSetMismatch(t *testing.T) {
	p, _ := bootstrapSmall(t)
	ids := p.TableIndex.IDs()
	annOver := func(ids []string) *vectorindex.HNSW {
		h := vectorindex.NewHNSW(defaultANNM, defaultANNEfConstruction, defaultANNEfSearch)
		for _, id := range ids {
			h.Add(id, p.TableEmbeddings[id])
		}
		return h
	}
	state := func(order []string, ann *vectorindex.HNSW) RestoredState {
		return RestoredState{
			Store:           p.Store,
			Profiles:        p.ProfilesView(),
			Edges:           p.EdgesView(),
			TableEmbeddings: p.TableEmbeddingsView(),
			TableOrder:      order,
			TableANN:        ann,
		}
	}
	shortened := func(st RestoredState, id string) RestoredState {
		st.TableEmbeddings[id] = st.TableEmbeddings[id][:2]
		return st
	}
	for _, c := range []struct {
		name string
		st   RestoredState
		want string
	}{
		{"order omits a table", state(ids[1:], nil), "lists"},
		{"order repeats a table", state(slices.Concat(ids[1:], ids[1:2]), nil), "twice"},
		{"order names an unknown table", state(slices.Concat(ids[1:], []string{"ghost/t.csv"}), nil), "unknown table"},
		{"HNSW omits a table", state(ids, annOver(ids[1:])), "HNSW"},
		{"HNSW holds an unknown table", state(ids, annOver(slices.Concat(ids[1:], []string{"ghost/t.csv"}))), "HNSW"},
		{"embeddings differ in length", shortened(state(ids, nil), ids[1]), "dimensional"},
	} {
		_, err := Restore(c.st)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want one mentioning %q", c.name, err, c.want)
		}
	}

	for _, ann := range []*vectorindex.HNSW{nil, annOver(ids)} {
		r, err := Restore(state(ids, ann))
		if err != nil {
			t.Fatal(err)
		}
		if n := r.TableCount(); r.TableIndex.Len() != n || r.TableANN.Len() != n || n != len(ids) {
			t.Errorf("restored %d tables, %d in the exact index and %d in the HNSW graph; want %d",
				n, r.TableIndex.Len(), r.TableANN.Len(), len(ids))
		}
		for _, id := range ids {
			if hit := r.TableIndex.Search(r.TableEmbeddings[id], 1); len(hit) == 0 || hit[0].ID != id {
				t.Fatalf("table %s does not find itself: %v", id, hit)
			}
		}
	}
}
