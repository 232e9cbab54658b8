package core

import (
	"fmt"

	"kglids/internal/embed"
	"kglids/internal/pipeline"
	"kglids/internal/profiler"
	"kglids/internal/schema"
	"kglids/internal/store"
	"kglids/internal/vectorindex"
)

// RestoredState carries the decoded sections of a platform snapshot, the
// minimal state from which a query-ready Platform is reassembled without
// re-profiling the lake. Everything else — table index, linker, similarity
// adjacency, discovery engine — is derived from these in O(columns +
// tables + edges) time.
type RestoredState struct {
	// Store is the rebuilt triple store (dictionary + quads).
	Store *store.Store
	// Profiles are the per-column profiles (Algorithm 2 output).
	Profiles []*profiler.ColumnProfile
	// Edges are the materialized similarity edges (Algorithm 3 output).
	Edges []schema.Edge
	// TableEmbeddings maps "dataset/table" to its unnormalized embedding.
	TableEmbeddings map[string]embed.Vector
	// TableOrder is the TableIndex insertion order at save time, preserved
	// so tie-breaking in exact search is identical after a reload. It must
	// list every key of TableEmbeddings, and nothing else, once.
	TableOrder []string
	// TableANN is the restored HNSW graph, holding exactly the tables of
	// TableEmbeddings, or nil to rebuild it from TableOrder.
	TableANN *vectorindex.HNSW
	// Scripts are the pipeline scripts added before the save; they are
	// re-abstracted on restore (cheap, deterministic) to repopulate
	// Abstractions. Their triples are already in Store, so re-linking them
	// is a deduplicated no-op.
	Scripts []pipeline.Script
	// Config is the bootstrap configuration recorded in the snapshot, so
	// incremental ingestion on the restored platform scores similarity with
	// the same thresholds as the original bootstrap. Nil means the
	// zero Config: every default.
	Config *Config
	// Generation is the store mutation generation at save time (0 in
	// snapshots predating the replication section). The restored store
	// adopts it so changelog replay continues from aligned counters.
	Generation uint64
	// ChangelogPos is the changelog head at save time; a follower booted
	// from this snapshot starts tailing the primary at this cursor.
	ChangelogPos uint64
}

// Restore reassembles a query-ready Platform from decoded snapshot state:
// one apply of it onto the empty platform, the apply every commit ends in.
// It performs no profiling and no similarity computation; cost is linear in
// the number of columns, tables, and pipeline statements.
func Restore(st RestoredState) (*Platform, error) {
	if st.Store == nil {
		return nil, fmt.Errorf("core: restore requires a store")
	}
	if err := checkTableSets(st); err != nil {
		return nil, err
	}
	var cfg Config
	if st.Config != nil {
		cfg = *st.Config
	}
	p := newPlatform(cfg, st.Store)
	// A persisted HNSW graph holds exactly the tables apply adds, and
	// re-adding an ID it holds only swaps in the same normalized vector, so
	// the graph survives apply unchanged.
	if st.TableANN != nil {
		p.TableANN = st.TableANN
	}
	p.apply(&PlatformDelta{Profiles: st.Profiles, Edges: st.Edges, TableEmbeddings: st.TableEmbeddings}, st.TableOrder)
	if len(st.Scripts) > 0 {
		p.AddPipelines(st.Scripts)
	}
	// Adopt the primary's generation after AddPipelines (whose re-adds
	// dedupe to generation-neutral no-ops), so a follower replaying the
	// changelog observes the same counter as the primary.
	if st.Generation > 0 {
		p.Store.SetGeneration(st.Generation)
	}
	p.restoredLogPos = st.ChangelogPos
	return p, nil
}

// checkTableSets rejects state whose table order, or persisted HNSW graph,
// does not hold exactly the tables of its embeddings, each once: the
// restored indexes would otherwise disagree with the platform's tables. It
// also rejects embeddings of differing lengths, which the HNSW index
// cannot compare.
func checkTableSets(st RestoredState) error {
	seen := make(map[string]bool, len(st.TableOrder))
	dim := -1
	for _, id := range st.TableOrder {
		emb, ok := st.TableEmbeddings[id]
		if !ok {
			return fmt.Errorf("core: table order references unknown table %q", id)
		}
		if seen[id] {
			return fmt.Errorf("core: table order lists table %q twice", id)
		}
		if dim >= 0 && len(emb) != dim {
			return fmt.Errorf("core: table %q has a %d-dimensional embedding, want %d", id, len(emb), dim)
		}
		seen[id] = true
		dim = len(emb)
	}
	if len(seen) != len(st.TableEmbeddings) {
		return fmt.Errorf("core: table order lists %d of %d tables", len(seen), len(st.TableEmbeddings))
	}
	if h := st.TableANN; h != nil {
		if h.Len() != len(seen) {
			return fmt.Errorf("core: HNSW graph holds %d tables, want %d", h.Len(), len(seen))
		}
		for _, id := range st.TableOrder {
			if !h.Has(id) {
				return fmt.Errorf("core: HNSW graph lacks table %q", id)
			}
		}
	}
	return nil
}

// Scripts returns the scripts of all abstractions added so far, in order —
// the pipeline section of a snapshot.
func (p *Platform) Scripts() []pipeline.Script {
	abss := p.Pipelines()
	out := make([]pipeline.Script, len(abss))
	for i, abs := range abss {
		out[i] = abs.Script
	}
	return out
}
