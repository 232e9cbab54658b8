package core

import (
	"fmt"

	"kglids/internal/discovery"
	"kglids/internal/embed"
	"kglids/internal/pipeline"
	"kglids/internal/profiler"
	"kglids/internal/schema"
	"kglids/internal/sparql"
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
	// so tie-breaking in exact search is identical after a reload.
	TableOrder []string
	// TableANN is the restored HNSW graph, or nil to rebuild it from
	// TableOrder.
	TableANN *vectorindex.HNSW
	// Scripts are the pipeline scripts added before the save; they are
	// re-abstracted on restore (cheap, deterministic) to repopulate
	// Abstractions. Their triples are already in Store, so re-linking them
	// is a deduplicated no-op.
	Scripts []pipeline.Script
	// Config is the bootstrap configuration recorded in the snapshot, so
	// incremental ingestion on the restored platform scores similarity with
	// the same thresholds as the original bootstrap. Nil falls back to
	// DefaultConfig.
	Config *Config
	// QueryCache holds the SPARQL result-cache entries saved with the
	// snapshot; they re-pin to the restored store's generation so the first
	// repeat of a hot discovery query is a cache hit, not a re-execution.
	QueryCache []sparql.CacheEntry
	// Generation is the store mutation generation at save time (0 in
	// snapshots predating the replication section). The restored store
	// adopts it so changelog replay continues from aligned counters.
	Generation uint64
	// ChangelogPos is the changelog head at save time; a follower booted
	// from this snapshot starts tailing the primary at this cursor.
	ChangelogPos uint64
}

// Restore reassembles a query-ready Platform from decoded snapshot state.
// It performs no profiling and no similarity computation; cost is linear in
// the number of columns, tables, and pipeline statements.
func Restore(st RestoredState) (*Platform, error) {
	if st.Store == nil {
		return nil, fmt.Errorf("core: restore requires a store")
	}
	p := &Platform{
		Store:           st.Store,
		Profiles:        st.Profiles,
		TableIndex:      vectorindex.NewExact(),
		TableANN:        st.TableANN,
		TableEmbeddings: st.TableEmbeddings,
		cfg:             DefaultConfig(),
	}
	if st.Config != nil {
		p.cfg = *st.Config
	}
	if p.TableEmbeddings == nil {
		p.TableEmbeddings = map[string]embed.Vector{}
	}
	p.labels = schema.NewLabelCache()
	p.profiler = profiler.New()
	for _, tid := range st.TableOrder {
		emb, ok := p.TableEmbeddings[tid]
		if !ok {
			return nil, fmt.Errorf("core: table order references unknown table %q", tid)
		}
		p.TableIndex.Add(tid, emb)
	}
	if p.TableANN == nil {
		p.TableANN = vectorindex.NewHNSW(defaultANNM, defaultANNEfConstruction, defaultANNEfSearch)
		for _, tid := range st.TableOrder {
			p.TableANN.Add(tid, p.TableEmbeddings[tid])
		}
	}
	p.Linker = schema.NewLinker(st.Profiles)
	p.abstractor = pipeline.NewAbstractor()
	p.graphs = p.newGraphBuilder()
	p.adj = newAdjacency(&p.mu, p.Store, p.Profiles, st.Edges)
	p.Discovery = discovery.New(p.Store, p.adj)
	if len(st.Scripts) > 0 {
		p.AddPipelines(st.Scripts)
	}
	// Adopt the primary's generation before importing the query cache
	// (entries pin to the current generation) and after AddPipelines
	// (whose re-adds dedupe to generation-neutral no-ops), so a follower
	// replaying the changelog observes the same counter as the primary.
	if st.Generation > 0 {
		p.Store.SetGeneration(st.Generation)
	}
	p.restoredLogPos = st.ChangelogPos
	// Seed the query cache last: AddPipelines mutates the store, and import
	// pins each entry to the store generation current at this point.
	if len(st.QueryCache) > 0 {
		p.Discovery.CacheImport(st.QueryCache)
	}
	return p, nil
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
