// Package core is the KG Governor of KGLiDS (paper Section 2.1): it
// bootstraps the platform by profiling datasets (Algorithm 2), building
// the data global schema (Algorithm 3), abstracting pipeline scripts
// (Algorithm 1), linking pipeline graphs into the dataset and library
// graphs, and maintaining the embedding store — producing the LiDS graph
// the Interfaces query.
package core

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"kglids/internal/dataframe"
	"kglids/internal/discovery"
	"kglids/internal/embed"
	"kglids/internal/pipeline"
	"kglids/internal/profiler"
	"kglids/internal/schema"
	"kglids/internal/sparql"
	"kglids/internal/store"
	"kglids/internal/vectorindex"
)

// Table pairs a dataset name with one of its tables.
type Table struct {
	Dataset string
	Frame   *dataframe.DataFrame
}

// Config controls bootstrapping.
type Config struct {
	Thresholds schema.Thresholds
	// SkipLabelSimilarity disables label edges (Figure 6 ablation).
	SkipLabelSimilarity bool
	// CoLR overrides the default embedding configuration (ablations).
	CoLR    *embed.CoLR
	Workers int
	// EdgeBlockSize bounds the exhaustive fallback of the blocked
	// similarity-edge pipeline: same-fine-grained-type column blocks up to
	// this size are compared pair-by-pair, larger ones go through the
	// candidate pre-filter. 0 means schema.DefaultEdgeBlockSize. Tuning
	// only — the edge set is identical for any value.
	EdgeBlockSize int
	// EdgeCandidates is the target candidates per column in the pre-
	// filtered path (average pre-filter cluster size). 0 means
	// schema.DefaultEdgeCandidates. Tuning only.
	EdgeCandidates int
	// ChunkRows is the connector chunk size for source-based ingestion
	// (BootstrapSource/AddSource). 0 means connector.DefaultChunkRows.
	ChunkRows int
	// ReservoirSize bounds the streaming profiler's per-column value
	// sample (0 = profiler.DefaultReservoirSize). Source-based ingestion
	// only; the in-memory path profiles whole columns.
	ReservoirSize int
	// ExactDistinct bounds the streaming profiler's exact distinct set
	// per column (0 = profiler.DefaultExactDistinct).
	ExactDistinct int
}

// DefaultConfig returns the default platform configuration.
func DefaultConfig() Config {
	return Config{Thresholds: schema.DefaultThresholds()}
}

// Platform is a bootstrapped KGLiDS instance: the LiDS graph, the
// embedding stores, the profiles, and the discovery engine.
type Platform struct {
	Store     *store.Store
	Profiles  []*profiler.ColumnProfile
	Linker    *schema.Linker
	Discovery *discovery.Engine
	// TableIndex is the Faiss-equivalent embedding store of tables (1800-d).
	TableIndex *vectorindex.Exact
	// TableANN is the approximate (HNSW) companion of TableIndex, used
	// when serving similarity queries at scale; it holds the same table
	// embeddings. Its graph structure is persisted verbatim by snapshots.
	TableANN *vectorindex.HNSW
	// TableEmbeddings maps "dataset/table" to its 1800-d embedding.
	TableEmbeddings map[string]embed.Vector
	// Abstractions holds the pipeline abstractions added so far. Access it
	// through Pipelines when the platform is being served concurrently.
	Abstractions []*pipeline.Abstraction

	// mu guards the platform-level metadata that live ingestion mutates —
	// Profiles, adj, TableEmbeddings, Abstractions — against concurrent
	// readers; the store, indexes, and linker carry their own locks.
	mu sync.RWMutex
	// adj is the similarity edges by column, their only resident copy.
	adj *adjacency
	// ingestMu serializes whole table mutations. apply, the only writer of
	// Profiles, adj and TableEmbeddings, runs under it, so its holder may
	// read them without mu, delta similarity always sees the final profile
	// set of the previous mutation, and snapshots taken via IngestLock
	// observe a job-consistent platform.
	ingestMu   sync.Mutex
	cfg        Config
	profiler   *profiler.Profiler
	abstractor *pipeline.Abstractor
	graphs     *pipeline.GraphBuilder
	// restoredLogPos is the changelog position persisted by the snapshot
	// this platform was restored from (0 for a fresh bootstrap). A primary
	// seeds its changelog floor from it; a follower starts tailing at it.
	restoredLogPos uint64
	// labels is the persistent label-embedding cache shared by every
	// schema build on this platform (bootstrap and all ingest deltas), so
	// each distinct column label is embedded exactly once — a sequence of
	// N small ingests costs O(new labels) embeddings per batch, not
	// O(all labels).
	labels *schema.LabelCache
	// Timings of the bootstrap phases.
	ProfilingTime   time.Duration
	SchemaBuildTime time.Duration
}

// Bootstrap profiles the lake and constructs the dataset graph.
func Bootstrap(cfg Config, tables []Table) *Platform {
	p := newPlatform(cfg)

	// Phase 1: Data Profiling (Algorithm 2).
	start := time.Now()
	var ptables []profiler.Table
	for _, t := range tables {
		ptables = append(ptables, profiler.Table{Dataset: t.Dataset, Frame: t.Frame})
	}
	profiles := p.profiler.ProfileAll(ptables)
	p.finishBootstrap(profiles, time.Since(start))
	return p
}

// newPlatform builds the empty platform shell shared by Bootstrap and
// BootstrapSource.
func newPlatform(cfg Config) *Platform {
	p := &Platform{
		Store:      store.New(),
		TableIndex: vectorindex.NewExact(),
		cfg:        cfg,
		labels:     schema.NewLabelCache(),
	}
	p.profiler = profiler.New()
	if cfg.CoLR != nil {
		p.profiler.CoLR = cfg.CoLR
	}
	if cfg.Workers > 0 {
		p.profiler.Workers = cfg.Workers
	}
	p.profiler.ReservoirSize = cfg.ReservoirSize
	p.profiler.ExactDistinct = cfg.ExactDistinct
	return p
}

// finishBootstrap runs phases 2-4 over already-computed profiles — the
// join point of the in-memory and streaming bootstrap paths.
func (p *Platform) finishBootstrap(profiles []*profiler.ColumnProfile, profilingTime time.Duration) {
	p.Profiles = profiles
	p.ProfilingTime = profilingTime

	// Phase 2: Data Global Schema (Algorithm 3).
	buildGraph := func() {
		start := time.Now()
		edges := p.newBuilder().BuildGraph(p.Store, p.Profiles)
		p.SchemaBuildTime = time.Since(start)
		p.adj = newAdjacency(&p.mu, p.Store, p.Profiles, edges)
	}
	// Phases 2 and 3 read the profiles and write disjoint state (the store
	// and adjacency; the table embeddings and indexes), so phase 3 runs
	// beside phase 2 unless the platform is held to one worker.
	if p.cfg.Workers == 1 {
		buildGraph()
		p.buildEmbeddingIndexes()
	} else {
		indexed := make(chan struct{})
		go func() {
			defer close(indexed)
			p.buildEmbeddingIndexes()
		}()
		buildGraph()
		<-indexed
	}

	// Phase 4: Graph Linker and interfaces.
	p.Linker = schema.NewLinker(p.Profiles)
	p.abstractor = pipeline.NewAbstractor()
	p.graphs = p.newGraphBuilder()
	p.Discovery = discovery.New(p.Store, p.adj)
}

// buildEmbeddingIndexes is bootstrap phase 3: the table embeddings (Eq. 1)
// and their exact and HNSW indexes. Tables are indexed in sorted ID order
// so bootstrap is deterministic — the HNSW graph and tie-breaking in exact
// search depend on insertion order.
func (p *Platform) buildEmbeddingIndexes() {
	p.TableEmbeddings = tableEmbeddings(p.Profiles)
	p.TableANN = vectorindex.NewHNSW(defaultANNM, defaultANNEfConstruction, defaultANNEfSearch)
	for _, tid := range sortedIDs(p.TableEmbeddings) {
		p.TableIndex.Add(tid, p.TableEmbeddings[tid])
		p.TableANN.Add(tid, p.TableEmbeddings[tid])
	}
}

// tableEmbeddings groups column embeddings by table and fine-grained type
// and folds each table's groups into its embedding (Eq. 1).
func tableEmbeddings(profiles []*profiler.ColumnProfile) map[string]embed.Vector {
	byTable := map[string]map[embed.Type][]embed.Vector{}
	for _, cp := range profiles {
		tid := cp.TableID()
		if byTable[tid] == nil {
			byTable[tid] = map[embed.Type][]embed.Vector{}
		}
		byTable[tid][cp.Type] = append(byTable[tid][cp.Type], cp.Embed)
	}
	embs := make(map[string]embed.Vector, len(byTable))
	for tid, byType := range byTable {
		embs[tid] = embed.TableEmbedding(byType)
	}
	return embs
}

// sortedIDs returns the table IDs of an embedding map in sorted order —
// the order tables enter the indexes in, on every path.
func sortedIDs(embs map[string]embed.Vector) []string {
	ids := make([]string, 0, len(embs))
	for id := range embs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// newGraphBuilder returns the pipeline graph builder over the platform's
// linker, at the configured worker count.
func (p *Platform) newGraphBuilder() *pipeline.GraphBuilder {
	g := pipeline.NewGraphBuilder(p.Linker)
	if p.cfg.Workers > 0 {
		g.Workers = p.cfg.Workers
	}
	return g
}

// HNSW parameters for the table ANN index (m=16, ef=64 are the customary
// defaults; see NewHNSW).
const (
	defaultANNM              = 16
	defaultANNEfConstruction = 64
	defaultANNEfSearch       = 64
)

// newBuilder configures a schema builder exactly as Bootstrap does, so
// incremental mutations score similarity identically to a full build. All
// builders of one platform share its persistent label-embedding cache.
func (p *Platform) newBuilder() *schema.Builder {
	b := schema.NewBuilder()
	b.Thresholds = p.cfg.Thresholds
	b.SkipLabels = p.cfg.SkipLabelSimilarity
	b.BlockSize = p.cfg.EdgeBlockSize
	b.Candidates = p.cfg.EdgeCandidates
	b.Labels = p.labels
	if p.cfg.Workers > 0 {
		b.Workers = p.cfg.Workers
	}
	return b
}

// SetEdgeTuning adjusts the blocked similarity-edge pipeline knobs on a
// live platform (0 keeps a knob's current value). Tuning only: the knobs
// change where time and memory go, never the edge set, so it is safe to
// apply to a restored snapshot before enabling ingestion.
func (p *Platform) SetEdgeTuning(blockSize, candidates int) {
	p.ingestMu.Lock()
	defer p.ingestMu.Unlock()
	if blockSize > 0 {
		p.cfg.EdgeBlockSize = blockSize
	}
	if candidates > 0 {
		p.cfg.EdgeCandidates = candidates
	}
}

// AddTables profiles new tables and splices them into the live platform:
// delta profiling (Algorithm 2 over just the new tables), delta similarity
// edges (new columns against all columns), per-table named-graph insertion
// into the store, and embedding-index upserts — no re-bootstrap. A table
// whose ID already exists is an update: the old version is replaced.
// After any sequence of AddTables/RemoveTable, discovery results are
// equivalent to a fresh Bootstrap over the final table set.
//
// Safe to call while the platform serves queries; profiling runs before
// the mutation lock is taken, and concurrent mutations are serialized.
// Returns the IDs ("dataset/table") of the tables ingested.
func (p *Platform) AddTables(tables []Table) ([]string, error) {
	if len(tables) == 0 {
		return nil, nil
	}
	ptables := make([]profiler.Table, 0, len(tables))
	ids := make([]string, 0, len(tables))
	seen := map[string]bool{}
	for _, t := range tables {
		if t.Frame == nil {
			return nil, fmt.Errorf("core: nil frame for dataset %q", t.Dataset)
		}
		id, err := TableID(t.Dataset, t.Frame.Name)
		if err != nil {
			return nil, err
		}
		if seen[id] {
			return nil, fmt.Errorf("core: duplicate table %q in batch", id)
		}
		seen[id] = true
		ids = append(ids, id)
		ptables = append(ptables, profiler.Table{Dataset: t.Dataset, Frame: t.Frame})
	}
	// Delta profiling: cost scales with the new tables only.
	p.addProfiles(ids, p.profiler.ProfileAll(ptables))
	return ids, nil
}

// addProfiles makes the already-profiled tables ids part of the live
// platform, replacing resident versions — the mutation both AddTables
// (in-memory profiling) and AddSourceTable (streaming profiling) end in,
// which is why they produce identical platforms for identical data.
//
// Build comes first and changes nothing: delta similarity edges of the new
// columns against the resident profiles minus the versions being replaced,
// the table embeddings, and the two quad batches. It reads Profiles and
// TableEmbeddings without p.mu, which ingestMu makes safe (their only
// writer, apply, runs under it) and which keeps it off every lock a reader
// takes. Only then are the old versions retracted and the new ones
// presented, so an updated table is absent for two store batches, not for
// a profile and an edge comparison.
func (p *Platform) addProfiles(ids []string, added []*profiler.ColumnProfile) {
	p.ingestMu.Lock()
	defer p.ingestMu.Unlock()

	existing := p.Profiles
	var replaced []string
	for _, id := range ids {
		if _, ok := p.TableEmbeddings[id]; ok {
			replaced = append(replaced, id)
		}
	}
	if len(replaced) > 0 {
		existing = make([]*profiler.ColumnProfile, 0, len(p.Profiles))
		for _, cp := range p.Profiles {
			if !slices.ContainsFunc(replaced, func(id string) bool { return inTable(cp, id) }) {
				existing = append(existing, cp)
			}
		}
	}
	d := &PlatformDelta{
		Profiles:        added,
		Edges:           p.newBuilder().SimilarityEdgesDelta(existing, added),
		TableEmbeddings: tableEmbeddings(added),
	}
	metaQuads, edgeQuads := schema.MetadataQuads(d.Profiles), schema.EdgeQuads(d.Edges)

	for _, id := range replaced {
		p.removeTableLocked(id)
	}
	p.Store.AddBatch(metaQuads)
	p.Store.AddBatch(edgeQuads)
	p.apply(d)
	p.emitDelta(d)
}

// RemoveTable deletes a table from the live platform: its metadata named
// graph leaves the store (dataset triples shared with sibling tables
// survive through their graphs), similarity edges touching its columns are
// retracted with their RDF-star annotations, and its embeddings leave the
// exact and ANN indexes. Discovery stops returning the table immediately.
func (p *Platform) RemoveTable(id string) error {
	p.ingestMu.Lock()
	defer p.ingestMu.Unlock()
	if !p.HasTable(id) {
		return fmt.Errorf("core: unknown table %q", id)
	}
	p.removeTableLocked(id)
	return nil
}

// removeTableLocked performs the removal; caller holds ingestMu and has
// verified the table exists. The edges whose quads (both directions +
// annotations, in the default graph) the store must retract are read from
// the table's adjacency entries before apply drops them.
func (p *Platform) removeTableLocked(id string) {
	table, _ := p.Store.EncodeTerm(schema.TableIRI(id))
	retracted := p.adj.tableEdges(table)
	d := &PlatformDelta{RemovedTable: id}
	p.apply(d)
	p.Store.RemoveBatch(schema.EdgeQuads(retracted))
	p.Store.RemoveGraph(schema.TableGraph(id))
	p.emitDelta(d)
}

// apply makes one platform delta visible. After bootstrap or restore it is
// the only writer of Profiles, the similarity adjacency, TableEmbeddings,
// the embedding indexes and the linker: a primary's mutations and a
// follower's ApplyPlatformDelta both end here, so a replayed platform
// equals its primary by construction. Caller holds ingestMu. The store is
// only read, to resolve the delta's terms to the IDs the adjacency is
// keyed by, so an addition's quads must already be in it.
//
// The p.mu write sections hold no sort, no store call and no work sized by
// the resident edges: an addition appends the delta's entries to the
// adjacency, a removal drops the table's entries from it.
func (p *Platform) apply(d *PlatformDelta) {
	if id := d.RemovedTable; id != "" {
		// The dictionary keeps a term after its quads go, so this resolves
		// on a follower that has already applied the store half.
		table, _ := p.Store.EncodeTerm(schema.TableIRI(id))
		p.mu.Lock()
		p.Profiles = slices.DeleteFunc(p.Profiles, func(cp *profiler.ColumnProfile) bool { return inTable(cp, id) })
		p.adj.removeTable(table)
		delete(p.TableEmbeddings, id)
		p.mu.Unlock()

		p.TableIndex.Remove(id)
		p.TableANN.Remove(id)
		p.Linker.RemoveTable(id)
		return
	}

	// Sorted insertion order, as at bootstrap: the exact index's
	// tie-breaking and the HNSW graph depend on it.
	for _, tid := range sortedIDs(d.TableEmbeddings) {
		p.TableIndex.Add(tid, d.TableEmbeddings[tid])
		p.TableANN.Add(tid, d.TableEmbeddings[tid])
	}
	p.Linker.AddProfiles(d.Profiles)
	add := p.adj.encode(p.Store, d.Profiles, d.Edges)

	p.mu.Lock()
	p.Profiles = append(p.Profiles, d.Profiles...)
	p.adj.add(add)
	for tid, emb := range d.TableEmbeddings {
		p.TableEmbeddings[tid] = emb
	}
	p.mu.Unlock()
}

// inTable reports whether cp is a column of table id ("dataset/table")
// without building cp's own ID string, so scanning every resident profile
// allocates nothing.
func inTable(cp *profiler.ColumnProfile, id string) bool {
	return len(id) == len(cp.Dataset)+1+len(cp.Table) && id[len(cp.Dataset)] == '/' &&
		strings.HasPrefix(id, cp.Dataset) && strings.HasSuffix(id, cp.Table)
}

// TableID returns the ID "dataset/name" of a table. Both parts must be
// non-empty and free of '/', or the IDs of its columns would be ambiguous.
func TableID(dataset, name string) (string, error) {
	if dataset == "" || name == "" || strings.Contains(dataset+name, "/") {
		return "", fmt.Errorf("core: a table needs a dataset and a name, neither containing '/', got %q/%q", dataset, name)
	}
	return dataset + "/" + name, nil
}

// HasTable reports whether a table ID is currently part of the platform.
func (p *Platform) HasTable(id string) bool {
	p.mu.RLock()
	defer p.mu.RUnlock()
	_, ok := p.TableEmbeddings[id]
	return ok
}

// TableCount returns the number of tables currently in the platform —
// an O(1) read for metric scrapes, unlike Stats which walks the store.
func (p *Platform) TableCount() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return len(p.TableEmbeddings)
}

// TableEmbedding returns the embedding of a table, safe against concurrent
// ingestion.
func (p *Platform) TableEmbedding(id string) (embed.Vector, bool) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	emb, ok := p.TableEmbeddings[id]
	return emb, ok
}

// TableIDs returns the IDs of all current tables in sorted order.
func (p *Platform) TableIDs() []string {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return sortedIDs(p.TableEmbeddings)
}

// ProfilesView returns a snapshot of the profile slice, safe to read while
// ingestion mutates the platform. The profiles themselves are immutable.
func (p *Platform) ProfilesView() []*profiler.ColumnProfile {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return append([]*profiler.ColumnProfile(nil), p.Profiles...)
}

// EdgesView returns the similarity edges in schema.SortEdges order.
func (p *Platform) EdgesView() []schema.Edge {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.adj.edges()
}

// TableEmbeddingsView returns a copy of the table-embedding map.
func (p *Platform) TableEmbeddingsView() map[string]embed.Vector {
	p.mu.RLock()
	defer p.mu.RUnlock()
	out := make(map[string]embed.Vector, len(p.TableEmbeddings))
	for id, emb := range p.TableEmbeddings {
		out[id] = emb
	}
	return out
}

// Config returns the platform's bootstrap configuration (the thresholds
// incremental ingestion reuses).
func (p *Platform) Config() Config { return p.cfg }

// IngestLock blocks live mutations until IngestUnlock, giving callers
// (snapshot writes) a job-consistent view of the platform.
func (p *Platform) IngestLock() { p.ingestMu.Lock() }

// IngestUnlock releases IngestLock.
func (p *Platform) IngestUnlock() { p.ingestMu.Unlock() }

// AddPipelines abstracts scripts (Algorithm 1) and links them into the
// LiDS graph; it returns the abstractions. Safe to call while the platform
// serves queries.
func (p *Platform) AddPipelines(scripts []pipeline.Script) []*pipeline.Abstraction {
	abss := p.graphs.AbstractAll(p.Store, p.abstractor, scripts)
	p.mu.Lock()
	p.Abstractions = append(p.Abstractions, abss...)
	p.mu.Unlock()
	return abss
}

// Pipelines returns a snapshot of the abstractions added so far, safe to
// read while AddPipelines runs concurrently.
func (p *Platform) Pipelines() []*pipeline.Abstraction {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return append([]*pipeline.Abstraction(nil), p.Abstractions...)
}

// Query runs an ad-hoc SPARQL query against the LiDS graph on the compiled
// ID-space engine; repeated queries are served from the generation-keyed
// result cache, which any AddTables/RemoveTable mutation invalidates.
// Treat results as read-only.
func (p *Platform) Query(q string) (*sparql.Result, error) { return p.Discovery.SPARQL(q) }

// QueryContext is Query under a context: cancellation or deadline expiry
// stops the evaluation mid-iteration.
func (p *Platform) QueryContext(ctx context.Context, q string) (*sparql.Result, error) {
	return p.Discovery.SPARQLContext(ctx, q)
}

// TableIRI resolves a "dataset/table" ID to its graph IRI.
func (p *Platform) TableIRI(id string) (string, error) {
	if !p.HasTable(id) {
		return "", fmt.Errorf("core: unknown table %q", id)
	}
	return schema.TableIRI(id).Value, nil
}

// SimilarTablesByEmbedding finds the k most similar tables to a frame by
// table-embedding cosine (the get_path_to_table entry point: "computing an
// embedding of the given DataFrame, finding the most similar table").
func (p *Platform) SimilarTablesByEmbedding(df *dataframe.DataFrame, k int) []vectorindex.Result {
	byType := map[embed.Type][]embed.Vector{}
	for i := 0; i < df.NumCols(); i++ {
		cp := p.profiler.ProfileColumn("query", df.Name, df.ColumnAt(i))
		byType[cp.Type] = append(byType[cp.Type], cp.Embed)
	}
	return p.TableIndex.Search(embed.TableEmbedding(byType), k)
}

// Profiler exposes the platform's profiler (shared CoLR configuration).
func (p *Platform) Profiler() *profiler.Profiler { return p.profiler }

// Stats summarizes the LiDS graph (Statistics Manager).
type Stats struct {
	Triples         int
	Nodes           int
	Predicates      int
	NamedGraphs     int
	Columns         int
	Tables          int
	Datasets        int
	SimilarityEdges int
}

// Stats returns current graph statistics, safe against concurrent
// ingestion.
func (p *Platform) Stats() Stats {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return Stats{
		Triples:         p.Store.Len(),
		Nodes:           p.Store.NodeCount(),
		Predicates:      p.Store.PredicateCount(),
		NamedGraphs:     len(p.Store.Graphs()),
		Columns:         len(p.Profiles),
		Tables:          len(p.TableEmbeddings),
		Datasets:        countDatasets(p.Profiles),
		SimilarityEdges: p.adj.count,
	}
}

func countDatasets(profiles []*profiler.ColumnProfile) int {
	seen := map[string]bool{}
	for _, cp := range profiles {
		seen[cp.Dataset] = true
	}
	return len(seen)
}
