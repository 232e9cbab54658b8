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
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"

	"kglids/internal/connector"
	"kglids/internal/dataframe"
	"kglids/internal/discovery"
	"kglids/internal/embed"
	"kglids/internal/pipeline"
	"kglids/internal/profiler"
	"kglids/internal/rdf"
	"kglids/internal/schema"
	"kglids/internal/sparql"
	"kglids/internal/store"
	"kglids/internal/vectorindex"
)

// Table pairs a dataset name with one of its tables.
type Table = profiler.Table

// Options are the public bootstrap knobs, declared once: kglids.Options is
// this type. A zero field means its default.
type Options struct {
	// Alpha, Beta and Theta are Algorithm 3's label-similarity, boolean
	// true-ratio and content-similarity thresholds
	// (0 = schema.DefaultThresholds()).
	Alpha, Beta, Theta float64
	// Workers bounds the parallelism of profiling, similarity edges,
	// pipeline graphs and AddSource (0 = runtime.NumCPU()).
	Workers int
	// ChunkRows is the row-chunk size of the streaming connectors used by
	// BootstrapSource/AddSource (0 = connector.DefaultChunkRows). Tuning
	// only: profiles are unaffected.
	ChunkRows int
	// ReservoirSize bounds the profiler's per-column value sample
	// (0 = profiler.DefaultReservoirSize). It bounds streamed tables only
	// (BootstrapSource/AddSource): in-memory tables are always profiled
	// exactly.
	ReservoirSize int
	// ExactDistinct bounds the profiler's exact distinct set per column
	// (0 = profiler.DefaultExactDistinct), for streamed tables only, as
	// ReservoirSize does.
	ExactDistinct int
}

// Config controls bootstrapping: the public Options plus the Figure 6
// ablation switches.
type Config struct {
	Options
	// SkipLabelSimilarity disables label edges (Figure 6 ablation).
	SkipLabelSimilarity bool
	// CoLR overrides the default embedding configuration (ablations).
	CoLR *embed.CoLR
}

// edgeBlockSize and edgeCandidates override the schema builder's blocking
// (0 keeps schema.DefaultEdgeBlockSize/DefaultEdgeCandidates). The edge
// set is identical for any value; core's tests set them to force the
// pre-filtered path on lakes too small to reach it.
var edgeBlockSize, edgeCandidates int

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
	// ingestMu serializes whole mutations, of tables and of pipelines.
	// commit, the only writer of Profiles, adj and TableEmbeddings, runs
	// under it, so its holder may read them without mu, delta similarity
	// always sees the final profile set of the previous mutation, snapshots
	// taken via IngestLock observe a job-consistent platform, and the
	// generation a changelog record is stamped with is exactly the one its
	// mutation left.
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
}

// Bootstrap profiles in-memory tables (Algorithm 2) and commits the
// profiles onto the empty platform: bootstrap over the frames as a source,
// in the given order.
func Bootstrap(cfg Config, tables []Table) *Platform {
	// Resident frames cannot fail to open or stream, and nothing cancels
	// the context.
	p, _, _ := bootstrap(context.Background(), cfg, profiler.Frames(tables))
	return p
}

// bootstrap profiles every table of src through the profiler's worker pool
// and commits the profiles onto the empty platform. That first commit
// builds the data global schema (Algorithm 3), the embedding indexes and
// the linker exactly as every later AddTables does. Tables that fail to
// open or stream are skipped and reported by ID; enumeration failure or
// context cancellation fails the call.
func bootstrap(ctx context.Context, cfg Config, src connector.Source) (*Platform, map[string]error, error) {
	p := newPlatform(cfg, store.New())
	profiles, tableErrs, err := p.profiler.ProfileSource(ctx, src)
	if err != nil {
		return nil, nil, err
	}
	p.addProfiles(nil, profiles)
	return p, tableErrs, nil
}

// newPlatform returns a complete, empty, query-ready platform over st, the
// one state every platform starts from: Bootstrap and BootstrapSource
// commit their profiles onto it, and Restore applies its decoded state to
// it. It is the one place that resolves zero thresholds and a zero worker
// count to their defaults, so Config reports the values the platform runs
// at; the streaming bounds pass through, as the connector and the profiler
// read zero as their own defaults.
func newPlatform(cfg Config, st *store.Store) *Platform {
	th := schema.DefaultThresholds()
	if cfg.Alpha <= 0 {
		cfg.Alpha = th.Alpha
	}
	if cfg.Beta <= 0 {
		cfg.Beta = th.Beta
	}
	if cfg.Theta <= 0 {
		cfg.Theta = th.Theta
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.NumCPU()
	}
	p := &Platform{
		Store:           st,
		Linker:          schema.NewLinker(nil),
		TableIndex:      vectorindex.NewExact(),
		TableANN:        vectorindex.NewHNSW(defaultANNM, defaultANNEfConstruction, defaultANNEfSearch),
		TableEmbeddings: map[string]embed.Vector{},
		cfg:             cfg,
		profiler:        profiler.New(),
		abstractor:      pipeline.NewAbstractor(),
		labels:          schema.NewLabelCache(),
	}
	if cfg.CoLR != nil {
		p.profiler.CoLR = cfg.CoLR
	}
	p.profiler.Workers = cfg.Workers
	p.profiler.ReservoirSize = cfg.ReservoirSize
	p.profiler.ExactDistinct = cfg.ExactDistinct
	p.graphs = pipeline.NewGraphBuilder(p.Linker)
	p.graphs.Workers = cfg.Workers
	p.adj = newAdjacency(&p.mu)
	p.Discovery = discovery.New(p.Store, p.adj)
	return p
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

// HNSW parameters for the table ANN index (m=16, ef=64 are the customary
// defaults; see NewHNSW).
const (
	defaultANNM              = 16
	defaultANNEfConstruction = 64
	defaultANNEfSearch       = 64
)

// newBuilder configures the schema builder of every commit, bootstrap's
// included. All builders of one platform share its persistent
// label-embedding cache.
func (p *Platform) newBuilder() *schema.Builder {
	b := schema.NewBuilder()
	b.Thresholds = schema.Thresholds{Alpha: p.cfg.Alpha, Beta: p.cfg.Beta, Theta: p.cfg.Theta}
	b.SkipLabels = p.cfg.SkipLabelSimilarity
	b.BlockSize, b.Candidates = edgeBlockSize, edgeCandidates
	b.Labels = p.labels
	b.Workers = p.cfg.Workers
	return b
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
	}
	// Delta profiling: cost scales with the new tables only. Resident
	// frames cannot fail to open or stream.
	profiles, _, _ := p.profiler.ProfileSource(context.Background(), profiler.Frames(tables))
	p.addProfiles(ids, profiles)
	return ids, nil
}

// addProfiles makes the already-profiled tables ids part of the live
// platform, replacing resident versions — the mutation Bootstrap,
// BootstrapSource, AddTables and AddSourceTable all end in, after the one
// profiler, which is why they produce identical platforms for identical
// data. Bootstrap passes no ids: nothing is resident to replace.
//
// It builds the delta and commits it: similarity edges of the new columns
// against the resident profiles minus the versions being replaced, and the
// table embeddings. It reads Profiles and TableEmbeddings without p.mu,
// which ingestMu makes safe (their only writer, commit, runs under it) and
// which keeps the edge comparison off every lock a reader takes.
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
	p.commit(&PlatformDelta{
		Removed:         replaced,
		Profiles:        added,
		Edges:           p.newBuilder().SimilarityEdgesDelta(existing, added),
		TableEmbeddings: tableEmbeddings(added),
	})
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
	p.commit(&PlatformDelta{Removed: []string{id}})
	return nil
}

// commit makes one table mutation take effect: a primary's mutations,
// bootstrap's first one included, and a follower's ApplyPlatformDelta all
// are a call of it, so a replayed platform equals its primary record by
// record. Caller holds ingestMu.
//
// The quad batches are built first, so an updated table is absent for two
// store batches and no more. The removals go next, each platform half first
// (discovery stops returning the table), then the additions: apply, with
// their quads. On a primary the delta then becomes one changelog record.
func (p *Platform) commit(d *PlatformDelta) {
	before := p.Store.Generation()
	metaQuads, edgeQuads := schema.MetadataQuads(d.Profiles), schema.EdgeQuads(d.Edges)
	for _, id := range d.Removed {
		p.removeTableLocked(id)
	}
	// Sorted insertion order: the exact index's tie-breaking and the HNSW
	// graph depend on it.
	p.apply(d, sortedIDs(d.TableEmbeddings), metaQuads, edgeQuads)
	p.record(store.ChangeTables, d, before)
}

// removeTableLocked takes table id out of the platform; caller holds
// ingestMu. The edges whose quads (both directions + annotations, in the
// default graph) the store must retract are read from the table's
// adjacency entries before they are dropped.
//
// The p.mu write section holds no store call and no work sized by the
// resident edges: it drops the table's entries from the adjacency.
func (p *Platform) removeTableLocked(id string) {
	table, _ := p.Store.EncodeTerm(schema.TableIRI(id))
	retracted := p.adj.tableEdges(table)

	p.mu.Lock()
	p.Profiles = slices.DeleteFunc(p.Profiles, func(cp *profiler.ColumnProfile) bool { return inTable(cp, id) })
	p.adj.removeTable(table)
	delete(p.TableEmbeddings, id)
	p.mu.Unlock()

	p.TableIndex.Remove(id)
	p.TableANN.Remove(id)
	p.Linker.RemoveTable(id)
	p.Store.RemoveBatch(schema.EdgeQuads(retracted))
	p.Store.RemoveGraph(schema.TableGraph(id))
}

// apply makes the additions of a delta part of the platform. It is the only
// writer of the additions to Profiles, the similarity adjacency,
// TableEmbeddings, the embedding indexes and the linker: commit calls it
// with the delta's quad batches, Restore with the decoded state and none.
// Caller holds ingestMu, or owns a platform not yet published.
//
// The batches go into the store first, since the adjacency is keyed by the
// IDs the store resolves the delta's terms to. The indexes are filled in
// order on a goroutine beside that work, as they share no state with it.
// The p.mu write section holds no sort, no store call and no work sized by
// the resident edges: it appends the delta's entries.
func (p *Platform) apply(d *PlatformDelta, order []string, batches ...[]rdf.Quad) {
	indexed := make(chan struct{})
	go func() {
		defer close(indexed)
		for _, tid := range order {
			p.TableIndex.Add(tid, d.TableEmbeddings[tid])
			p.TableANN.Add(tid, d.TableEmbeddings[tid])
		}
	}()
	for _, batch := range batches {
		p.Store.AddBatch(batch)
	}
	p.Linker.AddProfiles(d.Profiles)
	add := p.adj.encode(p.Store, d.Profiles, d.Edges)
	<-indexed

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

// Config returns the platform's bootstrap configuration with every default
// resolved (the thresholds incremental ingestion reuses).
func (p *Platform) Config() Config { return p.cfg }

// IngestLock blocks live mutations until IngestUnlock, giving callers
// (snapshot writes) a job-consistent view of the platform.
func (p *Platform) IngestLock() { p.ingestMu.Lock() }

// IngestUnlock releases IngestLock.
func (p *Platform) IngestUnlock() { p.ingestMu.Unlock() }

// AddPipelines abstracts scripts (Algorithm 1) and links them into the
// LiDS graph; it returns the abstractions. Safe to call while the platform
// serves queries. It is a mutation like a table's: it runs under ingestMu
// and, on a primary, becomes one changelog record holding the scripts,
// which a follower passes to AddPipelines in turn.
func (p *Platform) AddPipelines(scripts []pipeline.Script) []*pipeline.Abstraction {
	if len(scripts) == 0 {
		return nil
	}
	p.ingestMu.Lock()
	defer p.ingestMu.Unlock()
	before := p.Store.Generation()
	abss := p.graphs.AbstractAll(p.Store, p.abstractor, scripts)
	p.mu.Lock()
	p.Abstractions = append(p.Abstractions, abss...)
	p.mu.Unlock()
	p.record(store.ChangePipelines, slices.Clone(scripts), before)
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
	return p.TableIndex.Search(p.profiler.TableEmbedding(df), k)
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
		NamedGraphs:     p.Store.GraphCount(),
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
