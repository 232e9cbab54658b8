// Package kglids is the public interface of the KGLiDS reproduction — the
// "KGLiDS Interfaces" library of the paper (Section 5). It exposes the
// platform's predefined operations (keyword search, unionable columns,
// join-path discovery, library and pipeline discovery), the on-demand
// automation APIs (cleaning, transformation, model and hyperparameter
// recommendation), and ad-hoc SPARQL over the LiDS graph.
//
// A typical session bootstraps the platform over a data lake, registers
// pipeline scripts, trains the automation models, and then issues
// discovery and recommendation calls:
//
//	plat := kglids.Bootstrap(kglids.Options{}, tables)
//	plat.AddPipelines(scripts)
//	hits := plat.SearchKeywords([][]string{{"heart", "disease"}, {"patients"}})
//	cols := plat.FindUnionableColumns(hits[0].Table, hits[1].Table)
package kglids

import (
	"context"
	"io"
	"sync"
	"time"

	"kglids/internal/automl"
	"kglids/internal/cleaning"
	"kglids/internal/core"
	"kglids/internal/dataframe"
	"kglids/internal/discovery"
	"kglids/internal/embed"
	"kglids/internal/pipeline"
	"kglids/internal/rdf"
	"kglids/internal/schema"
	"kglids/internal/snapshot"
	"kglids/internal/sparql"
	"kglids/internal/transform"
)

// Re-exported types so callers need only this package.
type (
	// DataFrame is the tabular structure all interfaces exchange.
	DataFrame = dataframe.DataFrame
	// Series is one DataFrame column.
	Series = dataframe.Series
	// Table pairs a dataset name with a table frame for bootstrapping.
	Table = core.Table
	// Script is a pipeline script with metadata.
	Script = pipeline.Script
	// Metadata is per-pipeline metadata.
	Metadata = pipeline.Metadata
	// TableResult is one ranked table hit.
	TableResult = discovery.TableResult
	// ColumnMatch is one unionable-column pair.
	ColumnMatch = discovery.ColumnMatch
	// JoinPath is a join-path between tables.
	JoinPath = discovery.JoinPath
	// LibraryUsage is one library-popularity row.
	LibraryUsage = discovery.LibraryUsage
	// PipelineHit is one pipeline matching a library query.
	PipelineHit = discovery.PipelineHit
	// CleaningOp names a cleaning operation.
	CleaningOp = cleaning.Op
	// CleaningRecommendation ranks a cleaning operation.
	CleaningRecommendation = cleaning.Recommendation
	// ScalerRecommendation ranks a scaling transformation.
	ScalerRecommendation = transform.ScalerRecommendation
	// UnaryRecommendation recommends a per-column transformation.
	UnaryRecommendation = transform.UnaryRecommendation
	// ModelRecommendation is one recommend_ml_models row.
	ModelRecommendation = automl.ModelRecommendation
	// AutoMLResult is the outcome of an AutoML run.
	AutoMLResult = automl.Result
	// Stats summarizes the LiDS graph.
	Stats = core.Stats
	// SourceReport summarizes a streaming AddSource call.
	SourceReport = core.SourceReport
	// Options configures bootstrapping: Algorithm 3's α/β/θ, the worker
	// count and the streaming profiler's bounds. A zero field means its
	// default.
	Options = core.Options
)

// Platform is a bootstrapped KGLiDS instance. It is safe for concurrent
// use: discovery queries may run while pipelines are added or the on-demand
// models are (re)trained.
type Platform struct {
	core *core.Platform

	// mu guards the trained recommenders, which Train* swap while
	// Recommend* read them from concurrent requests.
	mu         sync.RWMutex
	cleaner    *cleaning.Recommender
	transforms *transform.Recommender
	automl     *automl.System
}

// Bootstrap profiles the lake, builds the LiDS dataset graph, and returns
// a platform ready for discovery queries.
func Bootstrap(opts Options, tables []Table) *Platform {
	return &Platform{core: core.Bootstrap(core.Config{Options: opts}, tables)}
}

// BootstrapSource bootstraps a platform by streaming a connector URI
// (dir://, jsonl://, http(s)://, lakegen://) through the one-pass
// profiler, so the lake never has to fit in memory. Tables that fail to
// stream are skipped and reported by ID in the returned map; the
// resulting platform is equivalent to Bootstrap over the same data.
func BootstrapSource(ctx context.Context, opts Options, uri string) (*Platform, map[string]error, error) {
	c, failed, err := core.BootstrapSource(ctx, core.Config{Options: opts}, uri)
	if err != nil {
		return nil, failed, err
	}
	return &Platform{core: c}, failed, nil
}

// Save persists the bootstrapped platform — triple store, profiles,
// embeddings, vector indexes, and pipeline scripts — to a single snapshot
// file at path. Open reloads it without re-profiling the lake. Trained
// on-demand models (cleaning, transformation, AutoML) are not persisted;
// retrain them after Open.
func (p *Platform) Save(path string) error { return snapshot.Save(path, p.core) }

// SaveTo writes the platform snapshot to an arbitrary writer.
func (p *Platform) SaveTo(w io.Writer) error { return snapshot.Write(w, p.core) }

// Open reconstructs a query-ready platform from a snapshot file written by
// Save. Loading is linear in snapshot size (no profiling, no similarity
// computation) and typically orders of magnitude faster than Bootstrap.
func Open(path string) (*Platform, error) {
	c, err := snapshot.Load(path)
	if err != nil {
		return nil, err
	}
	return &Platform{core: c}, nil
}

// Read reconstructs a platform from a snapshot stream written by SaveTo.
func Read(r io.Reader) (*Platform, error) {
	c, err := snapshot.Read(r)
	if err != nil {
		return nil, err
	}
	return &Platform{core: c}, nil
}

// AddPipelines abstracts scripts into named graphs linked against the
// dataset graph (Algorithm 1 + Graph Linker).
func (p *Platform) AddPipelines(scripts []Script) { p.core.AddPipelines(scripts) }

// AddTables ingests new or changed tables into the live platform without a
// re-bootstrap: the new tables are profiled, their metadata subgraphs are
// inserted as per-table named graphs, delta similarity edges are computed
// against the whole lake, and the embedding indexes are upserted. A table
// whose "dataset/name" ID already exists is treated as an update (the old
// version is removed first). Discovery queries may run concurrently; after
// any sequence of AddTables/RemoveTable calls the platform is equivalent
// to a fresh Bootstrap over the final table set. Returns the ingested
// table IDs. See internal/ingest for the asynchronous job-queue front end.
func (p *Platform) AddTables(tables []Table) ([]string, error) { return p.core.AddTables(tables) }

// AddSource streams every table of a connector URI into the live
// platform with AddTables' update semantics, in parallel across the
// configured workers. Failed tables are reported in the SourceReport
// rather than aborting the call. Discovery queries may run concurrently.
func (p *Platform) AddSource(ctx context.Context, uri string) (*SourceReport, error) {
	return p.core.AddSource(ctx, uri)
}

// RemoveTable deletes a table from the live platform: its named graph, its
// similarity edges, and its embeddings all go away, and discovery stops
// returning it immediately.
func (p *Platform) RemoveTable(id string) error { return p.core.RemoveTable(id) }

// HasTable reports whether a "dataset/table" ID is currently served.
func (p *Platform) HasTable(id string) bool { return p.core.HasTable(id) }

// TableIDs returns the IDs of all tables currently served, sorted.
func (p *Platform) TableIDs() []string { return p.core.TableIDs() }

// Stats returns LiDS graph statistics (the Statistics Manager).
func (p *Platform) Stats() Stats { return p.core.Stats() }

// Generation returns the store's monotonic mutation counter: it increases
// on every graph mutation (table ingestion or removal, pipeline
// registration) and never otherwise. It doubles as a cache validator —
// kglids-server serves it as the ETag of every /api/v1 read, so clients
// revalidate with If-None-Match and are answered 304 until something
// actually changed.
func (p *Platform) Generation() uint64 { return p.core.Store.Generation() }

// SetSlowQuery enables the SPARQL slow-query log: any query whose wall
// time reaches d is logged (via log/slog) with its per-stage breakdown.
// Zero disables it. kglids-server wires this to -slow-query-ms.
func (p *Platform) SetSlowQuery(d time.Duration) { p.core.Discovery.SetSlowQuery(d) }

// SetQueryWorkers has no effect: every SPARQL query runs serially, and
// concurrent queries run side by side.
//
// Deprecated: there is no query execution width to set. The method
// remains only so existing callers compile, and will be removed.
func (p *Platform) SetQueryWorkers(int) {}

// Query runs an ad-hoc SPARQL query on the compiled ID-space engine.
// Repeated queries are served from a bounded result cache keyed on (query
// text, store generation) — live ingestion invalidates it automatically.
// Cached results are shared: treat them as read-only.
func (p *Platform) Query(q string) (*sparql.Result, error) { return p.core.Query(q) }

// QueryContext is Query under a context: cancellation or deadline expiry
// stops the evaluation mid-iteration instead of running the query to
// completion (the per-request timeout path of kglids-server).
func (p *Platform) QueryContext(ctx context.Context, q string) (*sparql.Result, error) {
	return p.core.QueryContext(ctx, q)
}

// SearchKeywords finds tables by keyword conditions (outer list OR'd,
// inner lists AND'd), mirroring search_keywords.
func (p *Platform) SearchKeywords(conditions [][]string) []TableResult {
	return p.core.Discovery.SearchKeywords(conditions)
}

// UnionableTables returns the top-k tables unionable with tableID
// ("dataset/table").
func (p *Platform) UnionableTables(tableID string, k int) ([]TableResult, error) {
	iri, err := p.core.TableIRI(tableID)
	if err != nil {
		return nil, err
	}
	return p.core.Discovery.UnionableTables(rdf.IRI(iri), k), nil
}

// FindUnionableColumns returns matched column pairs between two tables,
// mirroring find_unionable_columns.
func (p *Platform) FindUnionableColumns(a, b TableResult) []ColumnMatch {
	return p.core.Discovery.FindUnionableColumns(a.Table, b.Table)
}

// GetPathToTable finds join paths between two discovered tables of at
// most maxHops hops (join edges), mirroring get_path_to_table. Alternate
// routes through shared hub tables are all returned, ordered by length
// then score.
func (p *Platform) GetPathToTable(from, to TableResult, maxHops int) []JoinPath {
	return p.core.Discovery.GetPathToTable(from.Table, to.Table, maxHops)
}

// GetTopKLibrariesUsed returns the k most used libraries across all
// pipelines (get_top_k_library_used, Figure 4).
func (p *Platform) GetTopKLibrariesUsed(k int) ([]LibraryUsage, error) {
	return p.core.Discovery.TopKLibraries(k)
}

// GetTopUsedLibraries restricts library popularity to pipelines of a task
// (get_top_used_libraries).
func (p *Platform) GetTopUsedLibraries(k int, task string) ([]LibraryUsage, error) {
	return p.core.Discovery.TopUsedLibrariesForTask(k, task)
}

// GetPipelinesCallingLibraries returns pipelines calling every given
// qualified function (get_pipelines_calling_libraries).
func (p *Platform) GetPipelinesCallingLibraries(qualified ...string) []PipelineHit {
	return p.core.Discovery.PipelinesCallingLibraries(qualified...)
}

// TrainCleaningModel fits the on-demand cleaning GNN from examples mined
// from the LiDS graph (Section 4.2).
func (p *Platform) TrainCleaningModel(examples []cleaning.Example) {
	model := cleaning.Train(examples)
	p.mu.Lock()
	p.cleaner = model
	p.mu.Unlock()
}

// TrainTransformModels fits the scaling and unary transformation GNNs
// (Section 4.3).
func (p *Platform) TrainTransformModels(scalers []transform.ScalerExample, unaries []transform.UnaryExample) {
	model := transform.Train(scalers, unaries)
	p.mu.Lock()
	p.transforms = model
	p.mu.Unlock()
}

// TrainAutoML builds the AutoML system from the platform's pipeline
// abstractions and per-dataset embeddings (Section 4.4). seeded selects
// the LiDS-enriched hyperparameter seeding.
func (p *Platform) TrainAutoML(seeded bool) {
	usages := automl.MineUsages(p.core.Pipelines())
	byDataset := map[string][]embed.Vector{}
	for id, emb := range p.core.TableEmbeddingsView() {
		ds := id
		if i := indexByte(id, '/'); i >= 0 {
			ds = id[:i]
		}
		byDataset[ds] = append(byDataset[ds], emb)
	}
	dsEmb := map[string]embed.Vector{}
	for ds, vecs := range byDataset {
		dsEmb[ds] = embed.DatasetEmbedding(vecs)
	}
	sys := automl.New(usages, dsEmb, seeded)
	p.mu.Lock()
	p.automl = sys
	p.mu.Unlock()
}

func indexByte(s string, c byte) int {
	for i := 0; i < len(s); i++ {
		if s[i] == c {
			return i
		}
	}
	return -1
}

// RecommendCleaningOperations ranks cleaning operations for a frame
// (recommend_cleaning_operations). TrainCleaningModel must run first.
func (p *Platform) RecommendCleaningOperations(df *DataFrame) []CleaningRecommendation {
	p.mu.RLock()
	cleaner := p.cleaner
	p.mu.RUnlock()
	if cleaner == nil {
		return nil
	}
	return cleaner.Recommend(df)
}

// ApplyCleaningOperations applies a recommended cleaning operation
// (apply_cleaning_operations).
func (p *Platform) ApplyCleaningOperations(op CleaningOp, df *DataFrame) (*DataFrame, error) {
	return cleaning.Apply(op, df)
}

// RecommendTransformations returns the scaling and per-column
// transformations for a frame (recommend_transformations).
// TrainTransformModels must run first.
func (p *Platform) RecommendTransformations(df *DataFrame, target string) ([]ScalerRecommendation, []UnaryRecommendation) {
	p.mu.RLock()
	transforms := p.transforms
	p.mu.RUnlock()
	if transforms == nil {
		return nil, nil
	}
	return transforms.RecommendScaler(df), transforms.RecommendUnary(df, target)
}

// ApplyTransformations runs the two-step transform (scaling then unary)
// with the trained models.
func (p *Platform) ApplyTransformations(df *DataFrame, target string) (*DataFrame, error) {
	p.mu.RLock()
	transforms := p.transforms
	p.mu.RUnlock()
	if transforms == nil {
		return df.Clone(), nil
	}
	out, _, _, err := transforms.Transform(df, target)
	return out, err
}

// RecommendMLModels returns classifiers used on the most similar dataset
// (recommend_ml_models). TrainAutoML must run first.
func (p *Platform) RecommendMLModels(df *DataFrame) []ModelRecommendation {
	p.mu.RLock()
	sys := p.automl
	p.mu.RUnlock()
	if sys == nil {
		return nil
	}
	return sys.RecommendModels(p.tableEmbedding(df))
}

// RecommendHyperparameters returns the KG-mined hyperparameters for a
// classifier on the most similar dataset (recommend_hyperparameters).
func (p *Platform) RecommendHyperparameters(df *DataFrame, classifier string) map[string]float64 {
	p.mu.RLock()
	sys := p.automl
	p.mu.RUnlock()
	if sys == nil {
		return nil
	}
	return sys.RecommendHyperparameters(p.tableEmbedding(df), classifier)
}

// AutoML runs the full KGpip-revised pipeline on a dataset under a time
// budget (Section 4.4).
func (p *Platform) AutoML(df *DataFrame, target string, budget time.Duration) (AutoMLResult, error) {
	p.mu.RLock()
	sys := p.automl
	p.mu.RUnlock()
	if sys == nil {
		p.TrainAutoML(true)
		p.mu.RLock()
		sys = p.automl
		p.mu.RUnlock()
	}
	return sys.Fit(df, target, p.tableEmbedding(df), budget)
}

func (p *Platform) tableEmbedding(df *DataFrame) embed.Vector {
	return p.core.Profiler().TableEmbedding(df)
}

// SimilarTables finds tables similar to a frame by embedding (the
// embedding-store search path of get_path_to_table).
func (p *Platform) SimilarTables(df *DataFrame, k int) []TableResult {
	hits := p.core.SimilarTablesByEmbedding(df, k)
	out := make([]TableResult, len(hits))
	for i, h := range hits {
		out[i] = TableResult{Table: rdf.IRI(mustIRI(p, h.ID)), Name: h.ID, Score: h.Score}
	}
	return out
}

func mustIRI(p *Platform, id string) string {
	iri, err := p.core.TableIRI(id)
	if err != nil {
		return schema.TableIRI(id).Value
	}
	return iri
}

// Core exposes the underlying platform for advanced use (experiments).
func (p *Platform) Core() *core.Platform { return p.core }
