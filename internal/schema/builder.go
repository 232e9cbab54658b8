// Package schema implements the Data Global Schema Builder and the Global
// Graph Linker (paper Section 3.3, Algorithm 3): it turns column profiles
// into the dataset graph — metadata subgraphs plus label- and content-
// similarity edges between same-type columns, annotated RDF-star style with
// certainty scores — and verifies predicted dataset reads from pipeline
// abstraction against the global schema.
package schema

import (
	"fmt"
	"net/url"
	"runtime"
	"sort"
	"strings"
	"sync"

	"kglids/internal/embed"
	"kglids/internal/profiler"
	"kglids/internal/rdf"
	"kglids/internal/store"
)

// Thresholds are the user-defined similarity thresholds of Algorithm 3:
// Alpha for label similarity, Beta for boolean true-ratio similarity, and
// Theta for content (embedding) similarity.
type Thresholds struct {
	Alpha float64
	Beta  float64
	Theta float64
}

// DefaultThresholds matches the high-precision setting discussed in the
// paper (high thresholds → fewer but more accurate edges).
func DefaultThresholds() Thresholds { return Thresholds{Alpha: 0.75, Beta: 0.90, Theta: 0.85} }

// Edge is one materialized similarity relationship between two columns.
type Edge struct {
	A, B  string // column IDs "dataset/table/column"
	Kind  string // "LabelSimilarity" or "ContentSimilarity"
	Score float64
}

// Builder runs Algorithm 3 over a set of column profiles.
type Builder struct {
	Thresholds Thresholds
	Words      *embed.WordModel
	Workers    int
	// SkipLabels disables label-similarity edges (the "Fine-Grained" only
	// configuration of the Figure 6 ablation).
	SkipLabels bool
	// BlockSize bounds the exhaustive fallback of the blocked pipeline:
	// same-fine-grained-type blocks with at most this many columns are
	// compared pair-by-pair, larger ones go through the candidate
	// pre-filter. 0 means DefaultEdgeBlockSize.
	BlockSize int
	// Candidates is the target number of candidates per column in the
	// pre-filtered path (the average pre-filter cluster size). It tunes
	// cost only — the pre-filter may return more candidates to preserve
	// exactness. 0 means DefaultEdgeCandidates.
	Candidates int
	// Labels is the persistent label-embedding cache. Leave nil for a
	// private per-builder cache; core.Platform shares one across every
	// bootstrap and ingest delta so each distinct label is embedded once
	// for the platform's lifetime.
	Labels *LabelCache

	// lastStats describes the most recent SimilarityEdges/Delta/Exhaustive
	// run. Written at the end of each (single-threaded) build.
	lastStats EdgeBuildStats
}

// NewBuilder returns a builder with default thresholds.
func NewBuilder() *Builder {
	return &Builder{Thresholds: DefaultThresholds(), Words: embed.NewWordModel(), Workers: runtime.NumCPU()}
}

func (b *Builder) labelCache() *LabelCache {
	if b.Labels == nil {
		b.Labels = NewLabelCache()
	}
	return b.Labels
}

// LastStats returns instrumentation from the most recent similarity build
// on this builder (pairs compared vs. the exhaustive count, peak pair
// buffer, blocks pruned).
func (b *Builder) LastStats() EdgeBuildStats { return b.lastStats }

// labelView gives per-profile normalized labels and label embeddings for
// one build, backed by the persistent LabelCache: embeddings depend only
// on the normalized label, so repeated labels (and repeated builds) cost
// map lookups, not re-embedding.
type labelView struct {
	norms []string
	vecs  []embed.Vector
}

func (b *Builder) labelViewOf(profiles []*profiler.ColumnProfile) *labelView {
	lv := &labelView{vecs: make([]embed.Vector, len(profiles)), norms: make([]string, len(profiles))}
	cache := b.labelCache()
	for i, cp := range profiles {
		lv.norms[i] = normalizeLabel(cp.Column)
		lv.vecs[i] = cache.VecForNorm(b.Words, lv.norms[i])
	}
	return lv
}

func (lv *labelView) similarity(i, j int) float64 {
	if lv.norms[i] == lv.norms[j] {
		return 1.0
	}
	return embed.Cosine(lv.vecs[i], lv.vecs[j])
}

func normalizeLabel(s string) string {
	return strings.Join(embed.TokenizeLabel(s), " ")
}

// SimilarityEdges performs the pairwise comparison of Algorithm 3 (lines
// 7-19): all column pairs with the same fine-grained type in different
// tables, compared for label and content similarity. It runs the blocked,
// streaming, candidate-pruned pipeline (see blocked.go): memory stays
// bounded by workers × batch size instead of the O(n²) pair count, and
// large blocks are pruned to ~O(n·C) comparisons with an output provably
// identical to SimilarityEdgesExhaustive.
func (b *Builder) SimilarityEdges(profiles []*profiler.ColumnProfile) []Edge {
	return b.similarityEdgesBlocked(profiles, 0)
}

// SimilarityEdgesDelta compares only the pairs an incremental ingest
// introduces: added×existing and added×added (same fine-grained type,
// different tables). Over a sequence of adds each qualifying pair is
// compared exactly once, so the accumulated edge set equals what
// SimilarityEdges would produce over the final profile set — the property
// the live-ingestion equivalence guarantee rests on. It shares the blocked
// pipeline: blocks without added columns are skipped outright, and within
// active blocks only the added columns query the pre-filter.
func (b *Builder) SimilarityEdgesDelta(existing, added []*profiler.ColumnProfile) []Edge {
	combined := make([]*profiler.ColumnProfile, 0, len(existing)+len(added))
	combined = append(combined, existing...)
	combined = append(combined, added...)
	return b.similarityEdgesBlocked(combined, len(existing))
}

// SimilarityEdgesExhaustive is the reference O(n²) implementation: it
// materializes every same-type cross-table pair up front and compares them
// all. It exists as the oracle for the randomized equivalence harness and
// for measuring what the blocked pipeline saves — production paths use
// SimilarityEdges.
func (b *Builder) SimilarityEdgesExhaustive(profiles []*profiler.ColumnProfile) []Edge {
	return b.similarityEdgesExhaustive(profiles, 0)
}

// SimilarityEdgesDeltaExhaustive is the reference implementation of the
// delta comparison, the oracle for delta-path equivalence tests.
func (b *Builder) SimilarityEdgesDeltaExhaustive(existing, added []*profiler.ColumnProfile) []Edge {
	combined := make([]*profiler.ColumnProfile, 0, len(existing)+len(added))
	combined = append(combined, existing...)
	combined = append(combined, added...)
	return b.similarityEdgesExhaustive(combined, len(existing))
}

// similarityEdgesExhaustive compares all same-type cross-table pairs
// (i, j) with i < j and j >= minNew; minNew 0 means every pair. The pair
// slice it builds is the O(n²) memory cliff the blocked pipeline removes.
func (b *Builder) similarityEdgesExhaustive(profiles []*profiler.ColumnProfile, minNew int) []Edge {
	labels := b.labelViewOf(profiles)
	// Group column indexes by fine-grained type (the pruning that
	// Section 3.2 credits for cutting false positives and cost).
	byType := map[embed.Type][]int{}
	for i, cp := range profiles {
		byType[cp.Type] = append(byType[cp.Type], i)
	}
	type pair struct{ i, j int }
	var pairs []pair
	for _, idxs := range byType {
		for a := 0; a < len(idxs); a++ {
			for c := a + 1; c < len(idxs); c++ {
				if idxs[c] < minNew {
					continue // both sides pre-existing: already compared
				}
				pi, pj := profiles[idxs[a]], profiles[idxs[c]]
				if pi.TableID() == pj.TableID() {
					continue // only cross-table edges
				}
				pairs = append(pairs, pair{i: idxs[a], j: idxs[c]})
			}
		}
	}
	workers := b.Workers
	if workers < 1 {
		workers = 1
	}
	results := make([][]Edge, workers)
	var wg sync.WaitGroup
	chunk := (len(pairs) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		if lo >= len(pairs) {
			break
		}
		hi := min(lo+chunk, len(pairs))
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			var out []Edge
			for _, pr := range pairs[lo:hi] {
				out = append(out, b.comparePair(profiles[pr.i], profiles[pr.j], labels.similarity(pr.i, pr.j))...)
			}
			results[w] = out
		}(w, lo, hi)
	}
	wg.Wait()
	var edges []Edge
	for _, r := range results {
		edges = append(edges, r...)
	}
	b.lastStats = EdgeBuildStats{
		Columns:         len(profiles),
		Blocks:          len(byType),
		PairsCompared:   int64(len(pairs)),
		PairsExhaustive: int64(len(pairs)),
		PeakPairBuffer:  int64(len(pairs)),
	}
	SortEdges(edges)
	return edges
}

// comparePair is the worker body of Algorithm 3 (lines 9-19); labelSim is
// the precomputed label-embedding similarity for the pair.
func (b *Builder) comparePair(a, c *profiler.ColumnProfile, labelSim float64) []Edge {
	var out []Edge
	if !b.SkipLabels && labelSim >= b.Thresholds.Alpha {
		out = append(out, Edge{A: a.ID(), B: c.ID(), Kind: "LabelSimilarity", Score: labelSim})
	}
	if a.Type == embed.TypeBoolean {
		sim := 1 - abs(a.Stats.TrueRatio-c.Stats.TrueRatio)
		if sim >= b.Thresholds.Beta {
			out = append(out, Edge{A: a.ID(), B: c.ID(), Kind: "ContentSimilarity", Score: sim})
		}
		return out
	}
	if sim := embed.Cosine(a.Embed, c.Embed); sim >= b.Thresholds.Theta {
		out = append(out, Edge{A: a.ID(), B: c.ID(), Kind: "ContentSimilarity", Score: sim})
	}
	return out
}

func abs(f float64) float64 {
	if f < 0 {
		return -f
	}
	return f
}

// ColumnIRI returns the LiDS resource IRI for a column ID.
func ColumnIRI(id string) rdf.Term { return rdf.Resource(escapePath(id)) }

// TableIRI returns the LiDS resource IRI for "dataset/table".
func TableIRI(id string) rdf.Term { return rdf.Resource(escapePath(id)) }

// DatasetIRI returns the LiDS resource IRI for a dataset.
func DatasetIRI(id string) rdf.Term { return rdf.Resource(escapePath(id)) }

func escapePath(p string) string {
	parts := strings.Split(p, "/")
	for i, s := range parts {
		parts[i] = url.PathEscape(s)
	}
	return strings.Join(parts, "/")
}

// TableGraph returns the named graph holding a table's metadata subgraph.
// Every metadata triple of a table (and the dataset triples it shares with
// sibling tables) is a member of this graph, which is what makes a table
// individually removable: dropping the graph drops exactly the metadata
// that table contributed, while shared dataset triples survive through the
// sibling tables' graph memberships.
func TableGraph(tableID string) rdf.Term { return TableIRI(tableID) }

// MetadataQuads renders the metadata subgraphs of the profiled columns
// (Algorithm 3 lines 3-5), one named graph per table. Profiles of the same
// table must be contiguous, as ProfileAll emits them.
func MetadataQuads(profiles []*profiler.ColumnProfile) []rdf.Quad {
	tablesSeen := map[string]bool{}
	var quads []rdf.Quad
	for _, cp := range profiles {
		col := ColumnIRI(cp.ID())
		table := TableIRI(cp.TableID())
		ds := DatasetIRI(cp.Dataset)
		g := TableGraph(cp.TableID())
		add := func(t rdf.Triple) { quads = append(quads, rdf.Quad{Triple: t, Graph: g}) }
		if !tablesSeen[cp.TableID()] {
			tablesSeen[cp.TableID()] = true
			add(rdf.T(ds, rdf.RDFType, rdf.ClassDataset))
			add(rdf.T(ds, rdf.PropName, rdf.String(cp.Dataset)))
			add(rdf.T(ds, rdf.RDFSLabel, rdf.String(cp.Dataset)))
			add(rdf.T(table, rdf.RDFType, rdf.ClassTable))
			add(rdf.T(table, rdf.PropName, rdf.String(cp.Table)))
			add(rdf.T(table, rdf.RDFSLabel, rdf.String(cp.Table)))
			add(rdf.T(table, rdf.PropIsPartOf, ds))
			add(rdf.T(ds, rdf.PropHasTable, table))
			add(rdf.T(table, rdf.PropRowCount, rdf.Integer(int64(cp.Stats.Total))))
		}
		add(rdf.T(col, rdf.RDFType, rdf.ClassColumn))
		add(rdf.T(col, rdf.PropName, rdf.String(cp.Column)))
		add(rdf.T(col, rdf.RDFSLabel, rdf.String(cp.Column)))
		add(rdf.T(col, rdf.PropIsPartOf, table))
		add(rdf.T(table, rdf.PropHasColumn, col))
		add(rdf.T(col, rdf.PropDataType, rdf.String(string(cp.Type))))
		add(rdf.T(col, rdf.PropTotalValues, rdf.Integer(int64(cp.Stats.Total))))
		add(rdf.T(col, rdf.PropDistinctValues, rdf.Integer(int64(cp.Stats.Distinct))))
		add(rdf.T(col, rdf.PropMissingValues, rdf.Integer(int64(cp.Stats.Missing))))
		switch cp.Type {
		case embed.TypeInt, embed.TypeFloat:
			add(rdf.T(col, rdf.PropMinValue, rdf.Float(cp.Stats.Min)))
			add(rdf.T(col, rdf.PropMaxValue, rdf.Float(cp.Stats.Max)))
			add(rdf.T(col, rdf.PropMeanValue, rdf.Float(cp.Stats.Mean)))
			add(rdf.T(col, rdf.PropStdDev, rdf.Float(cp.Stats.Std)))
		case embed.TypeBoolean:
			add(rdf.T(col, rdf.PropTrueRatio, rdf.Float(cp.Stats.TrueRatio)))
		}
	}
	return quads
}

// EdgeQuads renders similarity edges as default-graph quads: both
// directions of the symmetric relationship plus the RDF-star certainty
// annotations. It is a pure function of the edges, so the exact quads an
// edge contributed can be reconstructed later to remove it.
func EdgeQuads(edges []Edge) []rdf.Quad {
	// A column takes part in many edges; its IRI is escaped once per call.
	iris := map[string]rdf.Term{}
	iri := func(id string) rdf.Term {
		t, ok := iris[id]
		if !ok {
			t = ColumnIRI(id)
			iris[id] = t
		}
		return t
	}
	quads := make([]rdf.Quad, 0, 4*len(edges))
	for _, e := range edges {
		pred := rdf.PropLabelSimilarity
		if e.Kind == "ContentSimilarity" {
			pred = rdf.PropContentSimilarity
		}
		score := rdf.Float(e.Score)
		a, b := iri(e.A), iri(e.B)
		ta, tb := rdf.T(a, pred, b), rdf.T(b, pred, a)
		quads = append(quads,
			rdf.Quad{Triple: ta, Graph: rdf.DefaultGraph},
			rdf.Quad{Triple: rdf.T(rdf.QuotedTriple(ta), rdf.PropCertainty, score), Graph: rdf.DefaultGraph},
			rdf.Quad{Triple: tb, Graph: rdf.DefaultGraph},
			rdf.Quad{Triple: rdf.T(rdf.QuotedTriple(tb), rdf.PropCertainty, score), Graph: rdf.DefaultGraph},
		)
	}
	return quads
}

// BuildGraph constructs the dataset graph in st: per-table metadata
// subgraphs in per-table named graphs and similarity edges annotated with
// certainty scores in the default graph, then returns the edges.
func (b *Builder) BuildGraph(st *store.Store, profiles []*profiler.ColumnProfile) []Edge {
	st.AddBatch(MetadataQuads(profiles))
	edges := b.SimilarityEdges(profiles)
	st.AddBatch(EdgeQuads(edges))
	return edges
}

// SortEdges orders edges by (A, B, Kind), the canonical order BuildGraph
// and the delta builders return.
func SortEdges(edges []Edge) {
	sort.Slice(edges, func(i, j int) bool {
		a, b := &edges[i], &edges[j]
		if a.A != b.A {
			return a.A < b.A
		}
		if a.B != b.B {
			return a.B < b.B
		}
		return a.Kind < b.Kind
	})
}

// Linker is the Global Graph Linker: it verifies predicted dataset-usage
// nodes from pipeline abstraction against the data global schema
// (Section 3.1, "Predicting Dataset Usage and Graph Linker"). It is safe
// for concurrent use: live ingestion mutates the schema (AddProfiles /
// RemoveTable) while pipeline abstraction verifies reads against it.
type Linker struct {
	mu      sync.RWMutex
	tables  map[string]bool            // "dataset/table"
	columns map[string]map[string]bool // table ID -> column name set
}

// NewLinker indexes the global schema from profiles.
func NewLinker(profiles []*profiler.ColumnProfile) *Linker {
	l := &Linker{tables: map[string]bool{}, columns: map[string]map[string]bool{}}
	l.AddProfiles(profiles)
	return l
}

// AddProfiles extends the indexed schema with newly profiled columns.
func (l *Linker) AddProfiles(profiles []*profiler.ColumnProfile) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, cp := range profiles {
		tid := cp.TableID()
		l.tables[tid] = true
		if l.columns[tid] == nil {
			l.columns[tid] = map[string]bool{}
		}
		l.columns[tid][cp.Column] = true
	}
}

// RemoveTable drops a table (and its columns) from the indexed schema.
func (l *Linker) RemoveTable(tableID string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	delete(l.tables, tableID)
	delete(l.columns, tableID)
}

// VerifyTable resolves a table path mentioned in a pipeline (e.g.
// "titanic/train.csv") to a table ID in the schema, trying both the raw
// path and a dataset-qualified suffix match.
func (l *Linker) VerifyTable(path string) (string, bool) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	p := strings.TrimPrefix(path, "./")
	p = strings.TrimPrefix(p, "../input/")
	p = strings.TrimPrefix(p, "input/")
	if l.tables[p] {
		return p, true
	}
	// Suffix match: any table whose "dataset/table" ends with the path.
	for tid := range l.tables {
		if strings.HasSuffix(tid, "/"+p) || tid == p {
			return tid, true
		}
	}
	// Bare filename match.
	base := p
	if i := strings.LastIndexByte(p, '/'); i >= 0 {
		base = p[i+1:]
	}
	for tid := range l.tables {
		if strings.HasSuffix(tid, "/"+base) {
			return tid, true
		}
	}
	return "", false
}

// VerifyColumn reports whether a column name exists in the given table.
// Predicted column reads that fail verification are dropped from the graph
// (e.g. the user-defined NormalizedAge column in the paper's Figure 3).
func (l *Linker) VerifyColumn(tableID, column string) bool {
	l.mu.RLock()
	defer l.mu.RUnlock()
	cols, ok := l.columns[tableID]
	return ok && cols[column]
}

// String summarizes the linker's schema coverage.
func (l *Linker) String() string {
	l.mu.RLock()
	defer l.mu.RUnlock()
	nc := 0
	for _, cols := range l.columns {
		nc += len(cols)
	}
	return fmt.Sprintf("Linker{%d tables, %d columns}", len(l.tables), nc)
}
