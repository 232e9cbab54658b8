// Package discovery implements KGLiDS's data discovery operations (paper
// Sections 3.3 and 5): keyword search over the LiDS graph, unionable- and
// joinable-table search backed by the materialized similarity edges,
// unionable-column matching, and join-path discovery. Per Section 6.1.2,
// discovery queries run as index-backed graph lookups (SPARQL-equivalent)
// rather than raw-data scans, which is why query time stays in
// milliseconds.
package discovery

import (
	"cmp"
	"context"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"kglids/internal/rdf"
	"kglids/internal/sparql"
	"kglids/internal/store"
)

// Engine answers discovery queries against a populated LiDS graph.
type Engine struct {
	st  *store.Store
	eng *sparql.Engine
	adj Adjacency

	// corpusMu guards the memoized keyword-search corpus, rebuilt only
	// when the store generation moves.
	corpusMu  sync.Mutex
	corpus    []corpusEntry
	corpusGen uint64
}

// Neighbor is one similarity edge as seen from one of its columns: the
// column at the other end, the table that column is part of, and the
// edge's RDF-star certainty.
type Neighbor struct {
	Column, Table store.TermID
	Score         float64
}

// Adjacency is the resident similarity graph unionable and joinable search
// rank from, keyed by the store's TermIDs. It holds what the edge quads,
// their certainty annotations and the columns' isPartOf triples say, so a
// ranking walks slices instead of the store.
type Adjacency interface {
	// VisitColumns calls fn for every column of table, in ascending TermID
	// order (the order of the store's hasColumn index), with the column's
	// label- and content-similarity neighbours, all under one consistent
	// read. fn must not keep the slices or call back into the adjacency's
	// owner.
	VisitColumns(table store.TermID, fn func(col store.TermID, label, content []Neighbor))
}

// New returns a discovery engine over st that ranks similar tables from adj.
func New(st *store.Store, adj Adjacency) *Engine {
	return &Engine{st: st, eng: sparql.NewEngine(st), adj: adj}
}

// TableResult is one ranked table hit.
type TableResult struct {
	Table rdf.Term
	Name  string
	Score float64
}

// SearchKeywords finds tables matching keyword conditions, mirroring the
// search_keywords API: each element of conditions is OR'd; an element's
// keywords are AND'd. Keywords match table, dataset, or column names
// case-insensitively.
func (e *Engine) SearchKeywords(conditions [][]string) []TableResult {
	corpus := e.tableCorpus() // shared across OR-conjunctions
	seen := map[string]TableResult{}
	for _, conj := range conditions {
		for _, hit := range searchConjunction(corpus, conj) {
			key := hit.Table.Key()
			if old, ok := seen[key]; !ok || hit.Score > old.Score {
				seen[key] = hit
			}
		}
	}
	out := make([]TableResult, 0, len(seen))
	for _, v := range seen {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Table.Value < out[j].Table.Value
	})
	return out
}

// searchConjunction returns tables where every keyword matches the table's
// own name, its dataset name, or one of its column names. The searchable
// corpus is assembled from compiled SPARQL queries whose results the engine
// caches per store generation, so steady-state keyword traffic is pure
// in-memory string matching with zero graph traversal.
func searchConjunction(corpus []corpusEntry, keywords []string) []TableResult {
	lowered := make([]string, len(keywords))
	for i, kw := range keywords {
		lowered[i] = strings.ToLower(kw)
	}
	var out []TableResult
	for _, entry := range corpus {
		all := true
		for _, kw := range lowered {
			if !strings.Contains(entry.text, kw) {
				all = false
				break
			}
		}
		if all {
			out = append(out, TableResult{Table: entry.table, Name: entry.name, Score: float64(len(keywords))})
		}
	}
	return out
}

// corpusEntry is one table's searchable text.
type corpusEntry struct {
	table rdf.Term
	name  string
	text  string
}

// corpusQueries fetch, per table, its name, its dataset (with name), and
// its columns (with names). They run on the compiled engine and their
// results are cached until the store generation changes.
const (
	corpusTablesQ  = `SELECT ?t ?n WHERE { ?t a kglids:Table . OPTIONAL { ?t kglids:name ?n . } }`
	corpusDatasetQ = `SELECT ?t ?ds ?dn WHERE { ?t a kglids:Table ; kglids:isPartOf ?ds . OPTIONAL { ?ds kglids:name ?dn . } }`
	corpusColumnsQ = `SELECT ?t ?c ?cn WHERE { ?t a kglids:Table ; kglids:hasColumn ?c . OPTIONAL { ?c kglids:name ?cn . } }`
)

// tableCorpus returns the searchable text of every table, memoized per
// store generation: steady-state keyword traffic costs one generation
// compare, and any live-ingestion mutation rebuilds the corpus on the
// next search. The returned slice is shared — callers must not mutate it.
func (e *Engine) tableCorpus() []corpusEntry {
	gen := e.st.Generation()
	e.corpusMu.Lock()
	defer e.corpusMu.Unlock()
	if e.corpus != nil && e.corpusGen == gen {
		return e.corpus
	}
	corpus := e.buildCorpus()
	// Memoize only if no mutation landed while the three corpus queries
	// ran; a torn corpus may be served once but is never cached.
	if e.st.Generation() == gen {
		e.corpus, e.corpusGen = corpus, gen
	}
	return corpus
}

// buildCorpus assembles the corpus: each table's display name, its
// dataset's display name, its column names, and the table IRI (the
// dataset directory is part of it). Names are deduplicated and sorted so
// the corpus is deterministic regardless of query enumeration order.
func (e *Engine) buildCorpus() []corpusEntry {
	display := func(node, name rdf.Term) string {
		if name.Value != "" {
			return name.Value
		}
		return node.Local()
	}
	type parts struct {
		table    rdf.Term
		name     string
		ds, cols map[string]bool
	}
	byTable := map[string]*parts{}
	order := []string{}
	at := func(t rdf.Term) *parts {
		k := t.Key()
		p := byTable[k]
		if p == nil {
			p = &parts{table: t, ds: map[string]bool{}, cols: map[string]bool{}}
			byTable[k] = p
			order = append(order, k)
		}
		return p
	}
	if res, err := e.eng.Query(corpusTablesQ); err == nil {
		for _, row := range res.Rows {
			p := at(row["t"])
			if n := display(row["t"], row["n"]); p.name == "" || n < p.name {
				p.name = n
			}
		}
	}
	if res, err := e.eng.Query(corpusDatasetQ); err == nil {
		for _, row := range res.Rows {
			at(row["t"]).ds[display(row["ds"], row["dn"])] = true
		}
	}
	if res, err := e.eng.Query(corpusColumnsQ); err == nil {
		for _, row := range res.Rows {
			at(row["t"]).cols[display(row["c"], row["cn"])] = true
		}
	}
	out := make([]corpusEntry, 0, len(order))
	for _, k := range order {
		p := byTable[k]
		var sb strings.Builder
		sb.WriteString(strings.ToLower(p.name))
		sb.WriteByte(' ')
		for _, n := range sortedKeys(p.ds) {
			sb.WriteString(strings.ToLower(n))
			sb.WriteByte(' ')
		}
		for _, n := range sortedKeys(p.cols) {
			sb.WriteString(strings.ToLower(n))
			sb.WriteByte(' ')
		}
		sb.WriteString(strings.ToLower(p.table.Value))
		out = append(out, corpusEntry{table: p.table, name: p.name, text: sb.String()})
	}
	return out
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func (e *Engine) nameOf(node rdf.Term) string {
	objs := e.st.Objects(node, rdf.PropName, rdf.DefaultGraph)
	if len(objs) > 0 {
		return objs[0].Value
	}
	return node.Local()
}

// similarityKind selects which similarity edges drive a query.
type similarityKind int

const (
	// unionKind uses label OR content edges (Section 3.3: unionable).
	unionKind similarityKind = iota
	// joinKind uses content edges only (joinable).
	joinKind
)

// UnionableTables returns the top-k tables unionable with the query table,
// ranked by the aggregate similarity of their column matches (Section 3.3:
// "based on both the number of similar columns and the similarity scores
// between them").
func (e *Engine) UnionableTables(table rdf.Term, k int) []TableResult {
	return e.similarTables(table, k, unionKind)
}

// JoinableTables returns the top-k tables joinable with the query table
// (content-similar columns).
func (e *Engine) JoinableTables(table rdf.Term, k int) []TableResult {
	return e.similarTables(table, k, joinKind)
}

// similarTables ranks the tables similar to the query table and resolves
// display names for the top k it returns.
func (e *Engine) similarTables(table rdf.Term, k int, kind similarityKind) []TableResult {
	ranked := e.rankTables(table, kind)
	if ranked == nil {
		return nil
	}
	if k > 0 && k < len(ranked) {
		ranked = ranked[:k]
	}
	out := make([]TableResult, len(ranked))
	v := e.st.AcquireView()
	defer v.Close()
	for i, r := range ranked {
		out[i] = TableResult{Table: v.Dict().Term(r.id), Name: e.nameOfID(v, r.id), Score: r.score}
	}
	return out
}

// rankedTable is one ranked table: its ID, its score and its IRI, the
// tie-break.
type rankedTable struct {
	id    store.TermID
	score float64
	iri   string
}

// rankTables scores every table that shares a similarity edge with the
// query table's columns, as rankTablesID does; it returns nil for a table
// the store does not know.
func (e *Engine) rankTables(table rdf.Term, kind similarityKind) []rankedTable {
	tid, ok := e.st.EncodeTerm(table)
	if !ok {
		return nil
	}
	return e.rankTablesID(tid, kind)
}

// rankTablesID scores every table that shares a similarity edge with the
// columns of table tid: per query column the best edge into each other
// table (label or content for unionKind, content only for joinKind),
// summed over the query columns in TermID order and divided by their
// count. Adding in that order keeps every float64 score identical to a
// walk of the store's edge quads. It returns nil for a table with no
// columns, results sorted by score then IRI otherwise.
func (e *Engine) rankTablesID(tid store.TermID, kind similarityKind) []rankedTable {
	// Per other table: sum totals the best edge into it of each query
	// column before col, best is col's own, added to sum once the walk
	// leaves col.
	type acc struct {
		table     store.TermID
		col       int
		sum, best float64
	}
	var accs []acc
	at := map[store.TermID]int{}
	ncols := 0
	e.adj.VisitColumns(tid, func(_ store.TermID, label, content []Neighbor) {
		ncols++
		if kind == joinKind {
			label = nil
		}
		for _, nbrs := range [2][]Neighbor{label, content} {
			for _, n := range nbrs {
				// A column's best starts at 0: an edge not scoring above
				// it never counts.
				if !(n.Score > 0) {
					continue
				}
				i, seen := at[n.Table]
				if !seen {
					i = len(accs)
					at[n.Table] = i
					accs = append(accs, acc{table: n.Table, col: ncols})
				}
				a := &accs[i]
				if a.col != ncols {
					a.sum, a.best, a.col = a.sum+a.best, 0, ncols
				}
				if n.Score > a.best {
					a.best = n.Score
				}
			}
		}
	})
	if ncols == 0 {
		return nil
	}
	dict := e.st.Dict()
	out := make([]rankedTable, len(accs))
	norm := float64(ncols)
	for i, a := range accs {
		out[i] = rankedTable{a.table, (a.sum + a.best) / norm, dict.Term(a.table).Value}
	}
	slices.SortFunc(out, func(x, y rankedTable) int {
		if x.score != y.score {
			return cmp.Compare(y.score, x.score)
		}
		return strings.Compare(x.iri, y.iri)
	})
	return out
}

// joinScore is the score rankTablesID(tid, joinKind) gives target, and
// whether it ranks target at all: per column of tid the best content edge
// into target, summed in column order and divided by the column count.
// The additions are rankTablesID's, in its order, so the float64 is the
// same, without ranking the tables other than target.
func (e *Engine) joinScore(tid, target store.TermID) (float64, bool) {
	var sum float64
	ncols, found := 0, false
	e.adj.VisitColumns(tid, func(_ store.TermID, _, content []Neighbor) {
		ncols++
		best := 0.0
		for _, n := range content {
			if n.Table == target && n.Score > best {
				best = n.Score
			}
		}
		if best > 0 {
			sum += best
			found = true
		}
	})
	if !found {
		return 0, false
	}
	return sum / float64(ncols), true
}

// nameOfID resolves a node's display name under an already-held view.
func (e *Engine) nameOfID(v *store.View, node store.TermID) string {
	nameID, ok := e.st.EncodeTerm(rdf.PropName)
	if ok {
		var out string
		v.MatchIDs(node, nameID, 0, store.UnionGraph, func(_, _, o store.TermID) bool {
			out = v.Dict().Term(o).Value
			return false
		})
		if out != "" {
			return out
		}
	}
	return v.Dict().Term(node).Local()
}

// ColumnMatch pairs a query-table column with a matched column of another
// table.
type ColumnMatch struct {
	A, B  rdf.Term
	AName string
	BName string
	Kind  string // "label" or "content"
	Score float64
}

// FindUnionableColumns returns the matched (unionable) column pairs
// between two tables, the schema recommendation of the
// find_unionable_columns API.
func (e *Engine) FindUnionableColumns(tableA, tableB rdf.Term) []ColumnMatch {
	ta, okA := e.st.EncodeTerm(tableA)
	tb, okB := e.st.EncodeTerm(tableB)
	if !okA || !okB {
		return nil
	}
	type match struct {
		col  store.TermID
		kind string
		n    Neighbor
	}
	var matches []match
	e.adj.VisitColumns(ta, func(col store.TermID, label, content []Neighbor) {
		for _, edges := range []struct {
			kind string
			nbrs []Neighbor
		}{{"label", label}, {"content", content}} {
			from := len(matches)
			for _, n := range edges.nbrs {
				if n.Table == tb {
					matches = append(matches, match{col, edges.kind, n})
				}
			}
			// By column ID, the order the store's indexes list them in,
			// which the unstable sort below takes as its input.
			slices.SortFunc(matches[from:], func(x, y match) int { return cmp.Compare(x.n.Column, y.n.Column) })
		}
	})
	var out []ColumnMatch
	dict := e.st.Dict()
	for _, m := range matches {
		a, b := dict.Term(m.col), dict.Term(m.n.Column)
		out = append(out, ColumnMatch{
			A: a, B: b,
			AName: e.nameOf(a), BName: e.nameOf(b),
			Kind: m.kind, Score: m.n.Score,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].AName != out[j].AName {
			return out[i].AName < out[j].AName
		}
		return out[i].Score > out[j].Score
	})
	return out
}

// JoinPath is a sequence of tables connected by joinable columns.
type JoinPath struct {
	Tables []rdf.Term
	Score  float64
}

// GetPathToTable finds join paths from start to target of at most maxHops
// hops — a hop is one join edge, so a returned path has between 2 and
// maxHops+1 tables (the get_path_to_table API; BFS over content-
// similarity edges).
//
// Cycle prevention is per path, not global: a table may appear in many
// returned paths (alternate routes through a shared hub table are all
// reported, each scored on its own), but never twice within one path.
// Simple paths within the hop budget are enumerated breadth-first,
// ordered by length, then score (descending), then lexicographically by
// table sequence.
//
// Dense join graphs (near-cliques of mutually joinable tables) have
// exponentially many simple paths, so enumeration is bounded: at most
// maxJoinPaths paths are collected and at most maxJoinPathStates partial
// paths expanded. Because the search is breadth-first, truncation drops
// only the longest, most roundabout routes.
//
// The search runs on the store's TermIDs and decodes only the paths it
// returns. A partial path one hop short of the budget is not ranked: it is
// scored against the target alone, the only table it can still reach.
func (e *Engine) GetPathToTable(start, target rdf.Term, maxHops int) []JoinPath {
	if maxHops < 1 || start.Equal(target) {
		return nil
	}
	// A table the dictionary does not know has no edges: no path starts or
	// ends at it.
	sid, okStart := e.st.EncodeTerm(start)
	tid, okTarget := e.st.EncodeTerm(target)
	if !okStart || !okTarget {
		return nil
	}
	type state struct {
		path  []store.TermID
		score float64
	}
	extend := func(cur state, next store.TermID, score float64) state {
		return state{append(slices.Clip(cur.path), next), cur.score * score}
	}
	var found []state
	queue := []state{{path: []store.TermID{sid}, score: 1}}
	expanded := 0
	for len(queue) > 0 && len(found) < maxJoinPaths && expanded < maxJoinPathStates {
		cur := queue[0]
		queue = queue[1:]
		expanded++
		hops := len(cur.path) - 1
		last := cur.path[hops]
		if hops+1 == maxHops {
			// The last hop: only the target can extend the path, and the
			// ranking's one entry that matters is the target's.
			if score, ok := e.joinScore(last, tid); ok {
				found = append(found, extend(cur, tid, score))
			}
			continue
		}
		for _, next := range e.rankTablesID(last, joinKind) {
			if next.id == tid {
				found = append(found, extend(cur, tid, next.score))
			} else if !slices.Contains(cur.path, next.id) {
				queue = append(queue, extend(cur, next.id, next.score))
			}
		}
	}
	if found == nil {
		return nil
	}
	paths := make([]JoinPath, len(found))
	for i, f := range found {
		tables := make([]rdf.Term, len(f.path))
		for j, id := range f.path {
			tables[j] = e.st.DecodeTerm(id)
		}
		paths[i] = JoinPath{Tables: tables, Score: f.score}
	}
	sort.Slice(paths, func(i, j int) bool {
		if len(paths[i].Tables) != len(paths[j].Tables) {
			return len(paths[i].Tables) < len(paths[j].Tables)
		}
		if paths[i].Score != paths[j].Score {
			return paths[i].Score > paths[j].Score
		}
		return lessTables(paths[i].Tables, paths[j].Tables)
	})
	return paths
}

// Enumeration bounds of GetPathToTable: dense join graphs have
// exponentially many simple paths, and a discovery API must stay bounded.
const (
	// maxJoinPaths caps the number of paths collected.
	maxJoinPaths = 256
	// maxJoinPathStates caps the number of partial paths expanded.
	maxJoinPathStates = 4096
)

// lessTables orders equal-length table sequences lexicographically, the
// deterministic tie-break for equal-score paths.
func lessTables(a, b []rdf.Term) bool {
	for i := range a {
		if i >= len(b) {
			return false
		}
		if a[i].Value != b[i].Value {
			return a[i].Value < b[i].Value
		}
	}
	return false
}

// LibraryUsage is one row of the get_top_k_library_used result.
type LibraryUsage struct {
	Library   string
	Pipelines int
}

// TopKLibraries returns the k most-used top-level libraries by number of
// distinct pipelines calling them (Figure 4), via SPARQL over the named
// pipeline graphs.
func (e *Engine) TopKLibraries(k int) ([]LibraryUsage, error) {
	res, err := e.eng.Query(`
		SELECT ?lib (COUNT(DISTINCT ?g) AS ?n) WHERE {
			GRAPH ?g { ?s kglids:callsLibrary ?lib . }
		} GROUP BY ?lib ORDER BY DESC(?n)`)
	if err != nil {
		return nil, err
	}
	var out []LibraryUsage
	for _, row := range res.Rows {
		n, _ := row["n"].AsInt()
		out = append(out, LibraryUsage{Library: row["lib"].Local(), Pipelines: int(n)})
	}
	// Stable secondary order by name for ties.
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Pipelines != out[j].Pipelines {
			return out[i].Pipelines > out[j].Pipelines
		}
		return out[i].Library < out[j].Library
	})
	if k > 0 && k < len(out) {
		out = out[:k]
	}
	return out, nil
}

// TopUsedLibrariesForTask restricts TopKLibraries to pipelines whose
// metadata task matches (the get_top_used_libraries(k, task) API).
func (e *Engine) TopUsedLibrariesForTask(k int, task string) ([]LibraryUsage, error) {
	res, err := e.eng.Query(`
		SELECT ?lib (COUNT(DISTINCT ?g) AS ?n) WHERE {
			GRAPH ?g {
				?p a kglids:Pipeline ; kglids:task ` + sparql.QuoteString(task) + ` .
				?s kglids:callsLibrary ?lib .
			}
		} GROUP BY ?lib ORDER BY DESC(?n)`)
	if err != nil {
		return nil, err
	}
	var out []LibraryUsage
	for _, row := range res.Rows {
		n, _ := row["n"].AsInt()
		out = append(out, LibraryUsage{Library: row["lib"].Local(), Pipelines: int(n)})
	}
	if k > 0 && k < len(out) {
		out = out[:k]
	}
	return out, nil
}

// PipelineHit is one pipeline matching a library-usage query.
type PipelineHit struct {
	Pipeline rdf.Term
	Votes    int
	Score    float64
}

// PipelinesCallingLibraries returns pipelines that call every one of the
// given qualified functions (the get_pipelines_calling_libraries API).
func (e *Engine) PipelinesCallingLibraries(qualified ...string) []PipelineHit {
	if len(qualified) == 0 {
		return nil
	}
	counts := map[string]int{}
	terms := map[string]rdf.Term{}
	for _, q := range qualified {
		lib := libraryIRI(q)
		seen := map[string]bool{}
		e.st.MatchFunc(store.Wildcard, rdf.PropCallsFunction, lib, rdf.DefaultGraph, func(t rdf.Triple) bool {
			// Statement IRIs embed the pipeline IRI prefix.
			pipe := pipelineOfStatement(t.Subject)
			if pipe.Value == "" || seen[pipe.Key()] {
				return true
			}
			seen[pipe.Key()] = true
			counts[pipe.Key()]++
			terms[pipe.Key()] = pipe
			return true
		})
	}
	var out []PipelineHit
	for key, n := range counts {
		if n != len(qualified) {
			continue
		}
		pipe := terms[key]
		hit := PipelineHit{Pipeline: pipe}
		for _, v := range e.st.Objects(pipe, rdf.PropVotes, rdf.DefaultGraph) {
			if iv, ok := v.AsInt(); ok {
				hit.Votes = int(iv)
			}
		}
		for _, v := range e.st.Objects(pipe, rdf.PropScore, rdf.DefaultGraph) {
			if fv, ok := v.AsFloat(); ok {
				hit.Score = fv
			}
		}
		out = append(out, hit)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Votes != out[j].Votes {
			return out[i].Votes > out[j].Votes
		}
		return out[i].Pipeline.Value < out[j].Pipeline.Value
	})
	return out
}

func libraryIRI(qualified string) rdf.Term {
	return rdf.Resource("library/" + strings.ReplaceAll(qualified, ".", "/"))
}

// pipelineOfStatement recovers the pipeline IRI from a statement IRI of
// the form .../pipeline/<id>/s<k>.
func pipelineOfStatement(stmt rdf.Term) rdf.Term {
	v := stmt.Value
	i := strings.LastIndexByte(v, '/')
	if i < 0 {
		return rdf.Term{}
	}
	return rdf.IRI(v[:i])
}

// SPARQL exposes the underlying engine for ad-hoc queries (the Ad-hoc
// Queries interface of Figure 1). Queries run on the compiled ID-space
// path and repeated queries are served from the generation-keyed cache;
// treat results as read-only.
func (e *Engine) SPARQL(query string) (*sparql.Result, error) { return e.eng.Query(query) }

// SPARQLContext is SPARQL under a context: cancellation or deadline expiry
// stops the evaluation mid-iteration (the per-request timeout path of the
// HTTP server).
func (e *Engine) SPARQLContext(ctx context.Context, query string) (*sparql.Result, error) {
	return e.eng.QueryContext(ctx, query)
}

// CacheStats reports the SPARQL result-cache counters (tests, monitoring).
func (e *Engine) CacheStats() sparql.CacheStats { return e.eng.CacheStats() }

// SetSlowQuery forwards the slow-query log threshold to the SPARQL
// engine; 0 disables the slow-query log.
func (e *Engine) SetSlowQuery(d time.Duration) { e.eng.SetSlowQuery(d) }
