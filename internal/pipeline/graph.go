package pipeline

import (
	"fmt"
	"net/url"
	"runtime"
	"sort"
	"strings"
	"sync"

	"kglids/internal/rdf"
	"kglids/internal/schema"
	"kglids/internal/store"
)

// GraphBuilder turns abstractions into LiDS named graphs plus the shared
// library graph, and applies the Global Graph Linker to verify predicted
// dataset usage against the data global schema (Section 3.1).
type GraphBuilder struct {
	Linker  *schema.Linker // nil disables verification (all predictions kept)
	Workers int
}

// NewGraphBuilder returns a builder with the given linker.
func NewGraphBuilder(linker *schema.Linker) *GraphBuilder {
	return &GraphBuilder{Linker: linker, Workers: runtime.NumCPU()}
}

// PipelineIRI returns the named-graph IRI for a script ID.
func PipelineIRI(scriptID string) rdf.Term {
	return rdf.Resource("pipeline/" + escape(scriptID))
}

// StatementIRI returns the IRI of statement idx within a pipeline.
func StatementIRI(scriptID string, idx int) rdf.Term {
	return rdf.Resource(fmt.Sprintf("pipeline/%s/s%d", escape(scriptID), idx))
}

// LibraryIRI returns the IRI of a (sub)library node, e.g.
// "sklearn.ensemble.RandomForestClassifier".
func LibraryIRI(qualified string) rdf.Term {
	return rdf.Resource("library/" + strings.ReplaceAll(escape(qualified), ".", "/"))
}

func escape(s string) string {
	parts := strings.Split(s, "/")
	for i, p := range parts {
		parts[i] = url.PathEscape(p)
	}
	return strings.Join(parts, "/")
}

// AddLibraryHierarchy inserts the library-graph nodes for one qualified
// call ("sklearn.ensemble.RandomForestClassifier" yields Library →
// Package → Class/Function nodes chained by isSubLibraryOf edges),
// building the library hierarchy subgraph of Algorithm 1 line 2.
func AddLibraryHierarchy(st *store.Store, qualified string) {
	parts := strings.Split(qualified, ".")
	var quads []rdf.Quad
	for i := range parts {
		prefix := strings.Join(parts[:i+1], ".")
		node := LibraryIRI(prefix)
		class := rdf.ClassLibrary
		switch {
		case i == len(parts)-1 && i > 0:
			// Leaf: classes start upper-case, functions lower-case.
			if parts[i] != "" && parts[i][0] >= 'A' && parts[i][0] <= 'Z' {
				class = rdf.ClassClass
			} else {
				class = rdf.ClassFunction
			}
		case i > 0:
			class = rdf.ClassPackage
		}
		quads = append(quads,
			rdf.Q(node, rdf.RDFType, class, rdf.DefaultGraph),
			rdf.Q(node, rdf.PropName, rdf.String(prefix), rdf.DefaultGraph),
			rdf.Q(node, rdf.RDFSLabel, rdf.String(parts[i]), rdf.DefaultGraph),
		)
		if i > 0 {
			parent := LibraryIRI(strings.Join(parts[:i], "."))
			quads = append(quads, rdf.Q(node, rdf.PropSubLibraryOf, parent, rdf.DefaultGraph))
		}
	}
	st.AddBatch(quads)
}

// BuildGraph inserts one abstraction as a named graph (Algorithm 1
// line 18) and returns the number of triples emitted.
func (g *GraphBuilder) BuildGraph(st *store.Store, abs *Abstraction) int {
	if abs.ParseError != nil {
		return 0
	}
	graph := PipelineIRI(abs.Script.ID)
	var quads []rdf.Quad
	add := func(t rdf.Triple) { quads = append(quads, rdf.Quad{Triple: t, Graph: graph}) }

	pipe := graph
	add(rdf.T(pipe, rdf.RDFType, rdf.ClassPipeline))
	add(rdf.T(pipe, rdf.PropName, rdf.String(abs.Script.ID)))
	meta := abs.Script.Meta
	if meta.Author != "" {
		add(rdf.T(pipe, rdf.PropAuthor, rdf.String(meta.Author)))
	}
	if meta.Votes != 0 {
		add(rdf.T(pipe, rdf.PropVotes, rdf.Integer(int64(meta.Votes))))
	}
	if meta.Score != 0 {
		add(rdf.T(pipe, rdf.PropScore, rdf.Float(meta.Score)))
	}
	if meta.Task != "" {
		add(rdf.T(pipe, rdf.PropTask, rdf.String(meta.Task)))
	}
	if meta.Dataset != "" {
		add(rdf.T(pipe, rdf.PropUsesDataset, schema.DatasetIRI(meta.Dataset)))
	}

	var prev rdf.Term
	for _, stmt := range abs.Statements {
		s := StatementIRI(abs.Script.ID, stmt.Index)
		add(rdf.T(s, rdf.RDFType, rdf.ClassStatement))
		add(rdf.T(s, rdf.PropIsPartOf, pipe))
		add(rdf.T(s, rdf.PropStatementText, rdf.String(stmt.Text)))
		add(rdf.T(s, rdf.PropControlFlowType, rdf.String(stmt.Flow)))
		add(rdf.T(s, rdf.PropLineNumber, rdf.Integer(int64(stmt.Line))))
		if prev.Value != "" {
			add(rdf.T(prev, rdf.PropCodeFlow, s)) // code flow edge
		}
		prev = s
		for _, dst := range stmt.DataFlowTo {
			add(rdf.T(s, rdf.PropDataFlow, StatementIRI(abs.Script.ID, dst)))
		}
		for ci, call := range stmt.Calls {
			lib := LibraryIRI(call.Qualified)
			add(rdf.T(s, rdf.PropCallsFunction, lib))
			add(rdf.T(s, rdf.PropCallsLibrary, LibraryIRI(call.Library)))
			if call.ReturnType != "" {
				add(rdf.T(s, rdf.PropReturnType, rdf.String(call.ReturnType)))
			}
			for pi, p := range call.Params {
				pn := rdf.Resource(fmt.Sprintf("pipeline/%s/s%d/c%d/p%d", escape(abs.Script.ID), stmt.Index, ci, pi))
				add(rdf.T(pn, rdf.RDFType, rdf.ClassParameter))
				add(rdf.T(s, rdf.PropHasParameter, pn))
				add(rdf.T(pn, rdf.PropName, rdf.String(p.Name)))
				add(rdf.T(pn, rdf.PropParameterValue, rdf.String(p.Value)))
			}
		}
		// Predicted dataset usage, verified by the Graph Linker.
		var tableID string
		for _, path := range stmt.TableReads {
			if g.Linker != nil {
				verified, ok := g.Linker.VerifyTable(path)
				if !ok {
					continue // prediction dropped
				}
				tableID = verified
				add(rdf.T(s, rdf.PropReads, schema.TableIRI(verified)))
			} else {
				add(rdf.T(s, rdf.PropReads, schema.TableIRI(path)))
			}
		}
		if tableID == "" && g.Linker != nil && meta.Dataset != "" {
			// Column verification falls back to the pipeline's dataset
			// tables when the read is in an earlier statement.
			for _, path := range collectTableReads(abs) {
				if verified, ok := g.Linker.VerifyTable(path); ok {
					tableID = verified
					break
				}
			}
		}
		for _, col := range stmt.ColumnReads {
			if g.Linker != nil {
				if tableID == "" || !g.Linker.VerifyColumn(tableID, col) {
					continue // e.g. user-defined NormalizedAge is dropped
				}
				add(rdf.T(s, rdf.PropReadsColumn, schema.ColumnIRI(tableID+"/"+col)))
			} else {
				add(rdf.T(s, rdf.PropReadsColumn, rdf.Resource("predicted/"+escape(col))))
			}
		}
	}
	st.AddBatch(quads)
	// Library hierarchy goes to the default (shared) graph, in sorted call
	// order: the terms it interns get the same IDs whenever the abstraction
	// is built again, as a follower does for its primary.
	calls := make([]string, 0, len(abs.CallCounts))
	for q := range abs.CallCounts {
		calls = append(calls, q)
	}
	sort.Strings(calls)
	for _, q := range calls {
		AddLibraryHierarchy(st, q)
	}
	return len(quads)
}

func collectTableReads(abs *Abstraction) []string {
	var out []string
	for _, s := range abs.Statements {
		out = append(out, s.TableReads...)
	}
	return out
}

// AbstractAll runs Algorithm 1 over a set of scripts in parallel and
// inserts all named graphs into st. It returns the abstractions in input
// order.
func (g *GraphBuilder) AbstractAll(st *store.Store, a *Abstractor, scripts []Script) []*Abstraction {
	out := make([]*Abstraction, len(scripts))
	workers := g.Workers
	if workers < 1 {
		workers = 1
	}
	var wg sync.WaitGroup
	ch := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ch {
				out[i] = a.Abstract(scripts[i])
			}
		}()
	}
	for i := range scripts {
		ch <- i
	}
	close(ch)
	wg.Wait()
	for _, abs := range out {
		g.BuildGraph(st, abs)
	}
	return out
}

// TopLibraries returns the top-k libraries by number of distinct pipelines
// calling them (the Figure 4 statistic).
func TopLibraries(abstractions []*Abstraction, k int) []LibraryCount {
	pipelinesPerLib := map[string]int{}
	for _, abs := range abstractions {
		seen := map[string]bool{}
		for q := range abs.CallCounts {
			lib := topLevel(q)
			if !seen[lib] {
				seen[lib] = true
				pipelinesPerLib[lib]++
			}
		}
	}
	out := make([]LibraryCount, 0, len(pipelinesPerLib))
	for lib, n := range pipelinesPerLib {
		out = append(out, LibraryCount{Library: lib, Pipelines: n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pipelines != out[j].Pipelines {
			return out[i].Pipelines > out[j].Pipelines
		}
		return out[i].Library < out[j].Library
	})
	if k > 0 && k < len(out) {
		out = out[:k]
	}
	return out
}

// LibraryCount pairs a library with the number of pipelines using it.
type LibraryCount struct {
	Library   string
	Pipelines int
}
