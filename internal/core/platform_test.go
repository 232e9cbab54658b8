package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"kglids/internal/connector"
	"kglids/internal/lakegen"
	"kglids/internal/pipegen"
	"kglids/internal/pipeline"
	"kglids/internal/rdf"
	"kglids/internal/schema"
	"kglids/internal/sparql"
)

func scriptsOf(corpus []pipegen.Generated) []pipeline.Script {
	out := make([]pipeline.Script, len(corpus))
	for i, g := range corpus {
		out[i] = g.Script
	}
	return out
}

func bootstrapSmall(t *testing.T) (*Platform, *lakegen.Benchmark) {
	t.Helper()
	b := lakegen.Generate(lakegen.Spec{
		Name: "mini", Families: 4, TablesPerFamily: 3, NoiseTables: 4,
		RowsPerTable: 60, QueryTables: 4, Seed: 31,
	})
	var tables []Table
	for _, df := range b.Tables {
		tables = append(tables, Table{Dataset: b.Dataset[df.Name], Frame: df})
	}
	return Bootstrap(DefaultConfig(), tables), b
}

func TestBootstrapBuildsGraph(t *testing.T) {
	p, b := bootstrapSmall(t)
	stats := p.Stats()
	if stats.Columns == 0 || stats.Tables != len(b.Tables) {
		t.Fatalf("stats = %+v", stats)
	}
	if stats.Triples == 0 || stats.SimilarityEdges == 0 {
		t.Errorf("graph empty: %+v", stats)
	}
	if p.ProfilingTime <= 0 || p.SchemaBuildTime <= 0 {
		t.Error("timings not recorded")
	}
	// Embedding stores populated.
	if p.TableIndex.Len() != stats.Tables || p.TableANN.Len() != stats.Tables {
		t.Error("embedding stores incomplete")
	}
}

func TestUnionableDiscoveryFindsFamily(t *testing.T) {
	p, b := bootstrapSmall(t)
	query := b.QueryTables[0]
	queryID := b.Dataset[query] + "/" + query
	iri, err := p.TableIRI(queryID)
	if err != nil {
		t.Fatal(err)
	}
	results := p.Discovery.UnionableTables(rdf.IRI(iri), 10)
	if len(results) == 0 {
		t.Fatal("no unionable tables found")
	}
	truth := map[string]bool{}
	for _, name := range b.GroundTruth[query] {
		truth[b.Dataset[name]+"/"+name] = true
	}
	// The top hit should be a true family member.
	top := results[0].Table.Value
	found := false
	for id := range truth {
		if schema.TableIRI(id).Value == top {
			found = true
		}
	}
	if !found {
		t.Errorf("top unionable %s not in ground truth %v", top, b.GroundTruth[query])
	}
}

func TestAddPipelinesLinksIntoGraph(t *testing.T) {
	p, b := bootstrapSmall(t)
	// Generate pipelines over the first family's table.
	df := b.Tables[0]
	ds := pipegen.FrameDataset(b.Dataset[df.Name], df, df.Columns()[0])
	corpus := pipegen.Generate(pipegen.Options{NumPipelines: 5, Datasets: []pipegen.Dataset{ds}, Seed: 7})
	abss := p.AddPipelines(scriptsOf(corpus))
	if len(abss) != 5 {
		t.Fatalf("abstractions = %d", len(abss))
	}
	for _, abs := range abss {
		if abs.ParseError != nil {
			t.Fatalf("parse error: %v", abs.ParseError)
		}
	}
	// Named graphs exist.
	if got := len(p.Store.Graphs()); got < 5 {
		t.Errorf("named graphs = %d", got)
	}
	// Verified reads edges point into the dataset graph.
	res, err := p.Query(`SELECT ?t WHERE { GRAPH ?g { ?s kglids:reads ?t . } }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Error("no verified dataset reads")
	}
}

func TestSimilarTablesByEmbedding(t *testing.T) {
	p, b := bootstrapSmall(t)
	df := b.Tables[0]
	hits := p.SimilarTablesByEmbedding(df, 3)
	if len(hits) == 0 {
		t.Fatal("no hits")
	}
	wantID := b.Dataset[df.Name] + "/" + df.Name
	if hits[0].ID != wantID {
		t.Errorf("top hit = %s, want the table itself %s", hits[0].ID, wantID)
	}
	if hits[0].Score < 0.99 {
		t.Errorf("self-similarity = %v", hits[0].Score)
	}
}

func TestTableIRIUnknown(t *testing.T) {
	p, _ := bootstrapSmall(t)
	if _, err := p.TableIRI("nope/none.csv"); err == nil {
		t.Error("unknown table should error")
	}
}

// TestTableNamesRejectSlash: a '/' in a dataset or table name would make
// the "dataset/table/column" IDs ambiguous, so both mutation entry points
// refuse it and leave the platform as it was.
func TestTableNamesRejectSlash(t *testing.T) {
	p, b := bootstrapSmall(t)
	before := p.Stats()
	src, err := p.OpenSource(srcURI)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ dataset, name string }{{"demo", "t/x"}, {"demo/t", "x"}} {
		df := b.Tables[0].Clone()
		df.Name = c.name
		if _, err := p.AddTables([]Table{{Dataset: c.dataset, Frame: df}}); err == nil {
			t.Errorf("AddTables(%s/%s) accepted a '/' in a name", c.dataset, c.name)
		}
		ref := connector.TableRef{Dataset: c.dataset, Table: c.name}
		if err := p.AddSourceTable(context.Background(), src, ref); err == nil {
			t.Errorf("AddSourceTable(%s/%s) accepted a '/' in a name", c.dataset, c.name)
		}
	}
	if after := p.Stats(); after != before {
		t.Errorf("a rejected table changed the platform: %+v, was %+v", after, before)
	}
}

// TestIngestEmbedCallsLinear pins, at the platform level, that repeated
// AddTables batches do not re-embed the whole label population: the
// persistent label cache makes total embedding work linear in distinct
// labels, not quadratic in ingests × profiles.
func TestIngestEmbedCallsLinear(t *testing.T) {
	p, b := bootstrapSmall(t)
	afterBootstrap := p.labels.EmbedCalls()
	if afterBootstrap == 0 {
		t.Fatal("bootstrap embedded no labels")
	}
	// Re-ingest copies of an existing table under new names: every label
	// is already cached, so embed calls must not move at all.
	src := b.Tables[0]
	for i := 0; i < 5; i++ {
		clone := src.Clone()
		clone.Name = fmt.Sprintf("copy_%d_%s", i, src.Name)
		if _, err := p.AddTables([]Table{{Dataset: "redeliver", Frame: clone}}); err != nil {
			t.Fatal(err)
		}
	}
	if got := p.labels.EmbedCalls(); got != afterBootstrap {
		t.Fatalf("embed calls grew %d -> %d across known-label ingests (quadratic re-embedding)",
			afterBootstrap, got)
	}
}

// TestAddTablesBlockedDeltaEquivalence forces every ingest delta down the
// candidate-pruned path (block size 1) and checks a batched AddTables
// sequence converges to the same edges, stats, and discovery results as a
// fresh Bootstrap over the full lake.
func TestAddTablesBlockedDeltaEquivalence(t *testing.T) {
	b := lakegen.Generate(lakegen.Spec{
		Name: "mini", Families: 4, TablesPerFamily: 3, NoiseTables: 4,
		RowsPerTable: 60, QueryTables: 4, Seed: 33,
	})
	var tables []Table
	for _, df := range b.Tables {
		tables = append(tables, Table{Dataset: b.Dataset[df.Name], Frame: df})
	}
	cfg := DefaultConfig()
	cfg.EdgeBlockSize = 1
	cfg.EdgeCandidates = 2

	fresh := Bootstrap(cfg, tables)
	incremental := Bootstrap(cfg, tables[:3])
	for i := 3; i < len(tables); i += 2 {
		hi := i + 2
		if hi > len(tables) {
			hi = len(tables)
		}
		if _, err := incremental.AddTables(tables[i:hi]); err != nil {
			t.Fatal(err)
		}
	}

	if fresh.Stats() != incremental.Stats() {
		t.Fatalf("stats diverge: fresh %+v, incremental %+v", fresh.Stats(), incremental.Stats())
	}
	fe, ie := fresh.EdgesView(), incremental.EdgesView()
	if len(fe) != len(ie) {
		t.Fatalf("edge counts diverge: fresh %d, incremental %d", len(fe), len(ie))
	}
	for i := range fe {
		if fe[i] != ie[i] {
			t.Fatalf("edge %d diverges: fresh %+v, incremental %+v", i, fe[i], ie[i])
		}
	}
}

// TestBootstrapOneWorkerMatchesDefault: Config.Workers reaches every stage
// that takes a width (profiler, schema builder, pipeline graph builder), and
// holding the platform to one worker — which also runs the embedding-index
// phase after the graph phase instead of beside it — changes nothing that
// can be observed: statistics, edges, dictionary, index insertion order,
// the HNSW graph and SPARQL rows.
func TestBootstrapOneWorkerMatchesDefault(t *testing.T) {
	b := lakegen.Generate(lakegen.Spec{
		Name: "mini", Families: 4, TablesPerFamily: 3, NoiseTables: 4,
		RowsPerTable: 60, QueryTables: 4, Seed: 31,
	})
	var tables []Table
	for _, df := range b.Tables {
		tables = append(tables, Table{Dataset: b.Dataset[df.Name], Frame: df})
	}
	df := b.Tables[0]
	ds := pipegen.FrameDataset(b.Dataset[df.Name], df, df.Columns()[0])
	scripts := scriptsOf(pipegen.Generate(pipegen.Options{NumPipelines: 6, Datasets: []pipegen.Dataset{ds}, Seed: 5}))
	serialCfg := DefaultConfig()
	serialCfg.Workers = 1
	serial, wide := Bootstrap(serialCfg, tables), Bootstrap(DefaultConfig(), tables)
	serial.AddPipelines(scripts)
	wide.AddPipelines(scripts)

	if serial.profiler.Workers != 1 || serial.newBuilder().Workers != 1 || serial.graphs.Workers != 1 {
		t.Errorf("Workers: 1 not honoured: profiler %d, schema builder %d, graph builder %d",
			serial.profiler.Workers, serial.newBuilder().Workers, serial.graphs.Workers)
	}
	if serial.Stats() != wide.Stats() {
		t.Errorf("Stats: %+v at one worker, %+v by default", serial.Stats(), wide.Stats())
	}
	if se, we := serial.EdgesView(), wide.EdgesView(); !reflect.DeepEqual(se, we) {
		t.Errorf("edges differ: %d at one worker, %d by default", len(se), len(we))
	}
	if !reflect.DeepEqual(serial.TableIndex.IDs(), wide.TableIndex.IDs()) {
		t.Error("embedding indexes were filled in a different order")
	}
	if !reflect.DeepEqual(serial.TableANN.Export(), wide.TableANN.Export()) {
		t.Error("HNSW graphs differ")
	}
	for _, q := range []string{
		`SELECT ?t ?n WHERE { ?t a kglids:Table ; kglids:name ?n . } ORDER BY ?t`,
		`SELECT ?a ?b WHERE { ?a kglids:contentSimilarity ?b . } ORDER BY ?a ?b`,
		`SELECT ?edge ?score WHERE { ?edge kglids:withCertainty ?score . }`,
		`SELECT ?p (COUNT(?s) AS ?n) WHERE { ?s ?p ?o . } GROUP BY ?p ORDER BY ?p`,
	} {
		one, err := serial.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		def, err := wide.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(one.Rows) == 0 || !reflect.DeepEqual(sortedRows(one), sortedRows(def)) {
			t.Errorf("%s: %d rows at one worker, %d by default, or they differ", q, len(one.Rows), len(def.Rows))
		}
	}
}

// TestDiscoveryNeverReturnsAbsentTable races UnionableTables,
// JoinableTables and GetPathToTable against a writer that removes and
// re-adds tables in a loop: no call may return a table that HasTable says
// was absent for the whole call. A per-table epoch, odd while a mutation
// of the table runs, tells a reader when that is so: the table's epoch did
// not move during the call, and either no mutation was running (then
// HasTable after the call is its state throughout) or a removal was
// running and HasTable was already false before the call. Meaningful under
// -race.
func TestDiscoveryNeverReturnsAbsentTable(t *testing.T) {
	p, b := bootstrapSmall(t)
	type churn struct {
		table  Table
		epoch  atomic.Int64
		adding atomic.Bool
	}
	byIRI := map[string]*churn{}
	var churned []*churn
	var iris []rdf.Term
	for i, df := range b.Tables {
		id := b.Dataset[df.Name] + "/" + df.Name
		iri := schema.TableIRI(id)
		iris = append(iris, iri)
		if i%3 == 0 {
			c := &churn{table: Table{Dataset: b.Dataset[df.Name], Frame: df}}
			byIRI[iri.Value] = c
			churned = append(churned, c)
		}
	}
	id := func(c *churn) string { return c.table.Dataset + "/" + c.table.Frame.Name }

	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for {
				select {
				case <-done:
					return
				default:
				}
				type seen struct {
					epoch          int64
					adding, before bool
				}
				snap := make(map[*churn]seen, len(churned))
				for _, c := range churned {
					s := seen{epoch: c.epoch.Load(), adding: c.adding.Load()}
					s.before = p.HasTable(id(c))
					snap[c] = s
				}
				check := func(call string, got rdf.Term) {
					c := byIRI[got.Value]
					if c == nil {
						return
					}
					s := snap[c]
					after := p.HasTable(id(c))
					if c.epoch.Load() != s.epoch {
						return // a mutation of the table began during the call
					}
					running := s.epoch%2 == 1
					if (!running && !after) || (running && !s.adding && !s.before) {
						t.Errorf("%s returned %s, absent throughout the call", call, id(c))
					}
				}
				q := iris[rng.Intn(len(iris))]
				for _, res := range p.Discovery.UnionableTables(q, 0) {
					check("UnionableTables", res.Table)
				}
				for _, res := range p.Discovery.JoinableTables(q, 0) {
					check("JoinableTables", res.Table)
				}
				for _, path := range p.Discovery.GetPathToTable(q, iris[rng.Intn(len(iris))], 2) {
					for _, tb := range path.Tables[1:] {
						check("GetPathToTable", tb)
					}
				}
			}
		}(r)
	}

	mutate := func(c *churn, adding bool, f func() error) {
		c.adding.Store(adding)
		c.epoch.Add(1)
		defer c.epoch.Add(1)
		if err := f(); err != nil {
			t.Error(err)
		}
	}
	for round := 0; round < 6; round++ {
		for _, c := range churned {
			mutate(c, false, func() error { return p.RemoveTable(id(c)) })
			mutate(c, true, func() error { _, err := p.AddTables([]Table{c.table}); return err })
		}
		// An update is a removal and an addition under one ingest lock.
		mutate(churned[round%len(churned)], true, func() error {
			_, err := p.AddTables([]Table{churned[round%len(churned)].table})
			return err
		})
	}
	close(done)
	wg.Wait()
}

// sortedRows renders a result's rows, sorted, so that two results compare
// equal whatever order unordered rows came back in.
func sortedRows(res *sparql.Result) []string {
	rows := make([]string, len(res.Rows))
	for i := range res.Rows {
		for _, v := range res.Vars {
			rows[i] += res.Get(i, v).String() + "\t"
		}
	}
	sort.Strings(rows)
	return rows
}

// BenchmarkAddTables_ResidentEdges adds, and then updates, one family table
// on lakes of ≈5 k and ≈40 k resident edges. A job's ns/op and B/op should
// follow delta-edges/op (the table meets more similar columns in the larger
// lake), not the eightfold count of resident edges.
func BenchmarkAddTables_ResidentEdges(b *testing.B) {
	for _, families := range []int{10, 28} {
		gen := lakegen.Generate(lakegen.Spec{
			Name: "resident", Families: families, TablesPerFamily: 8, NoiseTables: families,
			RowsPerTable: 60, Seed: 104,
		})
		var tables []Table
		for _, df := range gen.Tables {
			tables = append(tables, Table{Dataset: gen.Dataset[df.Name], Frame: df})
		}
		held, id := tables[:1], tables[0].Dataset+"/"+tables[0].Frame.Name
		p := Bootstrap(DefaultConfig(), tables[1:])
		resident := p.Stats().SimilarityEdges

		run := func(kind string, after func()) {
			b.Run(fmt.Sprintf("resident=%d/%s", resident, kind), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := p.AddTables(held); err != nil {
						b.Fatal(err)
					}
					b.StopTimer()
					b.ReportMetric(float64(p.Stats().SimilarityEdges-resident), "delta-edges/op")
					after()
					b.StartTimer()
				}
			})
		}
		run("add", func() {
			if err := p.RemoveTable(id); err != nil {
				b.Fatal(err)
			}
		})
		if _, err := p.AddTables(held); err != nil {
			b.Fatal(err)
		}
		run("update", func() {})
	}
}
