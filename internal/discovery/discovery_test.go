package discovery

import (
	"fmt"
	"reflect"
	"testing"

	"kglids/internal/dataframe"
	"kglids/internal/pipeline"
	"kglids/internal/profiler"
	"kglids/internal/rdf"
	"kglids/internal/schema"
	"kglids/internal/store"
)

// fixture builds a store with three tables: A and B unionable (label +
// content), B and C joinable (content only), A and C unrelated.
func fixture(t *testing.T) (*store.Store, map[string]rdf.Term) {
	t.Helper()
	st := store.New()
	p := profiler.New()
	mk := func(dataset, table string, cols map[string][]string, order []string) {
		df := dataframe.New(table)
		for _, name := range order {
			s := &dataframe.Series{Name: name}
			for _, v := range cols[name] {
				s.Cells = append(s.Cells, dataframe.ParseCell(v))
			}
			df.AddColumn(s)
		}
		profiles := p.ProfileTable(dataset, df)
		b := schema.NewBuilder()
		_ = b
		allProfiles = append(allProfiles, profiles...)
	}
	allProfiles = nil
	cities := []string{"Montreal", "Toronto", "Vancouver", "Ottawa", "Calgary", "Boston", "Chicago", "Seattle"}
	mk("heartds", "heart_disease_patients.csv", map[string][]string{
		"gender": {"male", "female", "male", "male", "female", "male", "female", "male"},
		"age":    {"63", "37", "41", "56", "57", "44", "52", "57"},
		"city":   cities,
	}, []string{"gender", "age", "city"})
	mk("failure", "heart_failure_clinical.csv", map[string][]string{
		"sex":  {"male", "female", "male", "female", "male", "male", "female", "male"},
		"age":  {"60", "42", "45", "50", "61", "48", "55", "52"},
		"town": cities,
	}, []string{"sex", "age", "town"})
	mk("geo", "city_population.csv", map[string][]string{
		"location":  cities,
		"residents": {"1704694", "2731571", "631486", "934243", "1239220", "675647", "2746388", "737015"},
	}, []string{"location", "residents"})
	st.AddBatch(schema.MetadataQuads(allProfiles))
	st.AddBatch(schema.EdgeQuads(schema.NewBuilder().SimilarityEdges(allProfiles)))
	tables := map[string]rdf.Term{
		"A": schema.TableIRI("heartds/heart_disease_patients.csv"),
		"B": schema.TableIRI("failure/heart_failure_clinical.csv"),
		"C": schema.TableIRI("geo/city_population.csv"),
	}
	return st, tables
}

var allProfiles []*profiler.ColumnProfile

func TestSearchKeywords(t *testing.T) {
	st, _ := fixture(t)
	e := New(st, storeAdjacency{st})
	// Conjunctive: heart AND disease.
	res := e.SearchKeywords([][]string{{"heart", "disease"}})
	if len(res) != 1 || res[0].Name != "heart_disease_patients.csv" {
		t.Fatalf("conjunctive search = %+v", res)
	}
	// Disjunctive: (heart AND disease) OR population.
	res = e.SearchKeywords([][]string{{"heart", "disease"}, {"population"}})
	if len(res) != 2 {
		t.Fatalf("disjunctive search = %+v", res)
	}
	// Column-name match.
	res = e.SearchKeywords([][]string{{"residents"}})
	if len(res) != 1 || res[0].Name != "city_population.csv" {
		t.Errorf("column search = %+v", res)
	}
	if got := e.SearchKeywords([][]string{{"zzzznope"}}); len(got) != 0 {
		t.Errorf("no-match search = %+v", got)
	}
}

func TestUnionableTables(t *testing.T) {
	st, tables := fixture(t)
	e := New(st, storeAdjacency{st})
	res := e.UnionableTables(tables["A"], 5)
	if len(res) == 0 {
		t.Fatal("no unionable results")
	}
	if !res[0].Table.Equal(tables["B"]) {
		t.Errorf("top unionable = %v, want B", res[0].Table)
	}
	// C should rank below B for A (only the city column matches).
	for i, r := range res {
		if r.Table.Equal(tables["C"]) && i == 0 {
			t.Error("C ranked above B")
		}
	}
}

func TestFindUnionableColumns(t *testing.T) {
	st, tables := fixture(t)
	e := New(st, storeAdjacency{st})
	matches := e.FindUnionableColumns(tables["A"], tables["B"])
	if len(matches) == 0 {
		t.Fatal("no column matches")
	}
	pairs := map[string]string{}
	for _, m := range matches {
		pairs[m.AName] = m.BName
	}
	if pairs["gender"] != "sex" {
		t.Errorf("gender match = %q", pairs["gender"])
	}
	if pairs["age"] != "age" {
		t.Errorf("age match = %q", pairs["age"])
	}
	for _, m := range matches {
		if m.Score <= 0 || m.Score > 1.0001 {
			t.Errorf("match score = %v", m.Score)
		}
	}
}

func TestJoinPath(t *testing.T) {
	st, tables := fixture(t)
	e := New(st, storeAdjacency{st})
	// A and C share the city column (content similar) → direct join path.
	paths := e.GetPathToTable(tables["A"], tables["C"], 2)
	if len(paths) == 0 {
		t.Fatal("no join path found")
	}
	if len(paths[0].Tables) != 2 {
		t.Errorf("shortest path length = %d tables", len(paths[0].Tables))
	}
	if !paths[0].Tables[0].Equal(tables["A"]) || !paths[0].Tables[1].Equal(tables["C"]) {
		t.Error("path endpoints wrong")
	}
}

func TestLibraryDiscovery(t *testing.T) {
	st, _ := fixture(t)
	// Add two pipelines calling different libraries.
	a := pipeline.NewAbstractor()
	g := pipeline.NewGraphBuilder(nil)
	src1 := "import pandas as pd\nfrom sklearn.ensemble import RandomForestClassifier\ndf = pd.read_csv('x.csv')\nclf = RandomForestClassifier(50)\nclf.fit(df, df)\n"
	src2 := "import pandas as pd\ndf = pd.read_csv('y.csv')\n"
	abs1 := a.Abstract(pipeline.Script{ID: "p1", Source: src1, Meta: pipeline.Metadata{Votes: 10, Task: "classification"}})
	abs2 := a.Abstract(pipeline.Script{ID: "p2", Source: src2, Meta: pipeline.Metadata{Votes: 99, Task: "classification"}})
	g.BuildGraph(st, abs1)
	g.BuildGraph(st, abs2)

	e := New(st, storeAdjacency{st})
	top, err := e.TopKLibraries(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) == 0 || top[0].Library != "pandas" || top[0].Pipelines != 2 {
		t.Fatalf("top libraries = %+v", top)
	}
	byTask, err := e.TopUsedLibrariesForTask(5, "classification")
	if err != nil {
		t.Fatal(err)
	}
	if len(byTask) == 0 {
		t.Error("task-filtered libraries empty")
	}
	hits := e.PipelinesCallingLibraries("pandas.read_csv")
	if len(hits) != 2 {
		t.Fatalf("pipelines calling read_csv = %d", len(hits))
	}
	if hits[0].Votes != 99 {
		t.Errorf("hits not sorted by votes: %+v", hits)
	}
	hits = e.PipelinesCallingLibraries("pandas.read_csv", "sklearn.ensemble.RandomForestClassifier")
	if len(hits) != 1 {
		t.Fatalf("conjunctive pipeline query = %d", len(hits))
	}
	if got := e.PipelinesCallingLibraries(); got != nil {
		t.Error("empty query should return nil")
	}
}

func TestAdHocSPARQL(t *testing.T) {
	st, _ := fixture(t)
	e := New(st, storeAdjacency{st})
	res, err := e.SPARQL(`SELECT (COUNT(?c) AS ?n) WHERE { ?c a kglids:Column . }`)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := res.Rows[0]["n"].AsInt(); n != 8 {
		t.Errorf("columns = %d", n)
	}
}

// pathFixture builds a store whose join graph is exactly the given edges:
// each edge links a dedicated content-similar column pair between two
// tables with the given certainty score.
func pathFixture(t *testing.T, edges []struct {
	a, b  string
	score float64
}) (*store.Store, func(name string) rdf.Term) {
	t.Helper()
	st := store.New()
	seenCols := map[string]int{}
	var simEdges []schema.Edge
	var quads []rdf.Quad
	col := func(table string) string {
		seenCols[table]++
		id := fmt.Sprintf("d/%s/c%d", table, seenCols[table])
		quads = append(quads,
			rdf.Quad{Triple: rdf.T(schema.TableIRI("d/"+table), rdf.PropHasColumn, schema.ColumnIRI(id)), Graph: rdf.DefaultGraph},
			rdf.Quad{Triple: rdf.T(schema.ColumnIRI(id), rdf.PropIsPartOf, schema.TableIRI("d/"+table)), Graph: rdf.DefaultGraph},
		)
		return id
	}
	for _, e := range edges {
		simEdges = append(simEdges, schema.Edge{A: col(e.a), B: col(e.b), Kind: "ContentSimilarity", Score: e.score})
	}
	st.AddBatch(quads)
	st.AddBatch(schema.EdgeQuads(simEdges))
	return st, func(name string) rdf.Term { return schema.TableIRI("d/" + name) }
}

// TestJoinPathHopBound pins the maxHops semantics: a returned path has at
// most maxHops hops (join edges). Regression for the target-append branch
// that skipped the hop budget and returned maxHops+1-hop paths.
func TestJoinPathHopBound(t *testing.T) {
	// 3-hop chain A - B - C - D.
	st, iri := pathFixture(t, []struct {
		a, b  string
		score float64
	}{
		{"A", "B", 0.9}, {"B", "C", 0.9}, {"C", "D", 0.9},
	})
	e := New(st, storeAdjacency{st})
	for _, maxHops := range []int{1, 2} {
		if paths := e.GetPathToTable(iri("A"), iri("D"), maxHops); len(paths) != 0 {
			t.Errorf("maxHops=%d: 3-hop chain returned %d paths (first has %d tables), want none",
				maxHops, len(paths), len(paths[0].Tables))
		}
	}
	paths := e.GetPathToTable(iri("A"), iri("D"), 3)
	if len(paths) != 1 || len(paths[0].Tables) != 4 {
		t.Fatalf("maxHops=3: paths = %+v, want one 4-table path", paths)
	}
	// The direct hop still works at the tightest budget.
	if paths := e.GetPathToTable(iri("A"), iri("B"), 1); len(paths) != 1 || len(paths[0].Tables) != 2 {
		t.Fatalf("maxHops=1 direct: paths = %+v", paths)
	}
	// Every returned path respects the budget at any setting.
	for maxHops := 1; maxHops <= 5; maxHops++ {
		for _, p := range e.GetPathToTable(iri("A"), iri("D"), maxHops) {
			if len(p.Tables)-1 > maxHops {
				t.Errorf("maxHops=%d returned %d-hop path %v", maxHops, len(p.Tables)-1, p.Tables)
			}
		}
	}
}

// TestJoinPathSharedHub pins the per-path visited semantics: alternate
// routes through a shared hub table are all returned (the global visited
// map used to drop every route after the first), and equal-length paths
// order by score.
func TestJoinPathSharedHub(t *testing.T) {
	// A - H - C (via the hub), A - B - H - C (longer route through the
	// same hub), and A - G - C (parallel hub with higher scores).
	st, iri := pathFixture(t, []struct {
		a, b  string
		score float64
	}{
		{"A", "H", 0.8}, {"H", "C", 0.8},
		{"A", "B", 0.8}, {"B", "H", 0.8},
		{"A", "G", 0.99}, {"G", "C", 0.99},
	})
	e := New(st, storeAdjacency{st})
	paths := e.GetPathToTable(iri("A"), iri("C"), 3)
	var got [][]string
	for _, p := range paths {
		var names []string
		for _, tb := range p.Tables {
			names = append(names, tb.Local())
		}
		got = append(got, names)
	}
	if len(paths) != 3 {
		t.Fatalf("paths = %v, want 3 (two hubs + the long route through H)", got)
	}
	// Two 2-hop paths first, the better-scoring hub G leading.
	if len(paths[0].Tables) != 3 || len(paths[1].Tables) != 3 || len(paths[2].Tables) != 4 {
		t.Fatalf("path lengths wrong: %v", got)
	}
	if !paths[0].Tables[1].Equal(iri("G")) {
		t.Errorf("higher-score hub not first: %v", got)
	}
	if !paths[1].Tables[1].Equal(iri("H")) {
		t.Errorf("shared hub route missing from 2-hop paths: %v", got)
	}
	if !paths[2].Tables[1].Equal(iri("B")) || !paths[2].Tables[2].Equal(iri("H")) {
		t.Errorf("alternate route through shared hub dropped: %v", got)
	}
	// No table repeats within any single path.
	for _, p := range paths {
		seen := map[string]bool{}
		for _, tb := range p.Tables {
			if seen[tb.Key()] {
				t.Errorf("cycle within path: %v", got)
			}
			seen[tb.Key()] = true
		}
	}
}

// TestJoinPathDenseGraphBounded pins the enumeration caps: a clique of
// mutually joinable tables has exponentially many simple paths, and
// GetPathToTable must return a bounded, length-ordered subset instead of
// hanging.
func TestJoinPathDenseGraphBounded(t *testing.T) {
	var edges []struct {
		a, b  string
		score float64
	}
	names := make([]string, 12)
	for i := range names {
		names[i] = fmt.Sprintf("T%02d", i)
	}
	for i := 0; i < len(names); i++ {
		for j := i + 1; j < len(names); j++ {
			edges = append(edges, struct {
				a, b  string
				score float64
			}{names[i], names[j], 0.9})
		}
	}
	st, iri := pathFixture(t, edges)
	e := New(st, storeAdjacency{st})
	paths := e.GetPathToTable(iri("T00"), iri("T11"), 6)
	if len(paths) == 0 || len(paths) > maxJoinPaths {
		t.Fatalf("paths = %d, want within (0, %d]", len(paths), maxJoinPaths)
	}
	// Breadth-first truncation keeps the shortest paths: the direct hop
	// must lead.
	if len(paths[0].Tables) != 2 {
		t.Errorf("first path has %d tables, want the direct join", len(paths[0].Tables))
	}
	for i := 1; i < len(paths); i++ {
		if len(paths[i].Tables) < len(paths[i-1].Tables) {
			t.Fatalf("paths not length-ordered at %d", i)
		}
	}
}

// TestTopUsedLibrariesForTaskQuotesTask: a task holding a quote, a
// backslash or a control character is matched literally. Each task returns
// exactly the libraries of its own pipeline, as TopKLibraries counts them
// over a store holding that pipeline alone.
func TestTopUsedLibrariesForTaskQuotesTask(t *testing.T) {
	scripts := []pipeline.Script{
		{ID: "p1", Source: "import pandas as pd\ndf = pd.read_csv('a.csv')\n", Meta: pipeline.Metadata{Task: `say "hi"`}},
		{ID: "p2", Source: "import numpy as np\nx = np.zeros(3)\n", Meta: pipeline.Metadata{Task: `C:\x`}},
		{ID: "p3", Source: "from sklearn.ensemble import RandomForestClassifier\nclf = RandomForestClassifier(50)\n", Meta: pipeline.Metadata{Task: "C:x"}},
		{ID: "p4", Source: "import matplotlib.pyplot as plt\nplt.plot([1])\n", Meta: pipeline.Metadata{Task: `nope" . } } #`}},
		{ID: "p5", Source: "import json\ncfg = json.loads('{}')\n", Meta: pipeline.Metadata{Task: "tab\there\nand a line"}},
	}
	build := func(scripts ...pipeline.Script) *Engine {
		st := store.New()
		a, g := pipeline.NewAbstractor(), pipeline.NewGraphBuilder(nil)
		for _, s := range scripts {
			g.BuildGraph(st, a.Abstract(s))
		}
		return New(st, storeAdjacency{st})
	}
	all := build(scripts...)
	for _, s := range scripts {
		want, err := build(s).TopKLibraries(0)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) == 0 {
			t.Fatalf("pipeline %s calls no library", s.ID)
		}
		got, err := all.TopUsedLibrariesForTask(0, s.Meta.Task)
		if err != nil {
			t.Fatalf("task %q: %v", s.Meta.Task, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("task %q: libraries %+v, want %+v", s.Meta.Task, got, want)
		}
	}
}
