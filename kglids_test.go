package kglids

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"kglids/internal/cleaning"
	"kglids/internal/dataframe"
	"kglids/internal/lakegen"
	"kglids/internal/pipegen"
	"kglids/internal/profiler"
	"kglids/internal/transform"
)

// bootstrapFixture builds a small platform with a lake and a pipeline
// corpus, shared by the public-API tests.
func bootstrapFixture(t testing.TB) (*Platform, *lakegen.Benchmark) {
	t.Helper()
	lake := lakegen.Generate(lakegen.Spec{
		Name: "api", Families: 4, TablesPerFamily: 3, NoiseTables: 3,
		RowsPerTable: 60, QueryTables: 4, Seed: 91,
	})
	var tables []Table
	for _, df := range lake.Tables {
		tables = append(tables, Table{Dataset: lake.Dataset[df.Name], Frame: df})
	}
	// The fixture tables are tiny (60 rows), so use a recall-oriented
	// content threshold (paper §3.3: "lower similarity thresholds might be
	// used when high recall is desirable").
	plat := Bootstrap(Options{Theta: 0.70}, tables)
	// Pipelines over the first two tables.
	var datasets []pipegen.Dataset
	for _, df := range lake.Tables[:2] {
		datasets = append(datasets, pipegen.FrameDataset(lake.Dataset[df.Name], df, df.Columns()[0]))
	}
	corpus := pipegen.Generate(pipegen.Options{NumPipelines: 20, Datasets: datasets, Seed: 92})
	scripts := make([]Script, len(corpus))
	for i, g := range corpus {
		scripts[i] = g.Script
	}
	plat.AddPipelines(scripts)
	return plat, lake
}

func TestBootstrapAndStats(t *testing.T) {
	plat, lake := bootstrapFixture(t)
	stats := plat.Stats()
	if stats.Tables != len(lake.Tables) || stats.Triples == 0 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats.NamedGraphs < 20 {
		t.Errorf("named graphs = %d, want >= 20 pipelines", stats.NamedGraphs)
	}
}

func TestSearchAndUnionableFlow(t *testing.T) {
	plat, lake := bootstrapFixture(t)
	// The Section 5 walkthrough: search, then unionable columns.
	q := lake.QueryTables[0]
	hits := plat.SearchKeywords([][]string{{strings.TrimSuffix(q, ".csv")}})
	if len(hits) == 0 {
		t.Fatal("keyword search found nothing")
	}
	results, err := plat.UnionableTables(lake.Dataset[q]+"/"+q, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) == 0 {
		t.Fatal("no unionable tables")
	}
	cols := plat.FindUnionableColumns(TableResult{Table: hits[0].Table}, results[0])
	if len(cols) == 0 {
		t.Error("no unionable columns between query and top hit")
	}
	// A join path requires content-similar columns; family members share
	// raw values, so at least one unionable hit must be reachable.
	found := false
	for _, r := range results {
		if len(plat.GetPathToTable(TableResult{Table: hits[0].Table}, r, 2)) > 0 {
			found = true
			break
		}
	}
	if !found {
		t.Error("no join path to any unionable table")
	}
}

func TestLibraryAPIs(t *testing.T) {
	plat, _ := bootstrapFixture(t)
	top, err := plat.GetTopKLibrariesUsed(10)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) == 0 || top[0].Library != "pandas" {
		t.Fatalf("top libraries = %+v", top)
	}
	byTask, err := plat.GetTopUsedLibraries(5, "classification")
	if err != nil {
		t.Fatal(err)
	}
	if len(byTask) == 0 {
		t.Error("task-filtered libraries empty")
	}
	hits := plat.GetPipelinesCallingLibraries("pandas.read_csv", "sklearn.model_selection.train_test_split")
	if len(hits) == 0 {
		t.Error("no pipelines matched the conjunctive call query")
	}
}

func TestAdHocQuery(t *testing.T) {
	plat, _ := bootstrapFixture(t)
	res, err := plat.Query(`SELECT (COUNT(?t) AS ?n) WHERE { ?t a kglids:Table . }`)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := res.Rows[0]["n"].AsInt(); n == 0 {
		t.Error("SPARQL count = 0")
	}
}

func nullDF() *DataFrame {
	df := dataframe.New("api_clean")
	s := &dataframe.Series{Name: "v"}
	for i, raw := range []string{"1", "", "3", "4", "", "6", "7", "8"} {
		_ = i
		s.Cells = append(s.Cells, dataframe.ParseCell(raw))
	}
	df.AddColumn(s)
	y := &dataframe.Series{Name: "target"}
	for i := 0; i < 8; i++ {
		y.Cells = append(y.Cells, dataframe.NumberCell(float64(i%2)))
	}
	df.AddColumn(y)
	return df
}

func trainedPlatform(t testing.TB) *Platform {
	plat, _ := bootstrapFixture(t)
	p := profiler.New()
	var cexamples []cleaning.Example
	var sexamples []transform.ScalerExample
	var uexamples []transform.UnaryExample
	for i := 0; i < 12; i++ {
		task := lakegen.GenerateTask(lakegen.TaskSpec{
			ID: 700 + i, Name: "t", Rows: 80, NumFeatures: 3, Classes: 2,
			NullRate: 0.1, Seed: int64(93 + i),
		})
		cexamples = append(cexamples, cleaning.Example{
			Embedding: cleaning.MissingValueEmbedding(p, task.Frame),
			Op:        cleaning.Ops[i%len(cleaning.Ops)],
		})
		sexamples = append(sexamples, transform.ScalerExample{
			Embedding: p.TableEmbedding(task.Frame),
			Op:        transform.Scalers[i%len(transform.Scalers)],
		})
		_, emb := p.EmbedColumn(task.Frame.ColumnAt(0))
		uexamples = append(uexamples, transform.UnaryExample{
			Embedding: emb,
			Op:        transform.Unaries[i%len(transform.Unaries)],
		})
	}
	plat.TrainCleaningModel(cexamples)
	plat.TrainTransformModels(sexamples, uexamples)
	return plat
}

func TestCleaningAPIs(t *testing.T) {
	plat := trainedPlatform(t)
	df := nullDF()
	recs := plat.RecommendCleaningOperations(df)
	if len(recs) != 5 {
		t.Fatalf("recommendations = %d", len(recs))
	}
	cleaned, err := plat.ApplyCleaningOperations(recs[0].Op, df)
	if err != nil {
		t.Fatal(err)
	}
	if cleaned.NullCount() != 0 {
		t.Error("nulls remain after recommended op")
	}
}

func TestTransformationAPIs(t *testing.T) {
	plat := trainedPlatform(t)
	df := nullDF()
	scalers, unaries := plat.RecommendTransformations(df, "target")
	if len(scalers) != 3 {
		t.Fatalf("scaler recs = %d", len(scalers))
	}
	if len(unaries) == 0 {
		t.Error("no unary recommendations")
	}
	out, err := plat.ApplyTransformations(df, "target")
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != df.NumRows() {
		t.Error("transform changed row count")
	}
}

func TestUntrainedRecommendersReturnNil(t *testing.T) {
	plat, _ := bootstrapFixture(t)
	if plat.RecommendCleaningOperations(nullDF()) != nil {
		t.Error("untrained cleaning recommender should return nil")
	}
	s, u := plat.RecommendTransformations(nullDF(), "target")
	if s != nil || u != nil {
		t.Error("untrained transform recommender should return nil")
	}
	if plat.RecommendMLModels(nullDF()) != nil {
		t.Error("untrained automl should return nil")
	}
}

func TestAutoMLAPIs(t *testing.T) {
	plat, _ := bootstrapFixture(t)
	plat.TrainAutoML(true)
	task := lakegen.GenerateTask(lakegen.TaskSpec{
		ID: 800, Name: "api_automl", Rows: 250, NumFeatures: 5, Classes: 2, Seed: 95,
	})
	models := plat.RecommendMLModels(task.Frame)
	if len(models) == 0 {
		t.Fatal("no model recommendations")
	}
	params := plat.RecommendHyperparameters(task.Frame, models[0].Classifier)
	if params == nil {
		t.Log("no hyperparameters mined for top model (acceptable for sparse corpus)")
	}
	res, err := plat.AutoML(task.Frame, "target", 200*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if res.F1 <= 0 || res.Trials == 0 {
		t.Errorf("automl result = %+v", res)
	}
}

func TestSaveOpenRoundTrip(t *testing.T) {
	plat, lake := bootstrapFixture(t)
	path := filepath.Join(t.TempDir(), "plat.kgs")
	if err := plat.Save(path); err != nil {
		t.Fatal(err)
	}
	restored, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := restored.Stats(), plat.Stats(); got != want {
		t.Fatalf("stats after reload:\n got %+v\nwant %+v", got, want)
	}
	q := lake.QueryTables[0]
	want, err := plat.UnionableTables(lake.Dataset[q]+"/"+q, 10)
	if err != nil {
		t.Fatal(err)
	}
	got, err := restored.UnionableTables(lake.Dataset[q]+"/"+q, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("unionable top-k after reload:\n got %v\nwant %v", got, want)
	}
	if !reflect.DeepEqual(
		restored.SearchKeywords([][]string{{strings.TrimSuffix(q, ".csv")}}),
		plat.SearchKeywords([][]string{{strings.TrimSuffix(q, ".csv")}}),
	) {
		t.Fatal("keyword search differs after reload")
	}
	// Pipelines were persisted as scripts: library discovery still works.
	top, err := restored.GetTopKLibrariesUsed(5)
	if err != nil || len(top) == 0 {
		t.Fatalf("libraries after reload = %v, %v", top, err)
	}
}

func TestSnapshotLoadFasterThanBootstrap(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison")
	}
	lake := lakegen.Generate(lakegen.Spec{
		Name: "speed", Families: 6, TablesPerFamily: 4, NoiseTables: 8,
		RowsPerTable: 1000, QueryTables: 5, Seed: 96,
	})
	var tables []Table
	for _, df := range lake.Tables {
		tables = append(tables, Table{Dataset: lake.Dataset[df.Name], Frame: df})
	}
	start := time.Now()
	plat := Bootstrap(Options{}, tables)
	bootstrap := time.Since(start)
	path := filepath.Join(t.TempDir(), "plat.kgs")
	if err := plat.Save(path); err != nil {
		t.Fatal(err)
	}
	start = time.Now()
	if _, err := Open(path); err != nil {
		t.Fatal(err)
	}
	load := time.Since(start)
	// Measured ~20x on this lake; assert a conservative 4x so loaded CI
	// machines don't flake.
	if load*4 > bootstrap {
		t.Errorf("snapshot load %v not significantly faster than bootstrap %v", load, bootstrap)
	}
	t.Logf("bootstrap %v, load %v (%.1fx)", bootstrap, load, float64(bootstrap)/float64(load))
}

func TestSimilarTables(t *testing.T) {
	plat, lake := bootstrapFixture(t)
	hits := plat.SimilarTables(lake.Tables[0], 3)
	if len(hits) == 0 {
		t.Fatal("no similar tables")
	}
	if hits[0].Score < 0.99 {
		t.Errorf("self similarity = %v", hits[0].Score)
	}
}
