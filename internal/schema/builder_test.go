package schema

import (
	"fmt"
	"testing"

	"kglids/internal/dataframe"
	"kglids/internal/profiler"
	"kglids/internal/rdf"
	"kglids/internal/sparql"
	"kglids/internal/store"
)

// fixtureProfiles builds profiles for two small tables with an obviously
// unionable pair of columns.
func fixtureProfiles(t *testing.T) []*profiler.ColumnProfile {
	t.Helper()
	p := profiler.New()
	mk := func(dataset, table string, cols map[string][]string, order []string) []*profiler.ColumnProfile {
		df := dataframe.New(table)
		for _, name := range order {
			s := &dataframe.Series{Name: name}
			for _, v := range cols[name] {
				s.Cells = append(s.Cells, dataframe.ParseCell(v))
			}
			df.AddColumn(s)
		}
		return p.ProfileTable(dataset, df)
	}
	cities := []string{"Montreal", "Toronto", "Vancouver", "Ottawa", "Calgary", "Montreal", "Toronto", "Ottawa"}
	profiles := mk("titanic", "train.csv", map[string][]string{
		"Sex":      {"male", "female", "male", "male", "female", "female", "male", "female"},
		"Age":      {"22", "38", "26", "35", "35", "54", "2", "27"},
		"City":     cities,
		"Survived": {"0", "1", "1", "1", "0", "0", "0", "1"},
	}, []string{"Sex", "Age", "City", "Survived"})
	profiles = append(profiles, mk("heart", "heart.csv", map[string][]string{
		"gender": {"male", "female", "male", "female", "male", "male", "female", "male"},
		"age":    {"63", "37", "41", "56", "57", "44", "52", "57"},
		"city":   cities,
		"target": {"1", "1", "1", "0", "0", "0", "1", "1"},
	}, []string{"gender", "age", "city", "target"})...)
	return profiles
}

func edgeSet(edges []Edge) map[string]bool {
	out := map[string]bool{}
	for _, e := range edges {
		out[e.A+"|"+e.B+"|"+e.Kind] = true
		out[e.B+"|"+e.A+"|"+e.Kind] = true
	}
	return out
}

func TestSimilarityEdges(t *testing.T) {
	b := NewBuilder()
	edges := b.SimilarityEdges(fixtureProfiles(t))
	set := edgeSet(edges)
	if !set["titanic/train.csv/Sex|heart/heart.csv/gender|LabelSimilarity"] {
		t.Error("Sex~gender label edge missing")
	}
	if !set["titanic/train.csv/Age|heart/heart.csv/age|LabelSimilarity"] {
		t.Error("Age~age label edge missing")
	}
	if !set["titanic/train.csv/City|heart/heart.csv/city|ContentSimilarity"] {
		t.Error("City~city content edge missing (identical values)")
	}
	if !set["titanic/train.csv/Sex|heart/heart.csv/gender|ContentSimilarity"] {
		t.Error("Sex~gender content edge missing (same value domain)")
	}
	// No edge between different-type columns (Age int vs Sex named_entity
	// never compared).
	if set["titanic/train.csv/Age|heart/heart.csv/gender|ContentSimilarity"] {
		t.Error("cross-type edge should not exist")
	}
	// Intra-table pairs excluded.
	for _, e := range edges {
		if e.A[:7] == e.B[:7] && e.A[:14] == e.B[:14] {
			// same table prefix "titanic/train."
			t.Errorf("intra-table edge %v", e)
		}
	}
}

// profileColumn profiles s as the one column of table.
func profileColumn(p *profiler.Profiler, dataset, table string, s *dataframe.Series) *profiler.ColumnProfile {
	df := dataframe.New(table)
	df.AddColumn(s)
	return p.ProfileTable(dataset, df)[0]
}

func TestBooleanTrueRatioEdge(t *testing.T) {
	b := NewBuilder()
	p := profiler.New()
	mk := func(ds, tbl, col string, vals ...string) *profiler.ColumnProfile {
		s := &dataframe.Series{Name: col}
		for _, v := range vals {
			s.Cells = append(s.Cells, dataframe.ParseCell(v))
		}
		return profileColumn(p, ds, tbl, s)
	}
	a := mk("d1", "t1.csv", "active", "1", "1", "1", "0") // ratio 0.75
	c := mk("d2", "t2.csv", "flag", "1", "1", "0", "1")   // ratio 0.75
	d := mk("d3", "t3.csv", "rare", "0", "0", "0", "1")   // ratio 0.25
	edges := b.SimilarityEdges([]*profiler.ColumnProfile{a, c, d})
	set := edgeSet(edges)
	if !set["d1/t1.csv/active|d2/t2.csv/flag|ContentSimilarity"] {
		t.Error("matching true-ratio edge missing")
	}
	if set["d1/t1.csv/active|d3/t3.csv/rare|ContentSimilarity"] {
		t.Error("mismatched true-ratio edge should be filtered (diff 0.5 < beta)")
	}
}

func TestThresholdsControlRecall(t *testing.T) {
	profiles := fixtureProfiles(t)
	strict := NewBuilder()
	strict.Thresholds = Thresholds{Alpha: 0.999, Beta: 0.999, Theta: 0.999}
	loose := NewBuilder()
	loose.Thresholds = Thresholds{Alpha: 0.3, Beta: 0.5, Theta: 0.3}
	ns, nl := len(strict.SimilarityEdges(profiles)), len(loose.SimilarityEdges(profiles))
	if ns >= nl {
		t.Errorf("strict thresholds produced %d edges, loose %d; want fewer", ns, nl)
	}
}

func TestSkipLabels(t *testing.T) {
	b := NewBuilder()
	b.SkipLabels = true
	for _, e := range b.SimilarityEdges(fixtureProfiles(t)) {
		if e.Kind == "LabelSimilarity" {
			t.Fatal("label edge produced with SkipLabels")
		}
	}
}

func TestBuildGraph(t *testing.T) {
	st := store.New()
	b := NewBuilder()
	profiles := fixtureProfiles(t)
	st.AddBatch(MetadataQuads(profiles))
	edges := b.SimilarityEdges(profiles)
	st.AddBatch(EdgeQuads(edges))
	if len(edges) == 0 {
		t.Fatal("no edges")
	}
	eng := sparql.NewEngine(st)
	res, err := eng.Query(`SELECT (COUNT(?c) AS ?n) WHERE { ?c a kglids:Column . }`)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := res.Rows[0]["n"].AsInt(); n != 8 {
		t.Errorf("columns in graph = %d, want 8", n)
	}
	res, err = eng.Query(`SELECT ?t WHERE { ?t a kglids:Table ; kglids:isPartOf ?d . ?d a kglids:Dataset . }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Errorf("tables = %d", len(res.Rows))
	}
	// Similarity edges are queryable and annotated.
	res, err = eng.Query(`SELECT ?a ?b WHERE { ?a kglids:contentSimilarity ?b . }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("no content similarity edges in graph")
	}
	tr := rdf.T(res.Rows[0]["a"], rdf.PropContentSimilarity, res.Rows[0]["b"])
	if _, ok := st.Annotation(tr, rdf.PropCertainty); !ok {
		t.Error("content edge lacks certainty annotation")
	}
}

func TestLinker(t *testing.T) {
	profiles := fixtureProfiles(t)
	l := NewLinker(profiles)
	cases := []struct {
		path string
		want string
		ok   bool
	}{
		{"titanic/train.csv", "titanic/train.csv", true},
		{"train.csv", "titanic/train.csv", true},
		{"../input/titanic/train.csv", "titanic/train.csv", true},
		{"data/deep/train.csv", "titanic/train.csv", true}, // filename fallback
		{"unknown.csv", "", false},
	}
	for _, c := range cases {
		got, ok := l.VerifyTable(c.path)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("VerifyTable(%q) = %q, %v; want %q, %v", c.path, got, ok, c.want, c.ok)
		}
	}
	if !l.VerifyColumn("titanic/train.csv", "Age") {
		t.Error("existing column not verified")
	}
	if l.VerifyColumn("titanic/train.csv", "NormalizedAge") {
		t.Error("user-defined column should fail verification")
	}
	if l.VerifyColumn("nope/t.csv", "Age") {
		t.Error("unknown table should fail")
	}
}

func TestSimilarityEdgesDeterministic(t *testing.T) {
	profiles := fixtureProfiles(t)
	b := NewBuilder()
	a := b.SimilarityEdges(profiles)
	c := b.SimilarityEdges(profiles)
	if len(a) != len(c) {
		t.Fatalf("edge counts differ: %d vs %d", len(a), len(c))
	}
	for i := range a {
		if a[i] != c[i] {
			t.Fatalf("edge %d differs: %v vs %v", i, a[i], c[i])
		}
	}
}

func TestSimilarityEdgesScaling(t *testing.T) {
	// Many single-column tables of the same type: pairwise comparison must
	// stay within same-type groups and not blow up.
	p := profiler.New()
	var profiles []*profiler.ColumnProfile
	for i := 0; i < 30; i++ {
		s := &dataframe.Series{Name: fmt.Sprintf("c%d", i)}
		for v := 0; v < 20; v++ {
			s.Cells = append(s.Cells, dataframe.NumberCell(float64(v*i)))
		}
		profiles = append(profiles, profileColumn(p, "d", fmt.Sprintf("t%d.csv", i), s))
	}
	b := NewBuilder()
	edges := b.SimilarityEdges(profiles)
	for _, e := range edges {
		if e.Score < b.Thresholds.Theta && e.Kind == "ContentSimilarity" {
			t.Errorf("edge below threshold: %+v", e)
		}
	}
}
