package embed

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestVectorOps(t *testing.T) {
	a := Vector{3, 4}
	if a.Norm() != 5 {
		t.Errorf("Norm = %v", a.Norm())
	}
	a.Normalize()
	if math.Abs(a.Norm()-1) > 1e-12 {
		t.Errorf("normalized norm = %v", a.Norm())
	}
	b := Vector{1, 0}
	if got := Cosine(b, Vector{0, 1}); got != 0 {
		t.Errorf("orthogonal cosine = %v", got)
	}
	if got := Cosine(b, Vector{2, 0}); math.Abs(got-1) > 1e-12 {
		t.Errorf("parallel cosine = %v", got)
	}
	if got := Cosine(b, Vector{0, 0}); got != 0 {
		t.Errorf("zero-vector cosine = %v", got)
	}
}

func TestCosineRange(t *testing.T) {
	clamp := func(xs []float64) Vector {
		v := make(Vector, len(xs))
		for i, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				x = 0
			}
			// Keep magnitudes in a realistic embedding range to avoid
			// float64 overflow in the dot product.
			v[i] = math.Mod(x, 1e6)
		}
		return v
	}
	f := func(a, b []float64) bool {
		va, vb := clamp(a), clamp(b)
		if len(va) != len(vb) {
			n := min(len(va), len(vb))
			va, vb = va[:n], vb[:n]
		}
		c := Cosine(va, vb)
		return c >= -1.0000001 && c <= 1.0000001
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTokenizeLabel(t *testing.T) {
	cases := map[string][]string{
		"PassengerId":   {"passenger", "id"},
		"area_sq_ft":    {"area", "sq", "ft"},
		"Age":           {"age"},
		"heart-disease": {"heart", "disease"},
		"col_2":         {"col"},
		"":              nil,
	}
	for in, want := range cases {
		got := TokenizeLabel(in)
		if len(got) != len(want) {
			t.Errorf("TokenizeLabel(%q) = %v, want %v", in, got, want)
			continue
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("TokenizeLabel(%q) = %v, want %v", in, got, want)
			}
		}
	}
}

func TestWordModelSynonyms(t *testing.T) {
	m := NewWordModel()
	// Synonyms must score much higher than unrelated words.
	synPairs := [][2]string{{"Sex", "gender"}, {"target", "label"}, {"price", "cost"}, {"city", "town"}}
	for _, p := range synPairs {
		if got := m.Similarity(p[0], p[1]); got < 0.6 {
			t.Errorf("Similarity(%q, %q) = %v, want >= 0.6", p[0], p[1], got)
		}
	}
	if got := m.Similarity("gender", "longitude"); got > 0.4 {
		t.Errorf("unrelated similarity = %v, want < 0.4", got)
	}
	if got := m.Similarity("Age", "age"); got != 1 {
		t.Errorf("case-insensitive identity = %v", got)
	}
}

func TestWordModelMorphology(t *testing.T) {
	m := NewWordModel()
	// OOV words sharing trigram structure should be closer than unrelated.
	close := m.Similarity("area_sq_ft", "area_sq_m")
	far := m.Similarity("area_sq_ft", "passenger_survived")
	if close <= far {
		t.Errorf("morphological closeness: close=%v far=%v", close, far)
	}
}

func TestWordEmbedDeterminism(t *testing.T) {
	m := NewWordModel()
	a, b := m.EmbedLabel("heart_rate"), m.EmbedLabel("heart_rate")
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("EmbedLabel not deterministic")
		}
	}
}

func genValues(rng *rand.Rand, n int, gen func() string) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = gen()
	}
	return out
}

func TestCoLRValueOverlap(t *testing.T) {
	c := NewCoLR()
	rng := rand.New(rand.NewSource(1))
	cities := []string{"Montreal", "Toronto", "Vancouver", "Ottawa", "Calgary"}
	animals := []string{"cat", "dog", "horse", "cow", "sheep"}
	a := c.EncodeColumn(genValues(rng, 200, func() string { return cities[rng.Intn(len(cities))] }), TypeNamedEntity)
	b := c.EncodeColumn(genValues(rng, 200, func() string { return cities[rng.Intn(len(cities))] }), TypeNamedEntity)
	d := c.EncodeColumn(genValues(rng, 200, func() string { return animals[rng.Intn(len(animals))] }), TypeNamedEntity)
	if Cosine(a, b) < 0.9 {
		t.Errorf("same-domain cosine = %v, want >= 0.9", Cosine(a, b))
	}
	if Cosine(a, d) > Cosine(a, b) {
		t.Errorf("different-domain cosine %v should be below same-domain %v", Cosine(a, d), Cosine(a, b))
	}
}

func TestCoLRNumericDistribution(t *testing.T) {
	c := NewCoLR()
	rng := rand.New(rand.NewSource(2))
	norm := func(mu, sigma float64) func() string {
		return func() string { return fmt.Sprintf("%.2f", rng.NormFloat64()*sigma+mu) }
	}
	// Identical distribution at the same scale: near-duplicate columns.
	sqft := c.EncodeColumn(genValues(rng, 500, norm(1500, 300)), TypeFloat)
	sqft2 := c.EncodeColumn(genValues(rng, 500, norm(1500, 300)), TypeFloat)
	if got := Cosine(sqft, sqft2); got < 0.9 {
		t.Errorf("same-scale same-shape similarity = %v, want >= 0.9", got)
	}
	// Same variable, different units (sq ft vs sq m, factor ~10.76):
	// z-scored histograms coincide, so similarity stays moderate even
	// though the magnitude features disagree.
	sqm := c.EncodeColumn(genValues(rng, 500, norm(139, 28)), TypeFloat)
	unitPair := Cosine(sqft, sqm)
	if unitPair < 0.5 {
		t.Errorf("same-variable similarity = %v, want >= 0.5", unitPair)
	}
	// Same shape at a far scale (an unrelated measurement) must fall
	// clearly below the default materialization threshold θ = 0.85, so
	// the global schema does not link unrelated numeric columns.
	far := c.EncodeColumn(genValues(rng, 500, norm(150000, 30000)), TypeFloat)
	if got := Cosine(sqft, far); got >= 0.85 {
		t.Errorf("far-scale same-shape similarity = %v, want < theta (0.85)", got)
	}
	if got := Cosine(sqft, sqft2); got <= unitPair {
		t.Errorf("same-scale %v should exceed unit-pair %v", got, unitPair)
	}
}

func TestCoLRDates(t *testing.T) {
	c := NewCoLR()
	rng := rand.New(rand.NewSource(3))
	y2020 := c.EncodeColumn(genValues(rng, 100, func() string {
		return fmt.Sprintf("2020-%02d-%02d", 1+rng.Intn(12), 1+rng.Intn(28))
	}), TypeDate)
	y2020b := c.EncodeColumn(genValues(rng, 100, func() string {
		return fmt.Sprintf("2020-%02d-%02d", 1+rng.Intn(12), 1+rng.Intn(28))
	}), TypeDate)
	y1950 := c.EncodeColumn(genValues(rng, 100, func() string {
		return fmt.Sprintf("19%02d-%02d-%02d", 50+rng.Intn(5), 1+rng.Intn(12), 1+rng.Intn(28))
	}), TypeDate)
	if Cosine(y2020, y2020b) <= Cosine(y2020, y1950) {
		t.Errorf("same-era dates should be closer: %v vs %v", Cosine(y2020, y2020b), Cosine(y2020, y1950))
	}
}

func TestParseDate(t *testing.T) {
	for _, c := range []struct {
		in   string
		want string // RFC 3339, "" when no layout matches
	}{
		// One value per layout.
		{"2020-05-17", "2020-05-17T00:00:00Z"},
		{"2020/05/17", "2020-05-17T00:00:00Z"},
		{"05/17/2020", "2020-05-17T00:00:00Z"},
		{"17-05-2020", "2020-05-17T00:00:00Z"},
		{"2006-01-02 15:04:05", "2006-01-02T15:04:05Z"},
		{"2006-01-02T15:04:05", "2006-01-02T15:04:05Z"},
		{"Jan 2, 2006", "2006-01-02T00:00:00Z"},
		{"2 Jan 2006", "2006-01-02T00:00:00Z"},
		{"January 2, 2006", "2006-01-02T00:00:00Z"},
		{"2006-01", "2006-01-01T00:00:00Z"},
		{"  2020-05-17\t", "2020-05-17T00:00:00Z"},
		{"0001-01", "0001-01-01T00:00:00Z"},
		// Rejected before any layout is tried: no year, or too short.
		{"hello", ""}, {"123", ""}, {"", ""}, {"May 17", ""}, {"12/31/99", ""}, {"2020-1", ""}, {"١٢٣٤-٠١", ""},
		// Has a year, matches no layout.
		{"20200517", ""}, {"2020-13-01", ""}, {"order 12345", ""}, {"1234567", ""},
	} {
		got, ok := ParseDate(c.in)
		if ok != (c.want != "") || ok && got.Format(time.RFC3339) != c.want {
			t.Errorf("ParseDate(%q) = %v, %v; want %q", c.in, got, ok, c.want)
		}
	}
}

// TestParseDatePrecheckIsExact: skipping the layouts whose shape a value
// does not have never changes the outcome of trying every layout. Inputs
// are dates in each layout with a few bytes replaced, dropped or doubled,
// so many sit right at the edge of what a layout accepts.
func TestParseDatePrecheckIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const alphabet = "0123456789-/:, TJanuryFebMchApilgstSmOoNvDx"
	base := time.Date(1987, 6, 5, 4, 3, 2, 0, time.UTC)
	parsed := 0
	for i := 0; i < 20000; i++ {
		b := []byte(base.AddDate(rng.Intn(60), rng.Intn(12), rng.Intn(28)).Format(dateLayouts[rng.Intn(len(dateLayouts))].layout))
		for edits := rng.Intn(4); edits > 0 && len(b) > 0; edits-- {
			at := rng.Intn(len(b))
			switch rng.Intn(3) {
			case 0:
				b[at] = alphabet[rng.Intn(len(alphabet))]
			case 1:
				b = append(b[:at], b[at+1:]...)
			default:
				b = append(b[:at+1], b[at:]...)
			}
		}
		got, ok := ParseDate(string(b))
		want, wantOK := refParseDate(string(b))
		if ok != wantOK || !got.Equal(want) {
			t.Fatalf("ParseDate(%q) = %v, %v; every layout in turn gives %v, %v", b, got, ok, want, wantOK)
		}
		if ok {
			parsed++
		}
	}
	if parsed < 2000 || parsed > 18000 {
		t.Fatalf("%d of 20000 inputs parsed: the generator no longer straddles the boundary", parsed)
	}
}

func TestSubsampling(t *testing.T) {
	c := NewCoLR()
	vals := make([]string, 20000)
	rng := rand.New(rand.NewSource(4))
	for i := range vals {
		vals[i] = fmt.Sprintf("%.3f", rng.NormFloat64())
	}
	full := &CoLR{Subsample: false}
	a := c.EncodeColumn(vals, TypeFloat)    // 10% sample
	b := full.EncodeColumn(vals, TypeFloat) // full column
	if got := Cosine(a, b); got < 0.95 {
		t.Errorf("subsampled vs full cosine = %v, want >= 0.95 (paper: comparable)", got)
	}
	// Sample size should honor the fraction and minimum.
	s := c.sample(vals)
	if len(s) != 2000 {
		t.Errorf("sample size = %d, want 2000 (10%% of 20000)", len(s))
	}
	small := c.sample(vals[:500])
	if len(small) != 500 {
		t.Errorf("small column sampled to %d, want all 500", len(small))
	}
}

func TestSampleDeterminism(t *testing.T) {
	c := NewCoLR()
	vals := make([]string, 5000)
	for i := range vals {
		vals[i] = fmt.Sprintf("v%d", i)
	}
	a, b := c.sample(vals), c.sample(vals)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("sampling not deterministic")
		}
	}
}

func TestTableEmbedding(t *testing.T) {
	c := NewCoLR()
	intCol := c.EncodeColumn([]string{"1", "2", "3"}, TypeInt)
	strCol := c.EncodeColumn([]string{"a", "b"}, TypeString)
	emb := TableEmbedding(map[Type][]Vector{
		TypeInt:    {intCol},
		TypeString: {strCol},
	})
	if len(emb) != TableDim {
		t.Fatalf("table dim = %d, want %d", len(emb), TableDim)
	}
	// The int block (index 0) holds intCol, string block (index 5) strCol,
	// all others zero.
	intBlock := Vector(emb[0:Dim])
	if Cosine(intBlock, intCol) < 0.999 {
		t.Error("int block mismatch")
	}
	dateBlock := Vector(emb[2*Dim : 3*Dim])
	if dateBlock.Norm() != 0 {
		t.Error("absent type block should be zero")
	}
}

func TestDatasetEmbedding(t *testing.T) {
	a := NewVector(TableDim)
	a[0] = 2
	b := NewVector(TableDim)
	b[0] = 4
	d := DatasetEmbedding([]Vector{a, b})
	if d[0] != 3 {
		t.Errorf("dataset embedding avg = %v", d[0])
	}
	if DatasetEmbedding(nil).Norm() != 0 {
		t.Error("empty dataset embedding should be zero")
	}
}

func TestCoarseMode(t *testing.T) {
	fine := NewCoLR()
	coarse := &CoLR{Coarse: true, Subsample: false}
	vals := []string{"10.5", "20.1", "30.7"}
	fv := fine.EncodeColumn(vals, TypeFloat)
	cv := coarse.EncodeColumn(vals, TypeFloat)
	if Cosine(fv, cv) > 0.99 {
		t.Error("coarse encoder should differ from fine-grained")
	}
	if cv.Norm() == 0 {
		t.Error("coarse embedding empty")
	}
}

func TestEmbeddingIsNormalized(t *testing.T) {
	c := NewCoLR()
	for _, typ := range AllTypes {
		v := c.EncodeColumn([]string{"1", "2", "x", "2020-01-01", "true"}, typ)
		if n := v.Norm(); math.Abs(n-1) > 1e-9 && n != 0 {
			t.Errorf("type %s: norm = %v", typ, n)
		}
	}
}

// Similarity returns the label-embedding cosine similarity of two column
// names, 1 when they normalize to the same label: the score the schema
// builder thresholds by α in Algorithm 3.
func (m *WordModel) Similarity(a, b string) float64 {
	if normalizeLabel(a) == normalizeLabel(b) {
		return 1.0
	}
	return Cosine(m.EmbedLabel(a), m.EmbedLabel(b))
}

func normalizeLabel(s string) string {
	return strings.Join(TokenizeLabel(s), " ")
}
