package transform

import (
	"math"
	"math/rand"
	"testing"

	"kglids/internal/dataframe"
	"kglids/internal/embed"
	"kglids/internal/profiler"
)

func numericFrame(vals ...float64) *dataframe.DataFrame {
	df := dataframe.New("t")
	s := &dataframe.Series{Name: "x"}
	for _, v := range vals {
		s.Cells = append(s.Cells, dataframe.NumberCell(v))
	}
	df.AddColumn(s)
	y := &dataframe.Series{Name: "target"}
	for range vals {
		y.Cells = append(y.Cells, dataframe.NumberCell(1))
	}
	df.AddColumn(y)
	return df
}

func TestStandardScaler(t *testing.T) {
	df := numericFrame(1, 2, 3, 4, 5)
	out, err := ApplyScaler(ScalerStandard, df, "target")
	if err != nil {
		t.Fatal(err)
	}
	col := out.Column("x")
	if m := col.Mean(); math.Abs(m) > 1e-9 {
		t.Errorf("scaled mean = %v", m)
	}
	if s := col.Std(); math.Abs(s-1) > 1e-9 {
		t.Errorf("scaled std = %v", s)
	}
	// Target untouched.
	if out.Column("target").Cells[0].F != 1 {
		t.Error("target column scaled")
	}
	// Original untouched.
	if df.Column("x").Cells[0].F != 1 {
		t.Error("input mutated")
	}
}

func TestMinMaxScaler(t *testing.T) {
	df := numericFrame(10, 20, 30)
	out, _ := ApplyScaler(ScalerMinMax, df, "target")
	col := out.Column("x")
	lo, hi := col.MinMax()
	if lo != 0 || hi != 1 {
		t.Errorf("minmax range = [%v, %v]", lo, hi)
	}
	if col.Cells[1].F != 0.5 {
		t.Errorf("mid = %v", col.Cells[1].F)
	}
}

func TestRobustScaler(t *testing.T) {
	df := numericFrame(1, 2, 3, 4, 100) // outlier
	out, _ := ApplyScaler(ScalerRobust, df, "target")
	col := out.Column("x")
	// Median (3) maps to 0.
	if got := col.Cells[2].F; math.Abs(got) > 1e-9 {
		t.Errorf("median scaled to %v", got)
	}
}

func TestConstantColumnScaling(t *testing.T) {
	df := numericFrame(5, 5, 5)
	for _, op := range Scalers {
		out, err := ApplyScaler(op, df, "target")
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range out.Column("x").Cells {
			if math.IsNaN(c.F) || math.IsInf(c.F, 0) {
				t.Errorf("%s produced %v on constant column", op, c.F)
			}
		}
	}
}

func TestApplyUnary(t *testing.T) {
	df := numericFrame(0, 1, math.E-1)
	out, err := ApplyUnary(UnaryLog, df, "x")
	if err != nil {
		t.Fatal(err)
	}
	if got := out.Column("x").Cells[2].F; math.Abs(got-1) > 1e-9 {
		t.Errorf("log1p(e-1) = %v", got)
	}
	out, _ = ApplyUnary(UnarySqrt, numericFrame(4, 9), "x")
	if out.Column("x").Cells[0].F != 2 || out.Column("x").Cells[1].F != 3 {
		t.Error("sqrt wrong")
	}
	// Negative values are shifted, not NaN.
	out, _ = ApplyUnary(UnaryLog, numericFrame(-5, 0, 5), "x")
	for _, c := range out.Column("x").Cells {
		if math.IsNaN(c.F) {
			t.Error("log of negative produced NaN")
		}
	}
	// none is identity.
	out, _ = ApplyUnary(UnaryNone, numericFrame(1, 2), "x")
	if out.Column("x").Cells[1].F != 2 {
		t.Error("none not identity")
	}
	if _, err := ApplyUnary(UnaryLog, df, "nope"); err == nil {
		t.Error("unknown column should error")
	}
}

func TestNonNumericColumnsUntouched(t *testing.T) {
	df := dataframe.New("t")
	s := &dataframe.Series{Name: "name"}
	for _, v := range []string{"a", "b"} {
		s.Cells = append(s.Cells, dataframe.TextCell(v))
	}
	df.AddColumn(s)
	out, err := ApplyScaler(ScalerStandard, df, "")
	if err != nil {
		t.Fatal(err)
	}
	if out.Column("name").Cells[0].S != "a" {
		t.Error("text column modified")
	}
	out2, err := ApplyUnary(UnaryLog, df, "name")
	if err != nil {
		t.Fatal(err)
	}
	if out2.Column("name").Cells[0].S != "a" {
		t.Error("unary modified text column")
	}
}

func TestClassIndexes(t *testing.T) {
	for i, op := range Scalers {
		if ScalerClass(op) != i {
			t.Errorf("ScalerClass(%s) = %d", op, ScalerClass(op))
		}
	}
	for i, op := range Unaries {
		if UnaryClass(op) != i {
			t.Errorf("UnaryClass(%s) = %d", op, UnaryClass(op))
		}
	}
	if ScalerClass("x") != -1 || UnaryClass("x") != -1 {
		t.Error("unknown class not -1")
	}
}

func trainingExamples(t *testing.T) ([]ScalerExample, []UnaryExample) {
	t.Helper()
	p := profiler.New()
	rng := rand.New(rand.NewSource(9))
	var se []ScalerExample
	var ue []UnaryExample
	colr := embed.NewCoLR()
	for i := 0; i < 60; i++ {
		// Scaler examples: scale of values correlates with scaler class.
		op := Scalers[i%len(Scalers)]
		df := dataframe.New("t")
		s := &dataframe.Series{Name: "v"}
		scale := math.Pow(100, float64(ScalerClass(op)))
		for r := 0; r < 30; r++ {
			s.Cells = append(s.Cells, dataframe.NumberCell(rng.Float64()*scale))
		}
		df.AddColumn(s)
		se = append(se, ScalerExample{Embedding: p.TableEmbedding(df), Op: op})

		// Unary examples: skewed columns get log, moderate get sqrt,
		// centered get none.
		uop := Unaries[i%len(Unaries)]
		vals := make([]string, 40)
		for r := range vals {
			switch uop {
			case UnaryLog:
				vals[r] = formatF(math.Exp(rng.Float64() * 10)) // heavy tail
			case UnarySqrt:
				vals[r] = formatF(rng.Float64() * 1000)
			default:
				vals[r] = formatF(rng.NormFloat64())
			}
		}
		ue = append(ue, UnaryExample{Embedding: colr.EncodeColumn(vals, embed.TypeFloat), Op: uop})
	}
	return se, ue
}

func formatF(f float64) string {
	return dataframe.NumberCell(f).S
}

func TestRecommenderEndToEnd(t *testing.T) {
	se, ue := trainingExamples(t)
	rec := Train(se, ue)
	df := numericFrame(1, 5, 10, 50, 100, 500)
	scalers := rec.RecommendScaler(df)
	if len(scalers) != 3 {
		t.Fatalf("scaler recs = %d", len(scalers))
	}
	sum := 0.0
	for _, s := range scalers {
		sum += s.Score
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("scaler scores sum = %v", sum)
	}
	unaries := rec.RecommendUnary(df, "target")
	if len(unaries) != 1 || unaries[0].Column != "x" {
		t.Fatalf("unary recs = %+v", unaries)
	}
	out, scaler, _, err := rec.Transform(df, "target")
	if err != nil {
		t.Fatal(err)
	}
	if scaler == "" || out.NumRows() != df.NumRows() {
		t.Error("transform output malformed")
	}
	// Values actually changed.
	if out.Column("x").Cells[0].F == df.Column("x").Cells[0].F {
		t.Error("transform did not modify features")
	}
}

func TestRecommenderLearnsScale(t *testing.T) {
	se, ue := trainingExamples(t)
	rec := Train(se, ue)
	correct := 0
	for i, ex := range se {
		if i >= 15 {
			break
		}
		probs := rec.scalerModel.PredictVector(ex.Embedding)
		if Scalers[argmax(probs)] == ex.Op {
			correct++
		}
	}
	if correct < 9 {
		t.Errorf("scaler model recovered %d/15", correct)
	}
}

func argmax(p []float64) int {
	best := 0
	for i := range p {
		if p[i] > p[best] {
			best = i
		}
	}
	return best
}
