// Package transform implements KGLiDS's on-demand data transformation
// (paper Section 4.3): table-level scaling transformations (StandardScaler,
// MinMaxScaler, RobustScaler), column-level unary transformations (log,
// sqrt), and the two GNN recommenders that choose them — scaling first,
// then unary per feature, per the paper's two-step formulation.
package transform

import (
	"fmt"
	"math"
	"sort"

	"kglids/internal/dataframe"
	"kglids/internal/embed"
	"kglids/internal/gnn"
	"kglids/internal/profiler"
)

// ScalerOp names a table-level scaling transformation.
type ScalerOp string

// The three scaling transformations of Section 4.3.
const (
	ScalerStandard ScalerOp = "StandardScaler"
	ScalerMinMax   ScalerOp = "MinMaxScaler"
	ScalerRobust   ScalerOp = "RobustScaler"
)

// Scalers lists scaling ops in class-index order.
var Scalers = []ScalerOp{ScalerStandard, ScalerMinMax, ScalerRobust}

// UnaryOp names a column-level unary transformation.
type UnaryOp string

// The unary transformations of Section 4.3 plus the no-op class.
const (
	UnaryNone UnaryOp = "none"
	UnaryLog  UnaryOp = "log"
	UnarySqrt UnaryOp = "sqrt"
)

// Unaries lists unary ops in class-index order.
var Unaries = []UnaryOp{UnaryNone, UnaryLog, UnarySqrt}

// ScalerClass returns the class index of a scaling op.
func ScalerClass(op ScalerOp) int {
	for i, o := range Scalers {
		if o == op {
			return i
		}
	}
	return -1
}

// UnaryClass returns the class index of a unary op.
func UnaryClass(op UnaryOp) int {
	for i, o := range Unaries {
		if o == op {
			return i
		}
	}
	return -1
}

// ApplyScaler scales every numeric column of df (excluding target) and
// returns a transformed copy.
func ApplyScaler(op ScalerOp, df *dataframe.DataFrame, target string) (*dataframe.DataFrame, error) {
	out := df.Clone()
	for i := 0; i < out.NumCols(); i++ {
		col := out.ColumnAt(i)
		if col.Name == target || !col.IsNumeric() {
			continue
		}
		switch op {
		case ScalerStandard:
			mean, std := col.Mean(), col.Std()
			if std == 0 {
				std = 1
			}
			scaleColumn(col, func(v float64) float64 { return (v - mean) / std })
		case ScalerMinMax:
			lo, hi := col.MinMax()
			span := hi - lo
			if span == 0 {
				span = 1
			}
			scaleColumn(col, func(v float64) float64 { return (v - lo) / span })
		case ScalerRobust:
			med := col.Quantile(0.5)
			iqr := col.Quantile(0.75) - col.Quantile(0.25)
			if iqr == 0 {
				iqr = 1
			}
			scaleColumn(col, func(v float64) float64 { return (v - med) / iqr })
		default:
			return nil, fmt.Errorf("transform: unknown scaler %q", op)
		}
	}
	return out, nil
}

// ApplyUnary applies a unary transformation to one column of df in a copy.
// log uses log1p semantics on shifted values so non-positive inputs stay
// defined; sqrt shifts similarly.
func ApplyUnary(op UnaryOp, df *dataframe.DataFrame, column string) (*dataframe.DataFrame, error) {
	out := df.Clone()
	col := out.Column(column)
	if col == nil {
		return nil, fmt.Errorf("transform: unknown column %q", column)
	}
	if !col.IsNumeric() {
		return out, nil
	}
	lo, _ := col.MinMax()
	shift := 0.0
	if lo < 0 {
		shift = -lo
	}
	switch op {
	case UnaryNone:
	case UnaryLog:
		scaleColumn(col, func(v float64) float64 { return math.Log1p(v + shift) })
	case UnarySqrt:
		scaleColumn(col, func(v float64) float64 { return math.Sqrt(v + shift) })
	default:
		return nil, fmt.Errorf("transform: unknown unary op %q", op)
	}
	return out, nil
}

func scaleColumn(col *dataframe.Series, f func(float64) float64) {
	for i, c := range col.Cells {
		if c.Kind == dataframe.Number {
			col.Cells[i] = dataframe.NumberCell(f(c.F))
		}
	}
}

// ScalerExample is one training sample for the table-transformation model:
// a 1800-d table embedding and the scaler applied by its pipeline.
type ScalerExample struct {
	Embedding embed.Vector
	Op        ScalerOp
}

// UnaryExample is one training sample for the column-transformation model:
// a 300-d column embedding and the unary op applied.
type UnaryExample struct {
	Embedding embed.Vector
	Op        UnaryOp
}

// Recommender holds the two GNN models of Section 4.3.
type Recommender struct {
	scalerModel *gnn.Model
	unaryModel  *gnn.Model
	profiler    *profiler.Profiler
}

// Train fits both models from mined examples.
func Train(scalerExamples []ScalerExample, unaryExamples []UnaryExample) *Recommender {
	r := &Recommender{profiler: profiler.New()}
	// Table model: 1800-d embeddings, one edge table→scaler-op node.
	gs := gnn.NewGraph(len(scalerExamples)+len(Scalers), embed.TableDim)
	for i, ex := range scalerExamples {
		copy(gs.Features[i], ex.Embedding)
		gs.Labels[i] = ScalerClass(ex.Op)
		gs.AddEdge(i, len(scalerExamples)+ScalerClass(ex.Op))
	}
	r.scalerModel = gnn.NewModel(gnn.DefaultConfig(embed.TableDim, len(Scalers)))
	r.scalerModel.Train(gs)
	// Column model: 300-d embeddings, no aggregation needed (Section 4.3:
	// "each column was directly associated with its embedding of size
	// 300").
	gu := gnn.NewGraph(len(unaryExamples), embed.Dim)
	for i, ex := range unaryExamples {
		copy(gu.Features[i], ex.Embedding)
		gu.Labels[i] = UnaryClass(ex.Op)
	}
	r.unaryModel = gnn.NewModel(gnn.DefaultConfig(embed.Dim, len(Unaries)))
	r.unaryModel.Train(gu)
	return r
}

// ScalerRecommendation pairs a scaler with model confidence.
type ScalerRecommendation struct {
	Op    ScalerOp
	Score float64
}

// UnaryRecommendation pairs a column with its recommended unary op.
type UnaryRecommendation struct {
	Column string
	Op     UnaryOp
	Score  float64
}

// RecommendScaler ranks scaling transformations for df.
func (r *Recommender) RecommendScaler(df *dataframe.DataFrame) []ScalerRecommendation {
	probs := r.scalerModel.PredictVector(r.profiler.TableEmbedding(df))
	out := make([]ScalerRecommendation, len(Scalers))
	for i, op := range Scalers {
		out[i] = ScalerRecommendation{Op: op, Score: probs[i]}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Score > out[j].Score })
	return out
}

// RecommendUnary returns the best unary transformation per numeric feature
// column of df (target excluded).
func (r *Recommender) RecommendUnary(df *dataframe.DataFrame, target string) []UnaryRecommendation {
	var out []UnaryRecommendation
	for i := 0; i < df.NumCols(); i++ {
		col := df.ColumnAt(i)
		if col.Name == target || !col.IsNumeric() {
			continue
		}
		_, emb := r.profiler.EmbedColumn(col)
		probs := r.unaryModel.PredictVector(emb)
		best := gnn.Argmax(probs)
		out = append(out, UnaryRecommendation{Column: col.Name, Op: Unaries[best], Score: probs[best]})
	}
	return out
}

// Transform runs the two-step recommendation of Section 4.3 — scaling
// first, then per-column unary transforms — and applies both.
func (r *Recommender) Transform(df *dataframe.DataFrame, target string) (*dataframe.DataFrame, ScalerOp, []UnaryRecommendation, error) {
	scalers := r.RecommendScaler(df)
	out, err := ApplyScaler(scalers[0].Op, df, target)
	if err != nil {
		return nil, "", nil, err
	}
	unaries := r.RecommendUnary(df, target)
	for _, u := range unaries {
		if u.Op == UnaryNone {
			continue
		}
		out, err = ApplyUnary(u.Op, out, u.Column)
		if err != nil {
			return nil, "", nil, err
		}
	}
	return out, scalers[0].Op, unaries, nil
}
