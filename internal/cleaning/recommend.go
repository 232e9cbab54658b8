package cleaning

import (
	"sort"

	"kglids/internal/dataframe"
	"kglids/internal/embed"
	"kglids/internal/gnn"
	"kglids/internal/profiler"
)

// Example is one GNN training sample mined from the LiDS graph: the
// 1800-dimensional embedding of a table with missing values (Section 4.2:
// per-type averaged column embeddings of the columns containing nulls,
// concatenated) and the cleaning operation its pipeline applied.
type Example struct {
	Embedding embed.Vector
	Op        Op
}

// Recommender is the on-demand cleaning model: a 1-layer GNN over
// table-embedding nodes linked to operation nodes.
type Recommender struct {
	model    *gnn.Model
	profiler *profiler.Profiler
}

// MissingValueEmbedding computes the GNN input for a frame: the per-type
// averaged CoLR embeddings of the columns that contain missing values,
// concatenated into 1800 dimensions. When no column has nulls, all columns
// contribute (so inference still works pre-emptively).
func MissingValueEmbedding(p *profiler.Profiler, df *dataframe.DataFrame) embed.Vector {
	byType := map[embed.Type][]embed.Vector{}
	anyMissing := false
	for i := 0; i < df.NumCols(); i++ {
		if df.ColumnAt(i).NullCount() > 0 {
			anyMissing = true
			break
		}
	}
	for i := 0; i < df.NumCols(); i++ {
		col := df.ColumnAt(i)
		if anyMissing && col.NullCount() == 0 {
			continue
		}
		t, emb := p.EmbedColumn(col)
		byType[t] = append(byType[t], emb)
	}
	return embed.TableEmbedding(byType)
}

// Train fits the recommender on examples (the offline phase over the KG of
// 1000 datasets / 13.8k pipelines in the paper).
func Train(examples []Example) *Recommender {
	// Graph shape per Section 4.2: one edge between each table node and
	// its cleaning-operation node, one layer.
	g := gnn.NewGraph(len(examples)+len(Ops), embed.TableDim)
	for i, ex := range examples {
		copy(g.Features[i], ex.Embedding)
		g.Labels[i] = ClassOf(ex.Op)
		opNode := len(examples) + ClassOf(ex.Op)
		g.AddEdge(i, opNode)
	}
	cfg := gnn.DefaultConfig(embed.TableDim, len(Ops))
	m := gnn.NewModel(cfg)
	m.Train(g)
	return &Recommender{model: m, profiler: profiler.New()}
}

// Recommendation pairs an operation with the model's confidence.
type Recommendation struct {
	Op    Op
	Score float64
}

// Recommend returns cleaning operations for df ranked by model confidence
// (the recommend_cleaning_operations API).
func (r *Recommender) Recommend(df *dataframe.DataFrame) []Recommendation {
	emb := MissingValueEmbedding(r.profiler, df)
	probs := r.model.PredictVector(emb)
	out := make([]Recommendation, len(Ops))
	for i, op := range Ops {
		out[i] = Recommendation{Op: op, Score: probs[i]}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Score > out[j].Score })
	return out
}

// Clean recommends and applies the top operation in one step.
func (r *Recommender) Clean(df *dataframe.DataFrame) (*dataframe.DataFrame, Op, error) {
	recs := r.Recommend(df)
	cleaned, err := Apply(recs[0].Op, df)
	return cleaned, recs[0].Op, err
}
