// On-demand data preparation: train the cleaning and transformation GNNs
// (paper Section 4) from a corpus of task datasets, then clean and
// transform an unseen dataset and measure the downstream effect with a
// random forest — the protocol of Tables 5 and 6.
package main

import (
	"fmt"

	"kglids"
	"kglids/internal/cleaning"
	"kglids/internal/lakegen"
	"kglids/internal/ml"
	"kglids/internal/profiler"
	"kglids/internal/transform"
)

func score(df *kglids.DataFrame, target string) float64 {
	m, err := df.ToMatrix(target)
	if err != nil {
		return 0
	}
	return ml.CrossValidate(func() ml.Classifier {
		f := ml.NewRandomForest(15)
		f.MaxDepth = 10
		return f
	}, m.X, m.Y, 5, ml.F1)
}

func main() {
	plat := kglids.Bootstrap(kglids.Options{}, nil)
	p := profiler.New()

	// Offline phase: label training datasets with the operation that
	// maximizes downstream model performance (what the LiDS graph mines
	// from top-voted pipelines) and train the GNNs.
	var cexs []cleaning.Example
	var sexs []transform.ScalerExample
	var uexs []transform.UnaryExample
	fmt.Println("training on-demand models from 16 offline datasets...")
	for i := 0; i < 16; i++ {
		task := lakegen.GenerateTask(lakegen.TaskSpec{
			ID: i, Name: fmt.Sprintf("train_%02d", i),
			Rows: 120 + (i%4)*60, NumFeatures: 4 + i%4, CatFeatures: i % 2,
			Classes: 2, NullRate: 0.05 + 0.02*float64(i%4), Skew: i%2 == 0,
			Seed: int64(100 + i),
		})
		bestClean, bestF1 := cleaning.Ops[0], -1.0
		for _, op := range cleaning.Ops {
			cleaned, err := cleaning.Apply(op, task.Frame)
			if err != nil {
				continue
			}
			if s := score(cleaned, task.Target); s > bestF1 {
				bestClean, bestF1 = op, s
			}
		}
		cexs = append(cexs, cleaning.Example{Embedding: cleaning.MissingValueEmbedding(p, task.Frame), Op: bestClean})
		bestScaler, bestF1 := transform.Scalers[0], -1.0
		for _, op := range transform.Scalers {
			scaled, err := transform.ApplyScaler(op, task.Frame, task.Target)
			if err != nil {
				continue
			}
			if s := score(scaled, task.Target); s > bestF1 {
				bestScaler, bestF1 = op, s
			}
		}
		sexs = append(sexs, transform.ScalerExample{Embedding: p.TableEmbedding(task.Frame), Op: bestScaler})
		_, emb := p.EmbedColumn(task.Frame.ColumnAt(0))
		uexs = append(uexs, transform.UnaryExample{Embedding: emb, Op: transform.Unaries[i%3]})
	}
	plat.TrainCleaningModel(cexs)
	plat.TrainTransformModels(sexs, uexs)

	// Inference phase on an unseen dataset with missing values.
	unseen := lakegen.GenerateTask(lakegen.TaskSpec{
		ID: 99, Name: "unseen_titanic_like", Rows: 500, NumFeatures: 6,
		CatFeatures: 2, Classes: 2, NullRate: 0.08, Skew: true, Seed: 999,
	})
	fmt.Printf("\nunseen dataset: %d rows, %d nulls\n", unseen.Frame.NumRows(), unseen.Frame.NullCount())
	fmt.Printf("baseline (drop nulls) F1: %.4f\n", score(unseen.Frame.DropNullRows(), unseen.Target))

	recs := plat.RecommendCleaningOperations(unseen.Frame)
	fmt.Println("\nrecommend_cleaning_operations:")
	for _, r := range recs {
		fmt.Printf("  %-18s %.3f\n", r.Op, r.Score)
	}
	cleaned, err := plat.ApplyCleaningOperations(recs[0].Op, unseen.Frame)
	if err != nil {
		panic(err)
	}
	fmt.Printf("after %s: %d nulls, F1 = %.4f\n", recs[0].Op, cleaned.NullCount(), score(cleaned, unseen.Target))

	scalers, unaries := plat.RecommendTransformations(cleaned, unseen.Target)
	fmt.Println("\nrecommend_transformations:")
	for _, s := range scalers {
		fmt.Printf("  scaler %-16s %.3f\n", s.Op, s.Score)
	}
	for _, u := range unaries[:min(4, len(unaries))] {
		fmt.Printf("  column %-10s -> %s\n", u.Column, u.Op)
	}
	transformed, err := plat.ApplyTransformations(cleaned, unseen.Target)
	if err != nil {
		panic(err)
	}
	fmt.Printf("after transformation: F1 = %.4f\n", score(transformed, unseen.Target))
}
