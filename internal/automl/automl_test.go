package automl

import (
	"testing"
	"time"

	"kglids/internal/embed"
	"kglids/internal/lakegen"
	"kglids/internal/pipegen"
	"kglids/internal/pipeline"
	"kglids/internal/profiler"
)

func minedFixture(t *testing.T) ([]MinedUsage, map[string]embed.Vector, *lakegen.TaskDataset) {
	t.Helper()
	task := lakegen.GenerateTask(lakegen.TaskSpec{
		ID: 1, Name: "fixture", Rows: 300, NumFeatures: 5, CatFeatures: 1,
		Classes: 2, Seed: 51,
	})
	ds := pipegen.FrameDataset(task.Name, task.Frame, task.Target)
	corpus := pipegen.Generate(pipegen.Options{NumPipelines: 30, Datasets: []pipegen.Dataset{ds}, Seed: 52})
	a := pipeline.NewAbstractor()
	var abss []*pipeline.Abstraction
	for _, g := range corpus {
		abss = append(abss, a.Abstract(g.Script))
	}
	usages := MineUsages(abss)
	p := profiler.New()
	embs := map[string]embed.Vector{
		task.Name: p.TableEmbedding(task.Frame),
	}
	return usages, embs, task
}

func TestMineUsages(t *testing.T) {
	usages, _, _ := minedFixture(t)
	if len(usages) == 0 {
		t.Fatal("no usages mined")
	}
	for _, u := range usages {
		if u.Classifier == "" || u.Dataset == "" {
			t.Errorf("incomplete usage: %+v", u)
		}
	}
	// At least some usages carry explicit hyperparameters with names.
	withParams := 0
	for _, u := range usages {
		if len(u.Params) > 0 {
			withParams++
		}
	}
	if withParams == 0 {
		t.Error("no usages carry named hyperparameters")
	}
}

func TestRecommendModels(t *testing.T) {
	usages, embs, task := minedFixture(t)
	s := New(usages, embs, true)
	p := profiler.New()
	emb := p.TableEmbedding(task.Frame)
	recs := s.RecommendModels(emb)
	if len(recs) == 0 {
		t.Fatal("no model recommendations")
	}
	// Sorted by votes.
	for i := 1; i < len(recs); i++ {
		if recs[i].Votes > recs[i-1].Votes {
			t.Error("recommendations not sorted by votes")
		}
	}
}

func TestRecommendHyperparameters(t *testing.T) {
	usages, embs, task := minedFixture(t)
	s := New(usages, embs, true)
	p := profiler.New()
	emb := p.TableEmbedding(task.Frame)
	recs := s.RecommendModels(emb)
	params := s.RecommendHyperparameters(emb, recs[0].Classifier)
	if len(params) == 0 {
		t.Fatalf("no hyperparameters for %s", recs[0].Classifier)
	}
	for name, v := range params {
		if name == "" || v < 0 {
			t.Errorf("bad param %q = %v", name, v)
		}
	}
}

func TestFitSeededVsUnseeded(t *testing.T) {
	usages, embs, task := minedFixture(t)
	p := profiler.New()
	emb := p.TableEmbedding(task.Frame)
	budget := 300 * time.Millisecond

	seeded := New(usages, embs, true)
	rSeeded, err := seeded.Fit(task.Frame, task.Target, emb, budget)
	if err != nil {
		t.Fatal(err)
	}
	unseeded := New(usages, embs, false)
	rUnseeded, err := unseeded.Fit(task.Frame, task.Target, emb, budget)
	if err != nil {
		t.Fatal(err)
	}
	if rSeeded.Trials == 0 || rUnseeded.Trials == 0 {
		t.Fatal("no trials executed")
	}
	if rSeeded.F1 < 0 || rUnseeded.F1 < 0 {
		t.Error("no score recorded")
	}
	// The dataset is learnable: both should beat 0.5 F1 comfortably.
	if rSeeded.F1 < 0.55 {
		t.Errorf("seeded F1 = %v", rSeeded.F1)
	}
}

func TestFitErrorOnBadTarget(t *testing.T) {
	usages, embs, task := minedFixture(t)
	s := New(usages, embs, true)
	if _, err := s.Fit(task.Frame, "nope", nil, time.Millisecond); err == nil {
		t.Error("bad target should error")
	}
}

func TestGridHelpers(t *testing.T) {
	grid := []float64{1, 5, 10, 50}
	if gridIndex(7, grid) != 1 && gridIndex(7, grid) != 2 {
		t.Errorf("gridIndex(7) = %d", gridIndex(7, grid))
	}
	if snapToGrid(49, grid) != 50 {
		t.Errorf("snap = %v", snapToGrid(49, grid))
	}
	if snapToGrid(3, nil) != 3 {
		t.Error("snap to empty grid should identity")
	}
}

func TestPortfolioComplete(t *testing.T) {
	for _, e := range Portfolio() {
		clf := e.Make(map[string]float64{
			"n_estimators": 5, "max_depth": 3, "C": 1, "max_iter": 10,
			"min_samples_split": 2, "n_neighbors": 3,
		})
		if clf == nil {
			t.Errorf("%s factory returned nil", e.Name)
		}
	}
}
