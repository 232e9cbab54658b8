package ml

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// blobs generates two well-separated Gaussian clusters.
func blobs(n int, rng *rand.Rand) ([][]float64, []float64) {
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		c := float64(i % 2)
		cx, cy := 0.0, 0.0
		if c == 1 {
			cx, cy = 4.0, 4.0
		}
		X[i] = []float64{cx + rng.NormFloat64(), cy + rng.NormFloat64()}
		y[i] = c
	}
	return X, y
}

// xorData is not linearly separable; trees must handle it.
func xorData(n int, rng *rand.Rand) ([][]float64, []float64) {
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		a, b := rng.Float64(), rng.Float64()
		X[i] = []float64{a, b}
		if (a > 0.5) != (b > 0.5) {
			y[i] = 1
		}
	}
	return X, y
}

func TestDecisionTreeBlobs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	X, y := blobs(200, rng)
	tree := NewDecisionTree(TreeConfig{MaxDepth: 5})
	tree.Fit(X, y)
	if acc := Accuracy(y, tree.Predict(X)); acc < 0.95 {
		t.Errorf("train accuracy = %v", acc)
	}
}

func TestDecisionTreeXOR(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	X, y := xorData(400, rng)
	tree := NewDecisionTree(TreeConfig{MaxDepth: 6})
	tree.Fit(X, y)
	if acc := Accuracy(y, tree.Predict(X)); acc < 0.9 {
		t.Errorf("XOR accuracy = %v (trees should fit XOR)", acc)
	}
}

func TestDecisionTreeMaxDepth(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	X, y := xorData(200, rng)
	tree := NewDecisionTree(TreeConfig{MaxDepth: 2})
	tree.Fit(X, y)
	if d := tree.Depth(); d > 2 {
		t.Errorf("depth = %d exceeds max 2", d)
	}
}

func TestRandomForest(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	X, y := xorData(400, rng)
	f := NewRandomForest(20)
	f.Fit(X, y)
	if acc := Accuracy(y, f.Predict(X)); acc < 0.9 {
		t.Errorf("forest accuracy = %v", acc)
	}
}

func TestRandomForestDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	X, y := blobs(100, rng)
	f1 := NewRandomForest(10)
	f1.Fit(X, y)
	f2 := NewRandomForest(10)
	f2.Fit(X, y)
	p1, p2 := f1.Predict(X), f2.Predict(X)
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatal("forest not deterministic with same seed")
		}
	}
}

func TestLogisticRegression(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	X, y := blobs(200, rng)
	m := NewLogisticRegression()
	m.Fit(X, y)
	if acc := Accuracy(y, m.Predict(X)); acc < 0.95 {
		t.Errorf("logreg accuracy = %v", acc)
	}
}

func TestLogisticRegressionMulticlass(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var X [][]float64
	var y []float64
	centers := [][2]float64{{0, 0}, {5, 0}, {0, 5}}
	for i := 0; i < 300; i++ {
		c := i % 3
		X = append(X, []float64{centers[c][0] + rng.NormFloat64()*0.5, centers[c][1] + rng.NormFloat64()*0.5})
		y = append(y, float64(c))
	}
	m := NewLogisticRegression()
	m.Fit(X, y)
	if acc := Accuracy(y, m.Predict(X)); acc < 0.95 {
		t.Errorf("multiclass accuracy = %v", acc)
	}
}

func TestKNN(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	X, y := blobs(200, rng)
	m := NewKNN(5)
	m.Fit(X, y)
	if acc := Accuracy(y, m.Predict(X)); acc < 0.95 {
		t.Errorf("knn accuracy = %v", acc)
	}
}

func TestGaussianNB(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	X, y := blobs(200, rng)
	m := NewGaussianNB()
	m.Fit(X, y)
	if acc := Accuracy(y, m.Predict(X)); acc < 0.95 {
		t.Errorf("nb accuracy = %v", acc)
	}
}

func TestMetrics(t *testing.T) {
	yt := []float64{1, 1, 0, 0, 1}
	yp := []float64{1, 0, 0, 1, 1}
	if got := Accuracy(yt, yp); got != 0.6 {
		t.Errorf("accuracy = %v", got)
	}
	// tp=2, fp=1, fn=1 → p=2/3, r=2/3, f1=2/3.
	if got := F1(yt, yp); math.Abs(got-2.0/3) > 1e-9 {
		t.Errorf("f1 = %v", got)
	}
	if Accuracy(nil, nil) != 0 {
		t.Error("empty accuracy")
	}
}

func TestMacroF1Multiclass(t *testing.T) {
	yt := []float64{0, 1, 2, 0, 1, 2}
	yp := []float64{0, 1, 2, 0, 1, 2}
	if got := F1(yt, yp); got != 1 {
		t.Errorf("perfect macro F1 = %v", got)
	}
	yp2 := []float64{0, 0, 0, 0, 0, 0}
	if got := F1(yt, yp2); got >= 0.5 {
		t.Errorf("degenerate macro F1 = %v", got)
	}
}

func TestStratifiedKFold(t *testing.T) {
	y := make([]float64, 100)
	for i := range y {
		if i < 20 {
			y[i] = 1
		}
	}
	folds := StratifiedKFold(y, 5, 1)
	if len(folds) != 5 {
		t.Fatalf("folds = %d", len(folds))
	}
	for _, f := range folds {
		train, test := f[0], f[1]
		if len(train)+len(test) != 100 {
			t.Errorf("fold sizes %d + %d != 100", len(train), len(test))
		}
		pos := 0
		for _, i := range test {
			if y[i] == 1 {
				pos++
			}
		}
		if pos != 4 { // 20% of each fold of 20
			t.Errorf("fold positive count = %d, want 4", pos)
		}
		// No overlap.
		seen := map[int]bool{}
		for _, i := range train {
			seen[i] = true
		}
		for _, i := range test {
			if seen[i] {
				t.Error("train/test overlap")
			}
		}
	}
}

func TestCrossValidate(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	X, y := blobs(150, rng)
	score := CrossValidate(func() Classifier { return NewKNN(5) }, X, y, 5, Accuracy)
	if score < 0.9 {
		t.Errorf("cv score = %v", score)
	}
}

func TestTrainTestSplit(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	X, y := blobs(100, rng)
	tx, ty, vx, vy := TrainTestSplit(X, y, 0.2, 1)
	if len(vx) != 20 || len(tx) != 80 || len(ty) != 80 || len(vy) != 20 {
		t.Errorf("split sizes: %d/%d", len(tx), len(vx))
	}
}

func TestPairedTTest(t *testing.T) {
	// Identical scores: p = 1.
	a := []float64{0.8, 0.7, 0.9, 0.85}
	if p := PairedTTest(a, a); p != 1 {
		t.Errorf("identical p = %v", p)
	}
	// Consistently better scores: small p.
	b := make([]float64, 20)
	c := make([]float64, 20)
	rng := rand.New(rand.NewSource(12))
	for i := range b {
		b[i] = 0.8 + rng.Float64()*0.02
		c[i] = b[i] - 0.05
	}
	if p := PairedTTest(b, c); p > 0.01 {
		t.Errorf("strong difference p = %v, want < 0.01", p)
	}
	// Noise: p should not be tiny.
	d := make([]float64, 20)
	e := make([]float64, 20)
	for i := range d {
		d[i] = rng.Float64()
		e[i] = rng.Float64()
	}
	if p := PairedTTest(d, e); p < 0.001 {
		t.Errorf("noise p = %v unexpectedly small", p)
	}
}

func TestIncompleteBetaBounds(t *testing.T) {
	f := func(x float64) bool {
		x = math.Mod(math.Abs(x), 1)
		v := incompleteBeta(2, 3, x)
		return v >= 0 && v <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if incompleteBeta(2, 3, 0) != 0 || incompleteBeta(2, 3, 1) != 1 {
		t.Error("beta boundary values wrong")
	}
}

func TestSingleClassDegenerate(t *testing.T) {
	X := [][]float64{{1}, {2}, {3}}
	y := []float64{0, 0, 0}
	tree := NewDecisionTree(TreeConfig{})
	tree.Fit(X, y)
	for _, p := range tree.Predict(X) {
		if p != 0 {
			t.Error("single-class prediction wrong")
		}
	}
}

// Depth returns the tree depth (diagnostics).
func (t *DecisionTree) Depth() int { return depthOf(t.root) }

func depthOf(n *treeNode) int {
	if n == nil || n.leaf {
		return 0
	}
	l, r := depthOf(n.left), depthOf(n.right)
	return 1 + int(math.Max(float64(l), float64(r)))
}
