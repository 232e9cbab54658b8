package ml

import (
	"math"
	"math/rand"
	"sort"
)

// Accuracy returns the fraction of correct predictions.
func Accuracy(yTrue, yPred []float64) float64 {
	if len(yTrue) == 0 {
		return 0
	}
	correct := 0
	for i := range yTrue {
		if yTrue[i] == yPred[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(yTrue))
}

// F1 returns the F1 score: binary F1 (positive class = 1) when two classes
// are present, macro-averaged F1 otherwise, matching sklearn's defaults the
// paper evaluates with.
func F1(yTrue, yPred []float64) float64 {
	classes := classSet(yTrue, yPred)
	if len(classes) <= 2 {
		return binaryF1(yTrue, yPred, 1)
	}
	sum := 0.0
	for _, c := range classes {
		sum += binaryF1(yTrue, yPred, c)
	}
	return sum / float64(len(classes))
}

func classSet(ys ...[]float64) []float64 {
	seen := map[float64]bool{}
	var out []float64
	for _, y := range ys {
		for _, v := range y {
			if !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
	}
	sort.Float64s(out)
	return out
}

func binaryF1(yTrue, yPred []float64, pos float64) float64 {
	var tp, fp, fn float64
	for i := range yTrue {
		switch {
		case yPred[i] == pos && yTrue[i] == pos:
			tp++
		case yPred[i] == pos && yTrue[i] != pos:
			fp++
		case yPred[i] != pos && yTrue[i] == pos:
			fn++
		}
	}
	if tp == 0 {
		return 0
	}
	precision := tp / (tp + fp)
	recall := tp / (tp + fn)
	return 2 * precision * recall / (precision + recall)
}

// StratifiedKFold yields train/test index splits preserving class ratios,
// the cross-validation protocol of Tables 5 (10-fold) and 6 (5-fold).
func StratifiedKFold(y []float64, k int, seed int64) [][2][]int {
	rng := rand.New(rand.NewSource(seed))
	byClass := map[float64][]int{}
	for i, v := range y {
		byClass[v] = append(byClass[v], i)
	}
	classes := classSet(y)
	folds := make([][]int, k)
	for _, c := range classes {
		idx := byClass[c]
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		for i, v := range idx {
			folds[i%k] = append(folds[i%k], v)
		}
	}
	out := make([][2][]int, k)
	for f := 0; f < k; f++ {
		var train []int
		for g := 0; g < k; g++ {
			if g != f {
				train = append(train, folds[g]...)
			}
		}
		out[f] = [2][]int{train, folds[f]}
	}
	return out
}

// CrossValidate trains a fresh classifier per fold (via factory) and
// returns the mean of metric over folds.
func CrossValidate(factory func() Classifier, X [][]float64, y []float64, k int, metric func(a, b []float64) float64) float64 {
	if len(X) < k {
		k = len(X)
	}
	if k < 2 {
		k = 2
	}
	folds := StratifiedKFold(y, k, 7)
	total, n := 0.0, 0
	for _, fold := range folds {
		train, test := fold[0], fold[1]
		if len(train) == 0 || len(test) == 0 {
			continue
		}
		tx := gather(X, train)
		ty := gatherY(y, train)
		vx := gather(X, test)
		vy := gatherY(y, test)
		clf := factory()
		clf.Fit(tx, ty)
		total += metric(vy, clf.Predict(vx))
		n++
	}
	if n == 0 {
		return 0
	}
	return total / float64(n)
}

// TrainTestSplit splits rows deterministically with the given test
// fraction.
func TrainTestSplit(X [][]float64, y []float64, testFrac float64, seed int64) (trainX [][]float64, trainY []float64, testX [][]float64, testY []float64) {
	rng := rand.New(rand.NewSource(seed))
	idx := make([]int, len(X))
	for i := range idx {
		idx[i] = i
	}
	rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
	nTest := int(math.Round(testFrac * float64(len(X))))
	if nTest < 1 {
		nTest = 1
	}
	if nTest >= len(X) {
		nTest = len(X) - 1
	}
	testIdx, trainIdx := idx[:nTest], idx[nTest:]
	return gather(X, trainIdx), gatherY(y, trainIdx), gather(X, testIdx), gatherY(y, testIdx)
}

func gather(X [][]float64, idx []int) [][]float64 {
	out := make([][]float64, len(idx))
	for i, j := range idx {
		out[i] = X[j]
	}
	return out
}

func gatherY(y []float64, idx []int) []float64 {
	out := make([]float64, len(idx))
	for i, j := range idx {
		out[i] = y[j]
	}
	return out
}

// PairedTTest returns the two-tailed p-value of a paired t-test between
// score vectors a and b (the Figure 9 significance test).
func PairedTTest(a, b []float64) float64 {
	n := len(a)
	if n != len(b) || n < 2 {
		return 1
	}
	diffs := make([]float64, n)
	var mean float64
	for i := range a {
		diffs[i] = a[i] - b[i]
		mean += diffs[i]
	}
	mean /= float64(n)
	var ss float64
	for _, d := range diffs {
		ss += (d - mean) * (d - mean)
	}
	sd := math.Sqrt(ss / float64(n-1))
	if sd == 0 {
		if mean == 0 {
			return 1
		}
		return 0
	}
	t := mean / (sd / math.Sqrt(float64(n)))
	return 2 * studentTSF(math.Abs(t), float64(n-1))
}

// studentTSF is the survival function of Student's t-distribution computed
// via the regularized incomplete beta function.
func studentTSF(t, df float64) float64 {
	x := df / (df + t*t)
	return 0.5 * incompleteBeta(df/2, 0.5, x)
}

// incompleteBeta computes the regularized incomplete beta I_x(a, b) via the
// continued-fraction expansion (Numerical Recipes betacf).
func incompleteBeta(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	ln := lgamma(a+b) - lgamma(a) - lgamma(b) + a*math.Log(x) + b*math.Log(1-x)
	front := math.Exp(ln)
	if x < (a+1)/(a+b+2) {
		return front * betacf(a, b, x) / a
	}
	return 1 - front*betacf(b, a, 1-x)/b
}

func betacf(a, b, x float64) float64 {
	const maxIter = 200
	const eps = 3e-14
	qab, qap, qam := a+b, a+1, a-1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < 1e-30 {
		d = 1e-30
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		m2 := float64(2 * m)
		aa := float64(m) * (b - float64(m)) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < 1e-30 {
			d = 1e-30
		}
		c = 1 + aa/c
		if math.Abs(c) < 1e-30 {
			c = 1e-30
		}
		d = 1 / d
		h *= d * c
		aa = -(a + float64(m)) * (qab + float64(m)) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < 1e-30 {
			d = 1e-30
		}
		c = 1 + aa/c
		if math.Abs(c) < 1e-30 {
			c = 1e-30
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}

func lgamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}
