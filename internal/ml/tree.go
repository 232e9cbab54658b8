// Package ml is the machine-learning substrate of the reproduction: CART
// decision trees, random forests, logistic regression, k-nearest
// neighbours, and Gaussian naive Bayes, with stratified cross-validation
// and classification metrics. The paper's evaluations train scikit-learn
// random forests on cleaned/transformed datasets (Tables 5 and 6) and use a
// portfolio of classifiers for AutoML (Figure 9); this package provides the
// equivalent models in pure Go.
package ml

import (
	"math/rand"
	"sort"
)

// Classifier is the common interface of all models.
type Classifier interface {
	// Fit trains on features X and integer class labels y.
	Fit(X [][]float64, y []float64)
	// Predict returns the predicted class label per row.
	Predict(X [][]float64) []float64
}

// TreeConfig controls decision-tree induction.
type TreeConfig struct {
	MaxDepth        int // 0 means unlimited
	MinSamplesSplit int
	MinSamplesLeaf  int
	// MaxFeatures is the number of features considered per split; 0 means
	// all features (sqrt is used by the random forest).
	MaxFeatures int
	// Rng drives feature subsampling; nil uses a fixed seed.
	Rng *rand.Rand
}

// DecisionTree is a CART classifier with Gini impurity.
type DecisionTree struct {
	Config TreeConfig
	root   *treeNode
	nClass int
}

type treeNode struct {
	feature int
	thresh  float64
	left    *treeNode
	right   *treeNode
	// leaf prediction
	class float64
	leaf  bool
}

// NewDecisionTree returns a tree with the given configuration.
func NewDecisionTree(cfg TreeConfig) *DecisionTree {
	if cfg.MinSamplesSplit < 2 {
		cfg.MinSamplesSplit = 2
	}
	if cfg.MinSamplesLeaf < 1 {
		cfg.MinSamplesLeaf = 1
	}
	if cfg.Rng == nil {
		cfg.Rng = rand.New(rand.NewSource(1))
	}
	return &DecisionTree{Config: cfg}
}

// Fit implements Classifier.
func (t *DecisionTree) Fit(X [][]float64, y []float64) {
	t.nClass = countClasses(y)
	idx := make([]int, len(X))
	for i := range idx {
		idx[i] = i
	}
	t.root = t.build(X, y, idx, 0)
}

func countClasses(y []float64) int {
	maxC := 0
	for _, v := range y {
		if int(v) > maxC {
			maxC = int(v)
		}
	}
	return maxC + 1
}

func (t *DecisionTree) build(X [][]float64, y []float64, idx []int, depth int) *treeNode {
	counts := make([]int, t.nClass+1)
	for _, i := range idx {
		c := int(y[i])
		if c < 0 {
			c = 0
		}
		if c >= len(counts) {
			c = len(counts) - 1
		}
		counts[c]++
	}
	majority, best := 0, -1
	pure := true
	nonzero := 0
	for c, n := range counts {
		if n > best {
			best, majority = n, c
		}
		if n > 0 {
			nonzero++
		}
	}
	if nonzero > 1 {
		pure = false
	}
	if pure || len(idx) < t.Config.MinSamplesSplit || (t.Config.MaxDepth > 0 && depth >= t.Config.MaxDepth) {
		return &treeNode{leaf: true, class: float64(majority)}
	}
	feature, thresh, gain := t.bestSplit(X, y, idx)
	if gain <= 0 {
		return &treeNode{leaf: true, class: float64(majority)}
	}
	var left, right []int
	for _, i := range idx {
		if X[i][feature] <= thresh {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) < t.Config.MinSamplesLeaf || len(right) < t.Config.MinSamplesLeaf {
		return &treeNode{leaf: true, class: float64(majority)}
	}
	return &treeNode{
		feature: feature,
		thresh:  thresh,
		left:    t.build(X, y, left, depth+1),
		right:   t.build(X, y, right, depth+1),
	}
}

// bestSplit scans candidate features for the Gini-optimal threshold.
func (t *DecisionTree) bestSplit(X [][]float64, y []float64, idx []int) (feature int, thresh, gain float64) {
	nFeat := len(X[0])
	features := make([]int, nFeat)
	for i := range features {
		features[i] = i
	}
	if t.Config.MaxFeatures > 0 && t.Config.MaxFeatures < nFeat {
		t.Config.Rng.Shuffle(nFeat, func(i, j int) { features[i], features[j] = features[j], features[i] })
		features = features[:t.Config.MaxFeatures]
	}
	parentGini := giniOf(y, idx, t.nClass)
	bestGain := 0.0
	bestFeature, bestThresh := -1, 0.0

	type fv struct {
		v float64
		c int
	}
	vals := make([]fv, 0, len(idx))
	for _, f := range features {
		vals = vals[:0]
		for _, i := range idx {
			vals = append(vals, fv{v: X[i][f], c: int(y[i])})
		}
		sort.Slice(vals, func(a, b int) bool { return vals[a].v < vals[b].v })
		// Sweep thresholds between distinct values maintaining class counts.
		leftCounts := make([]int, t.nClass+1)
		rightCounts := make([]int, t.nClass+1)
		for _, x := range vals {
			c := clampClass(x.c, t.nClass)
			rightCounts[c]++
		}
		nLeft, nRight := 0, len(vals)
		for k := 0; k < len(vals)-1; k++ {
			c := clampClass(vals[k].c, t.nClass)
			leftCounts[c]++
			rightCounts[c]--
			nLeft++
			nRight--
			if vals[k].v == vals[k+1].v {
				continue
			}
			g := parentGini - (float64(nLeft)*giniCounts(leftCounts, nLeft)+float64(nRight)*giniCounts(rightCounts, nRight))/float64(len(vals))
			if g > bestGain {
				bestGain = g
				bestFeature = f
				bestThresh = (vals[k].v + vals[k+1].v) / 2
			}
		}
		for i := range leftCounts {
			leftCounts[i], rightCounts[i] = 0, 0
		}
	}
	if bestFeature < 0 {
		return 0, 0, 0
	}
	return bestFeature, bestThresh, bestGain
}

func clampClass(c, nClass int) int {
	if c < 0 {
		return 0
	}
	if c > nClass {
		return nClass
	}
	return c
}

func giniOf(y []float64, idx []int, nClass int) float64 {
	counts := make([]int, nClass+1)
	for _, i := range idx {
		counts[clampClass(int(y[i]), nClass)]++
	}
	return giniCounts(counts, len(idx))
}

func giniCounts(counts []int, n int) float64 {
	if n == 0 {
		return 0
	}
	g := 1.0
	for _, c := range counts {
		p := float64(c) / float64(n)
		g -= p * p
	}
	return g
}

// Predict implements Classifier.
func (t *DecisionTree) Predict(X [][]float64) []float64 {
	out := make([]float64, len(X))
	for i, row := range X {
		out[i] = t.predictRow(row)
	}
	return out
}

func (t *DecisionTree) predictRow(row []float64) float64 {
	n := t.root
	if n == nil {
		return 0
	}
	for !n.leaf {
		if row[n.feature] <= n.thresh {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.class
}
