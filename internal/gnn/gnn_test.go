package gnn

import (
	"math"
	"math/rand"
	"testing"
)

// clusterGraph builds a graph whose node features fall into c Gaussian
// clusters; labels follow the cluster.
func clusterGraph(n, dim, classes int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	g := NewGraph(n, dim)
	for v := 0; v < n; v++ {
		c := v % classes
		for j := 0; j < dim; j++ {
			g.Features[v][j] = rng.NormFloat64() * 0.3
		}
		// Shift a class-specific block.
		base := c * (dim / classes)
		for j := base; j < base+dim/classes; j++ {
			g.Features[v][j] += 2.0
		}
		g.Labels[v] = c
	}
	return g
}

func TestTrainSeparableClusters(t *testing.T) {
	g := clusterGraph(200, 32, 4, 1)
	cfg := DefaultConfig(32, 4)
	cfg.Epochs = 80
	m := NewModel(cfg)
	loss := m.Train(g)
	if loss > 0.3 {
		t.Errorf("final loss = %v", loss)
	}
	idx := make([]int, g.NumNodes())
	for i := range idx {
		idx[i] = i
	}
	if acc := m.AccuracyOn(g, idx); acc < 0.95 {
		t.Errorf("train accuracy = %v", acc)
	}
}

func TestPredictVectorMatchesIsolatedNode(t *testing.T) {
	g := clusterGraph(100, 16, 2, 2)
	cfg := DefaultConfig(16, 2)
	m := NewModel(cfg)
	m.Train(g)
	// An isolated node's PredictNode equals PredictVector on its features.
	v := 7
	g2 := NewGraph(1, 16)
	copy(g2.Features[0], g.Features[v])
	pn := m.PredictNode(g2, 0)
	pv := m.PredictVector(g.Features[v])
	for i := range pn {
		if math.Abs(pn[i]-pv[i]) > 1e-12 {
			t.Fatal("isolated PredictNode != PredictVector")
		}
	}
}

func TestNeighborAggregationMatters(t *testing.T) {
	// Node features are uninformative; the label is carried by a feature
	// on an attached "operation" node. Only aggregation can solve this.
	rng := rand.New(rand.NewSource(3))
	const n = 120
	g := NewGraph(2*n, 8)
	for v := 0; v < n; v++ {
		label := v % 2
		for j := 0; j < 8; j++ {
			g.Features[v][j] = rng.NormFloat64() * 0.01
		}
		op := n + v
		g.Features[op][label] = 3.0
		g.AddEdge(v, op)
		g.Labels[v] = label
	}
	cfg := DefaultConfig(8, 2)
	cfg.Epochs = 150
	m := NewModel(cfg)
	m.Train(g)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	if acc := m.AccuracyOn(g, idx); acc < 0.9 {
		t.Errorf("aggregation accuracy = %v; neighbour information not used", acc)
	}
}

func TestSoftmaxProperties(t *testing.T) {
	p := softmax([]float64{1, 2, 3})
	sum := 0.0
	for _, v := range p {
		sum += v
		if v <= 0 || v >= 1 {
			t.Errorf("softmax value %v out of (0,1)", v)
		}
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("softmax sum = %v", sum)
	}
	if !(p[2] > p[1] && p[1] > p[0]) {
		t.Error("softmax ordering wrong")
	}
	// Large logits must not overflow.
	p = softmax([]float64{1000, 1001})
	if math.IsNaN(p[0]) || math.IsNaN(p[1]) {
		t.Error("softmax overflow")
	}
}

func TestUnlabeledNodesIgnored(t *testing.T) {
	g := clusterGraph(50, 8, 2, 4)
	for v := 25; v < 50; v++ {
		g.Labels[v] = -1
	}
	m := NewModel(DefaultConfig(8, 2))
	if loss := m.Train(g); math.IsNaN(loss) {
		t.Error("loss is NaN with unlabeled nodes")
	}
}

func TestEmptyGraphTrain(t *testing.T) {
	g := NewGraph(0, 4)
	m := NewModel(DefaultConfig(4, 2))
	if loss := m.Train(g); loss != 0 {
		t.Errorf("empty-graph loss = %v", loss)
	}
}

func TestDeterministicTraining(t *testing.T) {
	g := clusterGraph(80, 8, 2, 5)
	m1 := NewModel(DefaultConfig(8, 2))
	m2 := NewModel(DefaultConfig(8, 2))
	l1, l2 := m1.Train(g), m2.Train(g)
	if l1 != l2 {
		t.Errorf("training not deterministic: %v vs %v", l1, l2)
	}
}

func TestArgmax(t *testing.T) {
	if Argmax([]float64{0.1, 0.7, 0.2}) != 1 {
		t.Error("argmax wrong")
	}
	if Argmax([]float64{0.9}) != 0 {
		t.Error("single-element argmax wrong")
	}
}

func TestPredictVectorDimCheck(t *testing.T) {
	m := NewModel(DefaultConfig(8, 2))
	defer func() {
		if recover() == nil {
			t.Error("dimension mismatch should panic")
		}
	}()
	m.PredictVector(make([]float64, 4))
}

// NumNodes returns the node count.
func (g *Graph) NumNodes() int { return len(g.Features) }

// PredictNode returns class probabilities for node v of g.
func (m *Model) PredictNode(g *Graph, v int) []float64 {
	_, probs := m.forward(g.Features[v], neighborMean(g, v))
	return probs
}

// AccuracyOn evaluates node-classification accuracy over the labeled nodes
// in idx.
func (m *Model) AccuracyOn(g *Graph, idx []int) float64 {
	if len(idx) == 0 {
		return 0
	}
	correct := 0
	for _, v := range idx {
		if Argmax(m.PredictNode(g, v)) == g.Labels[v] {
			correct++
		}
	}
	return float64(correct) / float64(len(idx))
}
