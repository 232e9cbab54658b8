// Package gnn implements the graph neural network substrate of KGLiDS's
// on-demand automation (paper Section 4): one-layer message-passing node
// classification over subgraphs of the LiDS graph (table/column nodes
// initialized with CoLR embeddings, operation nodes as classes), trained
// with GraphSAINT-style node-sampled minibatches. The original uses
// PyTorch Geometric; this is an exact small-scale reimplementation (the
// paper's models are single-layer, Section 4.2).
package gnn

import (
	"fmt"
	"math"
	"math/rand"
)

// Graph is the training/inference graph: per-node dense features, an
// undirected adjacency list, and integer labels (-1 for unlabeled nodes).
type Graph struct {
	Features [][]float64
	Adj      [][]int
	Labels   []int
}

// AddEdge links nodes u and v in both directions.
func (g *Graph) AddEdge(u, v int) {
	g.Adj[u] = append(g.Adj[u], v)
	g.Adj[v] = append(g.Adj[v], u)
}

// NewGraph allocates a graph with n nodes of the given feature dimension.
func NewGraph(n, dim int) *Graph {
	g := &Graph{
		Features: make([][]float64, n),
		Adj:      make([][]int, n),
		Labels:   make([]int, n),
	}
	for i := range g.Features {
		g.Features[i] = make([]float64, dim)
		g.Labels[i] = -1
	}
	return g
}

// Config holds GNN hyperparameters.
type Config struct {
	InputDim  int
	HiddenDim int
	Classes   int
	LR        float64
	Epochs    int
	BatchSize int // GraphSAINT node-sample size per step
	Seed      int64
}

// DefaultConfig returns the configuration used by the cleaning and
// transformation models (1800-d input per Section 4.2).
func DefaultConfig(inputDim, classes int) Config {
	return Config{
		InputDim:  inputDim,
		HiddenDim: 64,
		Classes:   classes,
		LR:        0.05,
		Epochs:    60,
		BatchSize: 64,
		Seed:      23,
	}
}

// Model is a one-layer message-passing GNN with a softmax head:
//
//	h_v = ReLU(Wself·x_v + Wagg·mean_{u∈N(v)} x_u + b1)
//	p_v = softmax(Wout·h_v + b2)
type Model struct {
	Cfg   Config
	Wself [][]float64
	Wagg  [][]float64
	B1    []float64
	Wout  [][]float64
	B2    []float64
}

// NewModel initializes a model with Xavier-style random weights.
func NewModel(cfg Config) *Model {
	rng := rand.New(rand.NewSource(cfg.Seed))
	initMat := func(rows, cols int) [][]float64 {
		scale := math.Sqrt(2.0 / float64(rows+cols))
		m := make([][]float64, rows)
		for i := range m {
			m[i] = make([]float64, cols)
			for j := range m[i] {
				m[i][j] = rng.NormFloat64() * scale
			}
		}
		return m
	}
	return &Model{
		Cfg:   cfg,
		Wself: initMat(cfg.HiddenDim, cfg.InputDim),
		Wagg:  initMat(cfg.HiddenDim, cfg.InputDim),
		B1:    make([]float64, cfg.HiddenDim),
		Wout:  initMat(cfg.Classes, cfg.HiddenDim),
		B2:    make([]float64, cfg.Classes),
	}
}

// neighborMean computes the mean feature vector of a node's neighbours
// (zero vector for isolated nodes).
func neighborMean(g *Graph, v int) []float64 {
	out := make([]float64, len(g.Features[v]))
	if len(g.Adj[v]) == 0 {
		return out
	}
	for _, u := range g.Adj[v] {
		for j, x := range g.Features[u] {
			out[j] += x
		}
	}
	inv := 1.0 / float64(len(g.Adj[v]))
	for j := range out {
		out[j] *= inv
	}
	return out
}

// forward computes hidden activations and class probabilities for node v.
func (m *Model) forward(x, agg []float64) (hidden, probs []float64) {
	hidden = make([]float64, m.Cfg.HiddenDim)
	for i := 0; i < m.Cfg.HiddenDim; i++ {
		s := m.B1[i]
		wSelf, wAgg := m.Wself[i], m.Wagg[i]
		for j, xv := range x {
			s += wSelf[j] * xv
		}
		for j, av := range agg {
			s += wAgg[j] * av
		}
		if s > 0 {
			hidden[i] = s
		}
	}
	logits := make([]float64, m.Cfg.Classes)
	for c := 0; c < m.Cfg.Classes; c++ {
		s := m.B2[c]
		for i, h := range hidden {
			s += m.Wout[c][i] * h
		}
		logits[c] = s
	}
	return hidden, softmax(logits)
}

func softmax(logits []float64) []float64 {
	maxL := logits[0]
	for _, l := range logits[1:] {
		if l > maxL {
			maxL = l
		}
	}
	sum := 0.0
	out := make([]float64, len(logits))
	for i, l := range logits {
		out[i] = math.Exp(l - maxL)
		sum += out[i]
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

// Train fits the model on the labeled nodes of g with node-sampled
// minibatch SGD (the GraphSAINT training substitution) and returns the
// final average cross-entropy loss.
func (m *Model) Train(g *Graph) float64 {
	var labeled []int
	for v, l := range g.Labels {
		if l >= 0 {
			labeled = append(labeled, v)
		}
	}
	if len(labeled) == 0 {
		return 0
	}
	rng := rand.New(rand.NewSource(m.Cfg.Seed + 1))
	lastLoss := 0.0
	for epoch := 0; epoch < m.Cfg.Epochs; epoch++ {
		rng.Shuffle(len(labeled), func(i, j int) { labeled[i], labeled[j] = labeled[j], labeled[i] })
		totalLoss := 0.0
		for start := 0; start < len(labeled); start += m.Cfg.BatchSize {
			end := start + m.Cfg.BatchSize
			if end > len(labeled) {
				end = len(labeled)
			}
			batch := labeled[start:end]
			totalLoss += m.step(g, batch)
		}
		lastLoss = totalLoss / float64(len(labeled))
	}
	return lastLoss
}

// step runs one SGD step over a node batch and returns its summed loss.
func (m *Model) step(g *Graph, batch []int) float64 {
	gradWself := zeros(m.Cfg.HiddenDim, m.Cfg.InputDim)
	gradWagg := zeros(m.Cfg.HiddenDim, m.Cfg.InputDim)
	gradB1 := make([]float64, m.Cfg.HiddenDim)
	gradWout := zeros(m.Cfg.Classes, m.Cfg.HiddenDim)
	gradB2 := make([]float64, m.Cfg.Classes)
	loss := 0.0
	for _, v := range batch {
		x := g.Features[v]
		agg := neighborMean(g, v)
		hidden, probs := m.forward(x, agg)
		label := g.Labels[v]
		loss -= math.Log(probs[label] + 1e-12)
		// dL/dlogit_c = p_c - [c == label]
		dLogits := make([]float64, m.Cfg.Classes)
		copy(dLogits, probs)
		dLogits[label]--
		for c := 0; c < m.Cfg.Classes; c++ {
			gradB2[c] += dLogits[c]
			for i, h := range hidden {
				gradWout[c][i] += dLogits[c] * h
			}
		}
		// Backprop into hidden (ReLU mask).
		dHidden := make([]float64, m.Cfg.HiddenDim)
		for i := range dHidden {
			if hidden[i] <= 0 {
				continue
			}
			s := 0.0
			for c := 0; c < m.Cfg.Classes; c++ {
				s += dLogits[c] * m.Wout[c][i]
			}
			dHidden[i] = s
		}
		for i, dh := range dHidden {
			if dh == 0 {
				continue
			}
			gradB1[i] += dh
			gWs, gWa := gradWself[i], gradWagg[i]
			for j, xv := range x {
				gWs[j] += dh * xv
			}
			for j, av := range agg {
				gWa[j] += dh * av
			}
		}
	}
	scale := m.Cfg.LR / float64(len(batch))
	applyGrad(m.Wself, gradWself, scale)
	applyGrad(m.Wagg, gradWagg, scale)
	applyGrad(m.Wout, gradWout, scale)
	for i := range m.B1 {
		m.B1[i] -= scale * gradB1[i]
	}
	for i := range m.B2 {
		m.B2[i] -= scale * gradB2[i]
	}
	return loss
}

func zeros(rows, cols int) [][]float64 {
	m := make([][]float64, rows)
	for i := range m {
		m[i] = make([]float64, cols)
	}
	return m
}

func applyGrad(w, g [][]float64, scale float64) {
	for i := range w {
		wi, gi := w[i], g[i]
		for j := range wi {
			wi[j] -= scale * gi[j]
		}
	}
}

// PredictVector classifies an out-of-graph feature vector (the inference
// path of Section 4.1: an unseen dataset's embedding, no neighbours yet).
func (m *Model) PredictVector(x []float64) []float64 {
	if len(x) != m.Cfg.InputDim {
		panic(fmt.Sprintf("gnn: feature dim %d, model expects %d", len(x), m.Cfg.InputDim))
	}
	_, probs := m.forward(x, make([]float64, m.Cfg.InputDim))
	return probs
}

// Argmax returns the index of the largest probability.
func Argmax(probs []float64) int {
	best := 0
	for i, p := range probs {
		if p > probs[best] {
			best = i
		}
	}
	return best
}
