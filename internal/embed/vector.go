// Package embed implements KGLiDS's embedding models (paper Section 3.2):
// word embeddings for column-label similarity, CoLR (Column Learned
// Representation) content encoders producing 300-dimensional column
// embeddings per fine-grained type, and table/dataset embeddings via
// per-type aggregation (Eq. 1).
//
// The paper's CoLR models are neural networks trained on 5,500 Kaggle and
// OpenML tables; its label model combines GloVe with a WordNet-based
// semantic similarity. Neither resource is available offline, so this
// package substitutes deterministic encoders engineered to have the same
// invariances the trained models are used for (see DESIGN.md §2): value
// overlap and distribution similarity for content, synonymy and
// morphological closeness for labels.
package embed

import (
	"math"
	"strconv"
)

// Dim is the CoLR embedding dimensionality used throughout KGLiDS.
const Dim = 300

// WordDim is the label (word) embedding dimensionality.
const WordDim = 50

// Vector is a dense embedding.
type Vector []float64

// NewVector returns a zero vector of length n.
func NewVector(n int) Vector { return make(Vector, n) }

// Add accumulates o into v.
func (v Vector) Add(o Vector) {
	for i := range v {
		v[i] += o[i]
	}
}

// Scale multiplies v in place.
func (v Vector) Scale(f float64) {
	for i := range v {
		v[i] *= f
	}
}

// Dot returns the inner product.
func (v Vector) Dot(o Vector) float64 {
	s := 0.0
	for i := range v {
		s += v[i] * o[i]
	}
	return s
}

// Norm returns the L2 norm.
func (v Vector) Norm() float64 { return math.Sqrt(v.Dot(v)) }

// Normalize scales v to unit norm (no-op for zero vectors).
func (v Vector) Normalize() {
	n := v.Norm()
	if n > 0 {
		v.Scale(1 / n)
	}
}

// Clone returns a copy of v.
func (v Vector) Clone() Vector {
	out := make(Vector, len(v))
	copy(out, v)
	return out
}

// Cosine returns the cosine similarity of a and b (0 for zero vectors).
func Cosine(a, b Vector) float64 {
	na, nb := a.Norm(), b.Norm()
	if na == 0 || nb == 0 {
		return 0
	}
	return a.Dot(b) / (na * nb)
}

// Features are hashed with 64-bit FNV-1a, written out here so that a key
// is hashed in pieces, without building it as a string or allocating a
// hasher. A key is a prefix ("tri:", "val:", ...) and a suffix; hashing
// the suffix from the prefix's seed gives the same hash as hashing the
// whole key.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// fnv1a continues the FNV-1a state h over the bytes of s.
func fnv1a[T string | []byte](h uint64, s T) uint64 {
	for i := 0; i < len(s); i++ {
		h = fnvByte(h, s[i])
	}
	return h
}

func fnvByte(h uint64, c byte) uint64 { return (h ^ uint64(c)) * fnvPrime }

// fnvInt continues h over the decimal digits of n.
func fnvInt(h uint64, n int) uint64 {
	var buf [20]byte
	return fnv1a(h, strconv.AppendInt(buf[:0], int64(n), 10))
}

// Hash64 is the 64-bit FNV-1a hash of s, the value hash/fnv's New64a
// gives for []byte(s). The hash of a key prefix is the seed that fnv1a
// continues from to hash the whole key.
func Hash64(s string) uint64 { return fnv1a(fnvOffset, s) }

// addHash adds a feature with hash h and the given weight into v: the
// standard feature-hashing construction, dimension h mod len(v) and sign
// from the top bit. CoLR vectors take the constant-divisor branch, which
// compiles to a multiply instead of a division.
func addHash(v Vector, h uint64, weight float64) {
	var i uint64
	if len(v) == Dim {
		i = h % Dim
	} else {
		i = h % uint64(len(v))
	}
	sign := 1.0
	if h>>63 == 1 {
		sign = -1.0
	}
	v[i] += sign * weight
}

var seedTri = Hash64("tri:")

// addTrigrams adds the byte trigrams of "^"+s+"$" as "tri:" features,
// reading the two padding bytes in place instead of building the padded
// string.
func addTrigrams(v Vector, s string, weight float64) {
	for i := 0; i+3 <= len(s)+2; i++ {
		h := fnvByte(seedTri, paddedByte(s, i))
		h = fnvByte(h, paddedByte(s, i+1))
		addHash(v, fnvByte(h, paddedByte(s, i+2)), weight)
	}
}

// paddedByte is byte j of "^"+s+"$".
func paddedByte(s string, j int) byte {
	switch j {
	case 0:
		return '^'
	case len(s) + 1:
		return '$'
	}
	return s[j-1]
}
