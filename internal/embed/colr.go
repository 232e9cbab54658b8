package embed

import (
	"cmp"
	"math"
	"slices"
	"strconv"
	"strings"
	"time"
	"unicode"
	"unicode/utf8"
)

// Type is the fine-grained column data type inferred by the profiler
// (paper Section 3.2): 7 types; all except boolean receive CoLR embeddings,
// and the table embedding concatenates the 6 embedded types (Section 4.2).
type Type string

// The seven fine-grained types.
const (
	TypeInt             Type = "int"
	TypeFloat           Type = "float"
	TypeBoolean         Type = "boolean"
	TypeDate            Type = "date"
	TypeNamedEntity     Type = "named_entity"
	TypeNaturalLanguage Type = "natural_language"
	TypeString          Type = "string"
)

// EmbeddedTypes lists the fine-grained types that receive CoLR embeddings,
// in the canonical concatenation order of Eq. (1). len == 6, so table
// embeddings have 6*Dim = 1800 dimensions.
var EmbeddedTypes = []Type{TypeInt, TypeFloat, TypeDate, TypeNamedEntity, TypeNaturalLanguage, TypeString}

// AllTypes lists all seven fine-grained types.
var AllTypes = []Type{TypeInt, TypeFloat, TypeBoolean, TypeDate, TypeNamedEntity, TypeNaturalLanguage, TypeString}

// TableDim is the dimensionality of table/dataset embeddings (Eq. 1).
const TableDim = Dim * 6 // 1800

// CoLR generates column content embeddings. One encoder exists per
// fine-grained type, matching the paper's per-type models H_{θ,T}.
//
// The trained models' purpose is that two columns embed close when their
// raw values overlap, their distributions are similar, or they measure the
// same variable in different units. The substituted encoders realize those
// invariances directly:
//
//   - string-like types hash character trigrams and whole values, so raw
//     value overlap produces shared dimensions;
//   - numeric types combine a z-scored soft histogram (unit-invariant
//     distribution shape) with soft log-magnitude features (raw-scale
//     overlap);
//   - dates decompose into calendar features.
type CoLR struct {
	// SampleFraction is the fraction of values sampled per column
	// (Algorithm 2 line 9; the paper uses 10%).
	SampleFraction float64
	// MinSample is the minimum sample size (paper: 1000).
	MinSample int
	// Subsample toggles sampling; the Figure 6 ablation disables it.
	Subsample bool
	// Coarse switches to a single type-agnostic encoder, reproducing the
	// "coarse-grained" baseline models of the Figure 6 ablation.
	Coarse bool
}

// NewCoLR returns the default configuration (10% subsampling, fine-grained).
func NewCoLR() *CoLR {
	return &CoLR{SampleFraction: 0.10, MinSample: 1000, Subsample: true}
}

// EncodeColumn embeds a column's non-null lexical values under the encoder
// for fine-grained type t. The result is L2-normalized.
func (c *CoLR) EncodeColumn(values []string, t Type) Vector {
	return c.EncodeSampled(c.sample(values), t)
}

// EncodeSampled embeds values that have already been sampled, skipping
// the internal subsampling pass. The streaming profiler uses this: its
// bounded reservoir reproduces sample's selection (same SampleHash, same
// hash ordering) incrementally, then encodes the reservoir contents
// as-is. EncodeColumn(values) == EncodeSampled(sample(values)).
func (c *CoLR) EncodeSampled(sample []string, t Type) Vector {
	v := NewVector(Dim)
	if len(sample) == 0 {
		return v
	}
	if c.Coarse {
		for _, s := range sample {
			encodeStringValue(v, s, 1.0/float64(len(sample)))
		}
		v.Normalize()
		return v
	}
	switch t {
	case TypeInt, TypeFloat:
		c.encodeNumeric(v, sample)
	case TypeDate:
		c.encodeDates(v, sample)
	case TypeBoolean:
		// Booleans are compared via true-ratio, not embeddings (Alg. 3);
		// still produce a coarse signature so table embeddings are stable.
		for _, s := range sample {
			addHash(v, fnv1a(seedBool, strings.ToLower(s)), 1.0/float64(len(sample)))
		}
	default: // named_entity, natural_language, string
		for _, s := range sample {
			encodeStringValue(v, s, 1.0/float64(len(sample)))
		}
	}
	v.Normalize()
	return v
}

// SampleHash is the deterministic pseudo-random rank of value s at
// non-null position i within its column: the n values with the smallest
// hashes form the column's sample. Exported so the streaming profiler's
// bounded reservoir selects exactly the values the in-memory sample
// would — same hash, same ordering, identical embedding.
func SampleHash(s string, i int) uint64 {
	h := Hash64(s)
	for b := 0; b < 8; b++ {
		h = fnvByte(h, byte(i>>(8*b)))
	}
	return h
}

// SampleSize returns how many values the sampler keeps for a column of n
// non-null values, or n itself when the column is passed through whole.
func (c *CoLR) SampleSize(n int) int {
	if !c.Subsample || n <= c.MinSample {
		return n
	}
	k := int(c.SampleFraction * float64(n))
	if k < c.MinSample {
		k = c.MinSample
	}
	if k >= n {
		return n
	}
	return k
}

// sample draws a deterministic pseudo-random sample of the values
// (hash-ordered, position breaking a hash tie), honoring SampleFraction
// and MinSample.
func (c *CoLR) sample(values []string) []string {
	n := c.SampleSize(len(values))
	if n >= len(values) {
		return values
	}
	type hv struct {
		h uint64
		i int
	}
	hs := make([]hv, len(values))
	for i, s := range values {
		hs[i] = hv{h: SampleHash(s, i), i: i}
	}
	slices.SortFunc(hs, func(a, b hv) int {
		if c := cmp.Compare(a.h, b.h); c != 0 {
			return c
		}
		return cmp.Compare(a.i, b.i)
	})
	out := make([]string, n)
	for k := 0; k < n; k++ {
		out[k] = values[hs[k].i]
	}
	return out
}

// Seeds of the feature-key prefixes (see Hash64), and the hashes of the
// numeric keys, which take no value: zbinHash[k] is the hash of "zbin:k".
var (
	seedVal, seedTok, seedNval, seedBool = Hash64("val:"), Hash64("tok:"), Hash64("nval:"), Hash64("bool:")
	seedYear, seedDecade                 = Hash64("year:"), Hash64("decade:")
	seedMonth, seedDow                   = Hash64("month:"), Hash64("dow:")
	hashNeg, hashIntlike                 = Hash64("neg"), Hash64("intlike")
	zbinHash, mbinHash                   = binHashes("zbin:", 25), binHashes("mbin:", 30)
)

func binHashes(prefix string, n int) []uint64 {
	out := make([]uint64, n)
	for k := range out {
		out[k] = fnvInt(Hash64(prefix), k)
	}
	return out
}

// encodeStringValue hashes the whole value, its character trigrams and
// its whitespace-separated tokens.
func encodeStringValue(v Vector, s string, w float64) {
	ls := strings.ToLower(strings.TrimSpace(s))
	addHash(v, fnv1a(seedVal, ls), 2.0*w)
	addTrigrams(v, ls, w)
	for tok, rest := nextField(ls); tok != ""; tok, rest = nextField(rest) {
		addHash(v, fnv1a(seedTok, tok), w)
	}
}

// nextField returns the first field of s as strings.Fields splits it (runs
// of runes that are not unicode.IsSpace), and the rest of s after it; ""
// when s has no field left.
func nextField(s string) (field, rest string) {
	start := -1
	for i := 0; i < len(s); {
		r, size := rune(s[i]), 1
		if r >= utf8.RuneSelf {
			r, size = utf8.DecodeRuneInString(s[i:])
		}
		if !unicode.IsSpace(r) {
			if start < 0 {
				start = i
			}
		} else if start >= 0 {
			return s[start:i], s[i:]
		}
		i += size
	}
	if start < 0 {
		return "", ""
	}
	return s[start:], ""
}

// binReach is how many centre spacings from a value its soft-histogram
// bins reach: a bin counts when exp(-d²) > 1e-3, that is |d| < 2.63 widths,
// which is under 2.63 spacings for the z bins (width = spacing) and under
// 2.29 for the magnitude bins (width 0.3, spacing 10/29). Rounding the
// value's position to the nearest centre adds at most half a spacing.
const binReach = 3

// binWindow returns the indices lo..hi of the n centres within binReach of
// position x, measured in centre spacings from centre 0; lo > hi when none
// is, or x is not a number.
func binWindow(x float64, n int) (lo, hi int) {
	if !(x > -binReach-1 && x < float64(n+binReach)) {
		return 0, -1
	}
	k := int(math.Floor(x + 0.5))
	return max(k-binReach, 0), min(k+binReach, n-1)
}

// encodeNumeric embeds a numeric sample: a z-scored soft histogram captures
// unit-invariant distribution shape, and log-magnitude features capture raw
// scale so exact-value overlap still dominates.
func (c *CoLR) encodeNumeric(v Vector, sample []string) {
	vals := make([]float64, 0, len(sample))
	for _, s := range sample {
		if f, err := strconv.ParseFloat(strings.TrimSpace(s), 64); err == nil && !math.IsNaN(f) && !math.IsInf(f, 0) {
			vals = append(vals, f)
		}
	}
	if len(vals) == 0 {
		return
	}
	mean, std := meanStd(vals)
	if std == 0 {
		std = 1
	}
	w := 1.0 / float64(len(vals))
	for _, f := range vals {
		// Raw-value overlap is the paper's first similarity criterion;
		// exact values dominate for columns sharing actual data (e.g.
		// horizontal partitions of one source table).
		var buf [32]byte
		addHash(v, fnv1a(seedNval, strconv.AppendFloat(buf[:0], f, 'g', -1, 64)), 1.5*w)
		z := (f - mean) / std
		// Soft histogram over 25 RBF centers in [-3, 3]; only those in
		// reach of z are evaluated, and they pass the same test in the
		// same order as a loop over all 25 would.
		lo, hi := binWindow((z+3)*4, len(zbinHash))
		for k := lo; k <= hi; k++ {
			center := -3.0 + 6.0*float64(k)/24.0
			d := (z - center) / 0.25
			wk := math.Exp(-d * d)
			if wk > 1e-3 {
				addHash(v, zbinHash[k], wk*w)
			}
		}
		// Log-magnitude soft bins over [0, 10]. The weight balances two
		// competing goals: same-variable-different-unit columns should
		// stay fairly similar (z-histograms dominate), while same-shape
		// columns from unrelated sources at different scales should fall
		// below the materialization threshold θ.
		mag := math.Log10(math.Abs(f) + 1)
		lo, hi = binWindow(mag*2.9, len(mbinHash))
		for k := lo; k <= hi; k++ {
			center := 10.0 * float64(k) / 29.0
			d := (mag - center) / 0.3
			wk := math.Exp(-d * d)
			if wk > 1e-3 {
				addHash(v, mbinHash[k], 0.35*wk*w)
			}
		}
		if f < 0 {
			addHash(v, hashNeg, 0.5*w)
		}
		if f == math.Trunc(f) {
			addHash(v, hashIntlike, 0.25*w)
		}
	}
}

// dateLayouts are the formats the date encoder and the profiler's type
// inference both recognize, each with the shape a value must have to
// match it: head and tail are the value's first and last bytes, 'd'
// standing for an ASCII digit and 'a' for an ASCII letter, and the length
// is at least minLen and, if maxLen > 0, at most maxLen. A shape is only
// as strict as time.Parse: a space in a layout matches a run of spaces, a
// "2" or "15" one or two digits, and seconds take an unlisted fraction.
var dateLayouts = []struct {
	layout, head, tail string
	minLen, maxLen     int
}{
	{layout: "2006-01-02", head: "dddd-dd-dd", minLen: 10, maxLen: 10},
	{layout: "2006/01/02", head: "dddd/dd/dd", minLen: 10, maxLen: 10},
	{layout: "01/02/2006", head: "dd/dd/dddd", minLen: 10, maxLen: 10},
	{layout: "02-01-2006", head: "dd-dd-dddd", minLen: 10, maxLen: 10},
	{layout: "2006-01-02 15:04:05", head: "dddd-dd-dd ", tail: "d", minLen: 18},
	{layout: "2006-01-02T15:04:05", head: "dddd-dd-ddT", tail: "d", minLen: 18},
	{layout: "Jan 2, 2006", head: "a", tail: " dddd", minLen: 11},
	{layout: "2 Jan 2006", head: "d", tail: " dddd", minLen: 10},
	{layout: "January 2, 2006", head: "a", tail: " dddd", minLen: 11},
	{layout: "2006-01", head: "dddd-dd", minLen: 7, maxLen: 7},
}

// ParseDate attempts to parse s with the supported layouts. A layout
// whose shape s does not have is skipped, so most non-date cells are
// rejected without time.Parse allocating an error for each layout.
func ParseDate(s string) (time.Time, bool) {
	t := strings.TrimSpace(s)
	for _, l := range dateLayouts {
		if len(t) < l.minLen || l.maxLen > 0 && len(t) > l.maxLen ||
			!fits(t[:len(l.head)], l.head) || !fits(t[len(t)-len(l.tail):], l.tail) {
			continue
		}
		if parsed, err := time.Parse(l.layout, t); err == nil {
			return parsed, true
		}
	}
	return time.Time{}, false
}

// fits reports whether s, as long as shape, has its digits where shape
// has 'd', ASCII letters where it has 'a', and its other bytes elsewhere.
func fits(s, shape string) bool {
	for i := 0; i < len(shape); i++ {
		c := s[i]
		switch shape[i] {
		case 'd':
			if c < '0' || c > '9' {
				return false
			}
		case 'a':
			if c|0x20 < 'a' || c|0x20 > 'z' {
				return false
			}
		default:
			if c != shape[i] {
				return false
			}
		}
	}
	return true
}

func (c *CoLR) encodeDates(v Vector, sample []string) {
	w := 1.0 / float64(len(sample))
	for _, s := range sample {
		d, ok := ParseDate(s)
		if !ok {
			encodeStringValue(v, s, w)
			continue
		}
		addHash(v, fnvInt(seedYear, d.Year()), w)
		addHash(v, fnvInt(seedDecade, d.Year()/10), 0.5*w)
		addHash(v, fnvInt(seedMonth, int(d.Month())), 0.5*w)
		addHash(v, fnvInt(seedDow, int(d.Weekday())), 0.25*w)
	}
}

func meanStd(vals []float64) (mean, std float64) {
	for _, f := range vals {
		mean += f
	}
	mean /= float64(len(vals))
	var ss float64
	for _, f := range vals {
		d := f - mean
		ss += d * d
	}
	return mean, math.Sqrt(ss / float64(len(vals)))
}

// TableEmbedding implements Eq. (1): the concatenation over the six
// embedded fine-grained types of the average column embedding of that type.
// byType maps each type to the column embeddings of that type present in
// the table; absent types contribute zero blocks.
func TableEmbedding(byType map[Type][]Vector) Vector {
	out := NewVector(0)
	for _, t := range EmbeddedTypes {
		block := NewVector(Dim)
		cols := byType[t]
		if len(cols) > 0 {
			for _, cv := range cols {
				block.Add(cv)
			}
			block.Scale(1 / float64(len(cols)))
		}
		out = append(out, block...)
	}
	return out
}

// DatasetEmbedding aggregates table embeddings into a dataset embedding by
// averaging (paper Section 3.2: "an embedding of a dataset is an
// aggregation of its tables' embeddings").
func DatasetEmbedding(tables []Vector) Vector {
	out := NewVector(TableDim)
	if len(tables) == 0 {
		return out
	}
	for _, t := range tables {
		out.Add(t)
	}
	out.Scale(1 / float64(len(tables)))
	return out
}
