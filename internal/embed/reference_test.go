package embed

import (
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
)

// The reference encoders state CoLR and the word model plainly: every
// feature key is built as a string and hashed with hash/fnv, every numeric
// value evaluates all 55 bins, and the sampler orders with sort.Slice. The
// production encoders must give the same vectors, bit for bit.

func refHashIndex(feature string, dim int) (int, float64) {
	h := fnv.New64a()
	h.Write([]byte(feature))
	v := h.Sum64()
	idx := int(v % uint64(dim))
	sign := 1.0
	if (v>>63)&1 == 1 {
		sign = -1.0
	}
	return idx, sign
}

func refAddHashed(v Vector, feature string, weight float64) {
	i, sign := refHashIndex(feature, len(v))
	v[i] += sign * weight
}

func refItoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	neg := n < 0
	if neg {
		n = -n
	}
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		i--
		b[i] = '-'
	}
	return string(b[i:])
}

func refSampleHash(s string, i int) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	var ib [8]byte
	for b := 0; b < 8; b++ {
		ib[b] = byte(i >> (8 * b))
	}
	h.Write(ib[:])
	return h.Sum64()
}

func refSample(c *CoLR, values []string) []string {
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
		hs[i] = hv{h: refSampleHash(s, i), i: i}
	}
	sort.Slice(hs, func(a, b int) bool { return hs[a].h < hs[b].h })
	out := make([]string, n)
	for k := 0; k < n; k++ {
		out[k] = values[hs[k].i]
	}
	return out
}

func refEncodeColumn(c *CoLR, values []string, t Type) Vector {
	sample := refSample(c, values)
	v := NewVector(Dim)
	if len(sample) == 0 {
		return v
	}
	if c.Coarse {
		for _, s := range sample {
			refEncodeStringValue(v, s, 1.0/float64(len(sample)))
		}
		v.Normalize()
		return v
	}
	switch t {
	case TypeInt, TypeFloat:
		refEncodeNumeric(v, sample)
	case TypeDate:
		refEncodeDates(v, sample)
	case TypeBoolean:
		for _, s := range sample {
			refAddHashed(v, "bool:"+strings.ToLower(s), 1.0/float64(len(sample)))
		}
	default:
		for _, s := range sample {
			refEncodeStringValue(v, s, 1.0/float64(len(sample)))
		}
	}
	v.Normalize()
	return v
}

func refEncodeStringValue(v Vector, s string, w float64) {
	ls := strings.ToLower(strings.TrimSpace(s))
	refAddHashed(v, "val:"+ls, 2.0*w)
	padded := "^" + ls + "$"
	for i := 0; i+3 <= len(padded); i++ {
		refAddHashed(v, "tri:"+padded[i:i+3], w)
	}
	for _, tok := range strings.Fields(ls) {
		refAddHashed(v, "tok:"+tok, w)
	}
}

func refEncodeNumeric(v Vector, sample []string) {
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
		refAddHashed(v, "nval:"+strconv.FormatFloat(f, 'g', -1, 64), 1.5*w)
		z := (f - mean) / std
		for k := 0; k < 25; k++ {
			center := -3.0 + 6.0*float64(k)/24.0
			d := (z - center) / 0.25
			wk := math.Exp(-d * d)
			if wk > 1e-3 {
				refAddHashed(v, "zbin:"+refItoa(k), wk*w)
			}
		}
		mag := math.Log10(math.Abs(f) + 1)
		for k := 0; k < 30; k++ {
			center := 10.0 * float64(k) / 29.0
			d := (mag - center) / 0.3
			wk := math.Exp(-d * d)
			if wk > 1e-3 {
				refAddHashed(v, "mbin:"+refItoa(k), 0.35*wk*w)
			}
		}
		if f < 0 {
			refAddHashed(v, "neg", 0.5*w)
		}
		if f == math.Trunc(f) {
			refAddHashed(v, "intlike", 0.25*w)
		}
	}
}

func refEncodeDates(v Vector, sample []string) {
	w := 1.0 / float64(len(sample))
	for _, s := range sample {
		d, ok := refParseDate(s)
		if !ok {
			refEncodeStringValue(v, s, w)
			continue
		}
		refAddHashed(v, "year:"+refItoa(d.Year()), w)
		refAddHashed(v, "decade:"+refItoa(d.Year()/10), 0.5*w)
		refAddHashed(v, "month:"+refItoa(int(d.Month())), 0.5*w)
		refAddHashed(v, "dow:"+refItoa(int(d.Weekday())), 0.25*w)
	}
}

// refParseDate tries every layout in turn on the trimmed value.
func refParseDate(s string) (time.Time, bool) {
	s = strings.TrimSpace(s)
	for _, l := range dateLayouts {
		if parsed, err := time.Parse(l.layout, s); err == nil {
			return parsed, true
		}
	}
	return time.Time{}, false
}

func refWordEmbed(m *WordModel, word string) Vector {
	w := strings.ToLower(strings.TrimSpace(word))
	v := NewVector(WordDim)
	if w == "" {
		return v
	}
	if syn, ok := m.synsetOf[w]; ok {
		refAddHashed(v, "synset:"+refItoa(syn), 1.0)
		refAddHashed(v, "word:"+w, 0.25)
		v.Normalize()
		return v
	}
	padded := "^" + w + "$"
	for i := 0; i+3 <= len(padded); i++ {
		refAddHashed(v, "tri:"+padded[i:i+3], 1.0)
	}
	refAddHashed(v, "word:"+w, 0.5)
	v.Normalize()
	return v
}

// sameBits reports the first entry where a and b differ as float64 bit
// patterns, or -1.
func sameBits(a, b Vector) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// edgeValues are values at the edges of what the encoders parse, bin and
// split: extreme and signed-zero floats, strings that parse to NaN or Inf,
// whitespace, non-ASCII letters whose lower case changes length, invalid
// UTF-8 and Unicode spaces.
var edgeValues = []string{
	"1e308", "-1e308", "5e-324", "-5e-324", "-0", "0", "NaN", "nan", "Inf", "-Inf", "+Inf",
	"1.7976931348623157e308", "2.2250738585072014e-308", "123456789012345678901234567890",
	"", " ", "\t\n", " ", "　", " a ", "a  b\tc", "x\u0085y", "İstanbul", "ÀÉÎ", "ß",
	"\xff\xfe", "a\xffb c", "2020-05-17", "Jan 2, 2006", "0001-01", "true", "FALSE", "ab", "a",
}

// encoderConfigs are the CoLR configurations the oracle tests compare:
// the default sampler, the whole column, a small sample, and the coarse
// ablation encoder.
var encoderConfigs = []struct {
	name string
	c    *CoLR
}{
	{"sampled", NewCoLR()},
	{"whole", &CoLR{Subsample: false}},
	{"sample-of-5", &CoLR{SampleFraction: 0.1, MinSample: 5, Subsample: true}},
	{"coarse", &CoLR{Coarse: true, SampleFraction: 0.1, MinSample: 5, Subsample: true}},
}

// oracleColumns returns columns that reach every branch of the encoders:
// numeric columns of every spread (constant, normal, heavy-tailed with
// values far past ±3σ, every magnitude), strings, dates and mixed cells.
func oracleColumns(rng *rand.Rand) [][]string {
	cols := [][]string{
		edgeValues,
		{"7", "7", "7", "7"},         // std = 0
		{"-0", "-0", "0"},            // signed zeros only
		{"1e308", "1e308", "-1e308"}, // mean and std overflow
		{"5e-324", "0", "-5e-324"},
		{"NaN", "Inf", "-Inf"}, // parses, but no value is kept
		{"0", "0", "0", "0", "0", "0", "0", "0", "0", "1e6"}, // one value far past 3σ
	}
	gens := []func() string{
		func() string { return strconv.FormatFloat(rng.NormFloat64(), 'g', -1, 64) },
		func() string { return strconv.FormatFloat(rng.NormFloat64()*1e3+50, 'f', 2, 64) },
		func() string { return strconv.Itoa(rng.Intn(100) - 50) },
		func() string { return strconv.FormatFloat(math.Pow(10, rng.Float64()*40-20), 'g', -1, 64) },
		func() string { return strconv.FormatFloat(rng.ExpFloat64()*rng.ExpFloat64()*100, 'g', 6, 64) },
		func() string { return edgeValues[rng.Intn(len(edgeValues))] },
		func() string {
			b := make([]byte, rng.Intn(12))
			for i := range b {
				b[i] = " aBc\tzé\xffİ0-"[rng.Intn(13)]
			}
			return string(b)
		},
		func() string {
			return strconv.Itoa(1900+rng.Intn(200)) + "-0" + strconv.Itoa(1+rng.Intn(9)) + "-1" + strconv.Itoa(rng.Intn(10))
		},
	}
	for _, gen := range gens {
		for _, n := range []int{1, 3, 40, 1200} {
			col := make([]string, n)
			for i := range col {
				col[i] = gen()
			}
			cols = append(cols, col)
		}
	}
	return cols
}

func TestCoLRMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	cols := oracleColumns(rng)
	for _, cfg := range encoderConfigs {
		for ci, col := range cols {
			for _, typ := range AllTypes {
				got, want := cfg.c.EncodeColumn(col, typ), refEncodeColumn(cfg.c, col, typ)
				if i := sameBits(got, want); i >= 0 {
					t.Fatalf("%s, column %d (%d values), type %s: entry %d = %v, reference %v",
						cfg.name, ci, len(col), typ, i, got[i], want[i])
				}
			}
		}
	}
}

// TestNumericBinsAtEveryOffset sweeps values in fine steps across and past
// the z range (a spike at zero with a uniform sweep over ±10, so σ ≈ 2.6)
// and the magnitude range (10^0 to 10^12), so every bin is met at every
// distance from the edges of its window.
func TestNumericBinsAtEveryOffset(t *testing.T) {
	c := &CoLR{Subsample: false}
	var zs, mags []string
	for i := 0; i < 8000; i++ {
		zs = append(zs, "0")
	}
	for i := 0; i <= 2000; i++ {
		zs = append(zs, strconv.FormatFloat(-10+float64(i)*0.01, 'g', -1, 64))
	}
	for i := 0; i <= 4000; i++ {
		mags = append(mags, strconv.FormatFloat(math.Pow(10, float64(i)*0.003)-1, 'g', -1, 64))
	}
	for _, col := range [][]string{zs, mags} {
		got, want := c.EncodeColumn(col, TypeFloat), refEncodeColumn(c, col, TypeFloat)
		if i := sameBits(got, want); i >= 0 {
			t.Fatalf("entry %d = %v, reference %v", i, got[i], want[i])
		}
	}
}

func TestSampleHashMatchesReference(t *testing.T) {
	for i, s := range edgeValues {
		for _, pos := range []int{0, 1, i, 255, 256, 1 << 40, -1} {
			if got, want := SampleHash(s, pos), refSampleHash(s, pos); got != want {
				t.Fatalf("SampleHash(%q, %d) = %x, reference %x", s, pos, got, want)
			}
		}
		h := fnv.New64a()
		h.Write([]byte(s))
		if Hash64(s) != h.Sum64() {
			t.Fatalf("Hash64(%q) = %x, hash/fnv %x", s, Hash64(s), h.Sum64())
		}
	}
}

func TestWordModelMatchesReference(t *testing.T) {
	m := NewWordModel()
	words := append([]string{"gender", "Sex", "target", "y", "area_sq_ft", "heart_rate", "PassengerId"}, edgeValues...)
	for _, group := range synsets {
		words = append(words, group...)
	}
	for _, w := range words {
		if i := sameBits(m.Embed(w), refWordEmbed(m, w)); i >= 0 {
			t.Fatalf("Embed(%q): entry %d differs from the reference", w, i)
		}
	}
}

// FuzzCoLRMatchesReference encodes a fuzzed column, its values separated by
// '\x1f', under a fuzzed type and every encoder configuration, and
// compares each entry with the reference bit for bit.
func FuzzCoLRMatchesReference(f *testing.F) {
	f.Add(strings.Join(edgeValues, "\x1f"), uint8(0))
	for i := range AllTypes {
		f.Add(strings.Join(edgeValues[i:], "\x1f"), uint8(i))
		f.Add("1\x1f2\x1f3\x1f1e6", uint8(i))
		f.Add("7\x1f7\x1f7", uint8(i))
	}
	f.Add("-1e308\x1f1e308\x1f5e-324\x1f-0", uint8(1))
	f.Add(" north  york \x1fİstanbul\x1f \x1f", uint8(6))
	f.Fuzz(func(t *testing.T, joined string, ti uint8) {
		col := strings.Split(joined, "\x1f")
		typ := AllTypes[int(ti)%len(AllTypes)]
		for _, cfg := range encoderConfigs {
			got, want := cfg.c.EncodeColumn(col, typ), refEncodeColumn(cfg.c, col, typ)
			if i := sameBits(got, want); i >= 0 {
				t.Fatalf("%s, type %s, column %q: entry %d = %v, reference %v", cfg.name, typ, col, i, got[i], want[i])
			}
		}
	})
}

// FuzzParseDateMatchesReference: skipping the layouts whose shape a value
// does not have gives the time and the ok flag of trying every layout.
func FuzzParseDateMatchesReference(f *testing.F) {
	for _, l := range dateLayouts {
		f.Add(time.Date(1987, 6, 5, 4, 3, 2, 0, time.UTC).Format(l.layout))
	}
	for _, s := range []string{"", " 2020-05-17\t", "2020-05-17 3:04:05", "2020-05-17  3:04:05.25", "jan   2,  2006", "2 JAN 2006",
		"2020-13-01", "1234567", "order 12345", "Sept 2, 2006", "١٢٣٤-٠١"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got, ok := ParseDate(s)
		want, wantOK := refParseDate(s)
		if ok != wantOK || got != want {
			t.Fatalf("ParseDate(%q) = %v, %v; every layout in turn gives %v, %v", s, got, ok, want, wantOK)
		}
	})
}
