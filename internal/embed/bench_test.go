package embed

import (
	"math/rand"
	"strconv"
	"testing"
)

var sinkVector Vector

// BenchmarkEncodeColumn embeds one 1,000-value column, the sampler's
// minimum, so every value is encoded: numeric values exercise the
// soft-histogram bins, string values the value, trigram and token hashes.
func BenchmarkEncodeColumn(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	words := []string{"Montreal", "north york", "Saint-Jérôme", "Vancouver Island", "ottawa", "Calgary Flames", "x"}
	numeric := make([]string, 1000)
	strs := make([]string, 1000)
	for i := range numeric {
		numeric[i] = strconv.FormatFloat(rng.NormFloat64()*300+1500, 'f', 2, 64)
		strs[i] = words[rng.Intn(len(words))] + " " + strconv.Itoa(rng.Intn(500))
	}
	c := NewCoLR()
	for _, bc := range []struct {
		name   string
		values []string
		t      Type
	}{
		{"numeric", numeric, TypeFloat},
		{"string", strs, TypeString},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkVector = c.EncodeColumn(bc.values, bc.t)
			}
		})
	}
}
