package vectorindex

import (
	"math/rand"
	"strconv"
	"testing"

	"kglids/internal/embed"
)

// tableVec returns a table-shaped embedding: TableDim wide, with only the
// 300-wide blocks of the types the table holds filled in.
func tableVec(rng *rand.Rand) embed.Vector {
	v := embed.NewVector(embed.TableDim)
	for b := 0; b < len(embed.EmbeddedTypes); b++ {
		if rng.Intn(2) == 0 {
			continue
		}
		for i := b * embed.Dim; i < (b+1)*embed.Dim; i++ {
			v[i] = rng.NormFloat64()
		}
	}
	return v
}

var sinkResults []Result

// BenchmarkExactSearch queries a 330-table index by a table-shaped query,
// for the ten best and for every table.
func BenchmarkExactSearch(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const n = 330
	idx := NewExact()
	for i := 0; i < n; i++ {
		idx.Add("t"+strconv.Itoa(i), tableVec(rng))
	}
	qs := make([]embed.Vector, 64)
	for i := range qs {
		qs[i] = tableVec(rng)
	}
	for _, k := range []int{10, n} {
		b.Run("k="+strconv.Itoa(k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkResults = idx.Search(qs[i%len(qs)], k)
			}
		})
	}
}
