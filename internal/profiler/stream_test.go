package profiler

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"kglids/internal/connector"
	"kglids/internal/dataframe"
	"kglids/internal/embed"
)

// mustSameProfiles asserts two profile sets are byte-identical JSON
// documents keyed by column ID — the strongest possible equivalence
// between the streaming and in-memory paths.
func mustSameProfiles(t *testing.T, streamed, inMemory []*ColumnProfile) {
	t.Helper()
	if len(streamed) != len(inMemory) {
		t.Fatalf("streamed %d profiles, in-memory %d", len(streamed), len(inMemory))
	}
	byID := map[string]string{}
	for _, cp := range inMemory {
		doc, err := cp.JSON()
		if err != nil {
			t.Fatal(err)
		}
		byID[cp.ID()] = string(doc)
	}
	for _, cp := range streamed {
		doc, err := cp.JSON()
		if err != nil {
			t.Fatal(err)
		}
		want, ok := byID[cp.ID()]
		if !ok {
			t.Fatalf("streamed column %s missing from in-memory profiles", cp.ID())
		}
		if string(doc) != want {
			t.Errorf("column %s diverges:\n  streamed:  %s\n  in-memory: %s", cp.ID(), doc, want)
		}
	}
}

// writeLake materializes a small mixed-type dir:// lake.
func writeLake(t *testing.T) string {
	t.Helper()
	root := t.TempDir()
	files := map[string]string{
		"sales/orders.csv": "id,amount,paid,city,note\n" +
			"1,10.5,true,Montreal,alpha\n" +
			"2,20.25,false,Toronto,beta\n" +
			"3,,true,Montreal,\"with, comma\"\n" +
			"4,40.75,false,Vancouver,delta\n" +
			"5,7.125,true,Montreal,epsilon\n",
		"sales/items.csv": "sku,qty\nA1,3\nB2,\nC3,9\nD4,12\n",
		"hr/people.csv": "name,age\n" +
			"James,31\nMary Smith,45\nJohn,28\nPatricia,39\nRobert,52\nJennifer,44\n",
	}
	for name, content := range files {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

func TestStreamingMatchesInMemoryExactly(t *testing.T) {
	for _, uri := range []string{
		"dir://" + writeLake(t),
		"lakegen://wide?tables=6&cols=5&rows=400&seed=5",
	} {
		for _, chunkRows := range []int{1, 3, 256} {
			src, err := connector.OpenWith(uri, connector.Options{ChunkRows: chunkRows})
			if err != nil {
				t.Fatal(err)
			}
			p := New()
			streamed, tableErrs, err := p.ProfileSource(context.Background(), src)
			if err != nil {
				t.Fatal(err)
			}
			if len(tableErrs) != 0 {
				t.Fatalf("table errors: %v", tableErrs)
			}
			frames, err := MaterializeSource(context.Background(), src)
			if err != nil {
				t.Fatal(err)
			}
			inMemory := referenceProfiles(p, frames)
			scheme, _, _ := strings.Cut(uri, "://")
			t.Run(fmt.Sprintf("%s/chunk%d", scheme, chunkRows), func(t *testing.T) {
				mustSameProfiles(t, streamed, inMemory)
			})
		}
	}
}

func TestStreamingDeterministicOrder(t *testing.T) {
	src, err := connector.Open("lakegen://wide?tables=4&cols=3&rows=100&seed=2")
	if err != nil {
		t.Fatal(err)
	}
	p := New()
	a, _, err := p.ProfileSource(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := p.ProfileSource(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("%d vs %d profiles", len(a), len(b))
	}
	for i := range a {
		if a[i].ID() != b[i].ID() {
			t.Fatalf("profile order unstable at %d: %s vs %s", i, a[i].ID(), b[i].ID())
		}
	}
}

// TestStreamingBoundedAccuracy forces the sketch regime — a reservoir and
// exact-distinct budget far below the column cardinality — and pins the
// approximation error: counts and moments that stay exact must be exact,
// distinct estimation must land within KMV's expected error, and std must
// agree with the two-pass value to floating-point noise.
func TestStreamingBoundedAccuracy(t *testing.T) {
	const rows = 8000
	src, err := connector.Open(fmt.Sprintf("lakegen://wide?tables=1&cols=4&rows=%d&seed=13", rows))
	if err != nil {
		t.Fatal(err)
	}
	exactP := New()
	exact, _, err := exactP.ProfileSource(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}

	boundedP := New()
	boundedP.ReservoirSize = 64
	boundedP.ExactDistinct = 32
	bounded, _, err := boundedP.ProfileSource(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	if len(exact) != len(bounded) {
		t.Fatalf("%d vs %d profiles", len(exact), len(bounded))
	}
	for i, e := range exact {
		b := bounded[i]
		if e.ID() != b.ID() || e.Type != b.Type {
			t.Fatalf("%s: identity diverged (%s/%s)", e.ID(), e.Type, b.Type)
		}
		// Exact-by-construction fields.
		if b.Stats.Total != e.Stats.Total || b.Stats.Missing != e.Stats.Missing ||
			b.Stats.Min != e.Stats.Min || b.Stats.Max != e.Stats.Max ||
			b.Stats.Mean != e.Stats.Mean || b.Stats.TrueRatio != e.Stats.TrueRatio {
			t.Errorf("%s: exact field diverged: %+v vs %+v", e.ID(), b.Stats, e.Stats)
		}
		// Std falls back to Welford: same value to floating-point noise.
		if e.Stats.Std != 0 {
			if rel := math.Abs(b.Stats.Std-e.Stats.Std) / e.Stats.Std; rel > 1e-6 {
				t.Errorf("%s: std %.9g vs %.9g (rel %.2g)", e.ID(), b.Stats.Std, e.Stats.Std, rel)
			}
		}
		// Distinct over budget estimates via KMV (k=1024, ~3% standard
		// error); pin a generous 15% so the test is immune to seed luck.
		if e.Stats.Distinct > boundedP.ExactDistinct {
			rel := math.Abs(float64(b.Stats.Distinct-e.Stats.Distinct)) / float64(e.Stats.Distinct)
			if rel > 0.15 {
				t.Errorf("%s: distinct %d vs exact %d (rel %.2f)", e.ID(), b.Stats.Distinct, e.Stats.Distinct, rel)
			}
		} else if b.Stats.Distinct != e.Stats.Distinct {
			t.Errorf("%s: distinct %d vs %d under the exact budget", e.ID(), b.Stats.Distinct, e.Stats.Distinct)
		}
		// The embedding comes from a hash-reservoir subsample: well-formed
		// and close in direction to the exact-sample embedding.
		if len(b.Embed) != len(e.Embed) {
			t.Fatalf("%s: embedding dims %d vs %d", e.ID(), len(b.Embed), len(e.Embed))
		}
		if sim := embed.Cosine(e.Embed, b.Embed); sim < 0.80 {
			t.Errorf("%s: reservoir embedding drifted (cosine %.3f)", e.ID(), sim)
		}
	}
}

func TestProfileSourceSkipsUnreadableTables(t *testing.T) {
	root := writeLake(t)
	if err := os.WriteFile(filepath.Join(root, "sales", "broken.csv"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	src, err := connector.Open("dir://" + root)
	if err != nil {
		t.Fatal(err)
	}
	p := New()
	profiles, tableErrs, err := p.ProfileSource(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	if len(tableErrs) != 1 {
		t.Fatalf("table errors %v, want exactly the broken table", tableErrs)
	}
	if _, ok := tableErrs["sales/broken.csv"]; !ok {
		t.Fatalf("broken table not reported: %v", tableErrs)
	}
	tables := map[string]bool{}
	for _, cp := range profiles {
		tables[cp.TableID()] = true
	}
	if len(tables) != 3 {
		t.Fatalf("profiled tables %v, want the 3 readable ones", tables)
	}
}

func TestProfileSourceCancellation(t *testing.T) {
	src, err := connector.Open("lakegen://wide?tables=8&cols=6&rows=5000&seed=3")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := New()
	if _, _, err := p.ProfileSource(ctx, src); err == nil {
		t.Fatal("canceled ProfileSource returned no error")
	}
}

// fuzzCell decodes one cell of any kind from two bytes: k picks the kind
// (6 and 7 repeat the column's dominant kind, so columns of one type
// occur), v the value.
func fuzzCell(dominant, k, v byte) dataframe.Cell {
	kind := k % 8
	if kind >= 6 {
		kind = dominant % 6
	}
	switch kind {
	case 0:
		return dataframe.NullCell()
	case 1:
		if v&2 != 0 {
			return dataframe.BoolCell(v&1 == 1)
		}
		return dataframe.NumberCell(float64(v & 1))
	case 2:
		return dataframe.ParseCell(strconv.Itoa(int(v)*37 - 2000))
	case 3:
		return dataframe.ParseCell(strconv.FormatFloat(float64(v)/7-10, 'f', 3, 64))
	case 4:
		return dataframe.ParseCell(fmt.Sprintf("20%02d-%02d-%02d", v%30, v%12+1, v%28+1))
	default:
		words := []string{"Montreal", "James", "the cat sat on a mat", "x1", "Canada", "id-7", "Mary Smith", "it was very good"}
		return dataframe.TextCell(words[v%8] + strings.Repeat("z", int(v>>6)))
	}
}

// FuzzAccumulatorMatchesReference streams a column of random cells, cut
// into random chunks, through a ColumnAccumulator with random bounds and,
// when minSample > 0, a CoLR sample floor that small. While the bounds
// cover the column, the profile must be the reference whole-column
// profile as byte-identical JSON; past them, the fields that stay exact by
// construction must still be exact, and so must the embedding while the
// reservoir holds the whole CoLR sample, and the distinct count while it
// is below the sketch's k. The resident path (ProfileTable)
// must equal the reference whatever the bounds.
func FuzzAccumulatorMatchesReference(f *testing.F) {
	f.Add([]byte{2, 2, 1, 2, 9, 2, 200, 0, 0, 2, 77}, int64(1), uint8(0), uint8(0))
	f.Add([]byte{5, 5, 1, 5, 2, 0, 0, 6, 3, 6, 4, 6, 5}, int64(2), uint8(2), uint8(0))
	f.Add([]byte{1, 1, 0, 1, 1, 1, 3, 6, 2, 0, 0, 6, 1}, int64(3), uint8(1), uint8(0))
	f.Add([]byte{4, 4, 10, 4, 11, 6, 12, 6, 13, 3, 1}, int64(4), uint8(3), uint8(0))
	f.Add([]byte{3, 3, 10, 3, 11, 3, 12, 7, 13, 7, 14, 7, 15, 2, 1}, int64(5), uint8(4), uint8(0))
	f.Add([]byte{2, 2, 1, 2, 9, 2, 200, 0, 0, 2, 77, 5, 3, 3, 3, 4, 4, 2, 8, 2, 9, 5, 5}, int64(6), uint8(3), uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, chunkSeed int64, bound, minSample uint8) {
		if len(data) == 0 {
			return
		}
		s := &dataframe.Series{Name: "c"}
		for i := 1; i+1 < len(data); i += 2 {
			s.Cells = append(s.Cells, fuzzCell(data[0], data[i], data[i+1]))
		}
		p := New()
		p.ReservoirSize, p.ExactDistinct = int(bound), int(bound)
		if minSample > 0 {
			p.CoLR.MinSample = int(minSample)
		}
		want := referenceProfileColumn(p, "d", "t", s)
		wantDoc, _ := want.JSON()

		acc := p.NewColumnAccumulator("d", "t", "c")
		rng := rand.New(rand.NewSource(chunkSeed))
		for rest := s.Cells; len(rest) > 0; {
			n := min(len(rest), 1+rng.Intn(8))
			acc.Add(rest[:n])
			rest = rest[n:]
		}
		got := acc.Finish()
		gotDoc, _ := got.JSON()
		nonNull, numeric := len(s.Cells)-s.NullCount(), 0
		for _, c := range s.Cells {
			if c.Kind == dataframe.Number || c.Kind == dataframe.Boolean {
				numeric++
			}
		}
		covered := bound == 0 || (nonNull <= int(bound) && s.Distinct() <= int(bound) && numeric <= int(bound))
		switch {
		case covered && string(gotDoc) != string(wantDoc):
			t.Fatalf("streamed profile diverges within its bounds:\n  streamed:  %s\n  reference: %s", gotDoc, wantDoc)
		case got.Type != want.Type || got.Stats.Total != want.Stats.Total || got.Stats.Missing != want.Stats.Missing ||
			got.Stats.Min != want.Stats.Min || got.Stats.Max != want.Stats.Max ||
			got.Stats.Mean != want.Stats.Mean || got.Stats.TrueRatio != want.Stats.TrueRatio:
			t.Fatalf("exact field diverges past the bounds: %+v vs %+v", got.Stats, want.Stats)
		case want.Stats.Distinct < kmvK && got.Stats.Distinct != want.Stats.Distinct:
			t.Fatalf("distinct %d, want %d: below k the sketch holds every hash", got.Stats.Distinct, want.Stats.Distinct)
		case p.CoLR.SampleSize(nonNull) <= int(bound) && !slices.Equal(got.Embed, want.Embed):
			t.Fatalf("embedding diverges while the reservoir holds the whole sample:\n  streamed:  %v\n  reference: %v", got.Embed, want.Embed)
		}

		resident, _ := profileSeries(p, "d", "t", s).JSON()
		if string(resident) != string(wantDoc) {
			t.Fatalf("resident profile diverges:\n  resident:  %s\n  reference: %s", resident, wantDoc)
		}
	})
}
