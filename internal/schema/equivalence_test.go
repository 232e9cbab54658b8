package schema

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"kglids/internal/dataframe"
	"kglids/internal/lakegen"
	"kglids/internal/profiler"
)

// This file is the randomized equivalence harness of the blocked,
// candidate-pruned similarity pipeline: for generated lakes with mixed
// fine-grained types, duplicate labels, synonymous labels, and shared
// value domains, the blocked SimilarityEdges (forced down the pruned path
// with tiny block sizes) must be edge-for-edge identical to the
// exhaustive oracle, and a sequence of SimilarityEdgesDelta calls must
// accumulate to the same edge set as one full build.

// genLake generates a random lake as profiled columns, grouped by table.
// Labels repeat across tables (and sometimes collide after normalization,
// e.g. digit-only names), values draw from shared pools so content
// similarity fires across tables.
func genLake(rng *rand.Rand, nTables int) [][]*profiler.ColumnProfile {
	labelPool := []string{
		"age", "years", "Age", "city", "town", "location", "price", "cost",
		"score", "active", "flag", "status", "x1", "123", "?", "idx",
		"user_name", "userName", "comment",
	}
	stringPools := [][]string{
		{"Montreal", "Toronto", "Vancouver", "Ottawa", "Calgary", "Boston"},
		{"red", "green", "blue", "yellow", "black"},
		{"alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta"},
	}
	p := profiler.New()
	var lake [][]*profiler.ColumnProfile
	for t := 0; t < nTables; t++ {
		df := dataframe.New(fmt.Sprintf("t%02d.csv", t))
		nCols := 1 + rng.Intn(6)
		rows := 6 + rng.Intn(14)
		used := map[string]bool{}
		for c := 0; c < nCols; c++ {
			label := labelPool[rng.Intn(len(labelPool))]
			for used[label] {
				label = fmt.Sprintf("%s_%d", label, rng.Intn(50))
			}
			used[label] = true
			s := &dataframe.Series{Name: label}
			switch rng.Intn(5) {
			case 0: // shared string domain
				pool := stringPools[rng.Intn(len(stringPools))]
				for r := 0; r < rows; r++ {
					s.Cells = append(s.Cells, dataframe.ParseCell(pool[rng.Intn(len(pool))]))
				}
			case 1: // overlapping int ranges
				base := rng.Intn(3) * 40
				for r := 0; r < rows; r++ {
					s.Cells = append(s.Cells, dataframe.ParseCell(fmt.Sprintf("%d", base+rng.Intn(60))))
				}
			case 2: // floats
				for r := 0; r < rows; r++ {
					s.Cells = append(s.Cells, dataframe.ParseCell(fmt.Sprintf("%.2f", rng.NormFloat64()*10+50)))
				}
			case 3: // booleans with clustered true ratios
				ratio := []float64{0.1, 0.5, 0.55, 0.9}[rng.Intn(4)]
				for r := 0; r < rows; r++ {
					v := "0"
					if rng.Float64() < ratio {
						v = "1"
					}
					s.Cells = append(s.Cells, dataframe.ParseCell(v))
				}
			default: // dates
				for r := 0; r < rows; r++ {
					s.Cells = append(s.Cells, dataframe.ParseCell(fmt.Sprintf("20%02d-%02d-%02d", 10+rng.Intn(4), 1+rng.Intn(12), 1+rng.Intn(28))))
				}
			}
			df.AddColumn(s)
		}
		lake = append(lake, p.ProfileTable(fmt.Sprintf("d%d", t%4), df))
	}
	return lake
}

func flatten(lake [][]*profiler.ColumnProfile) []*profiler.ColumnProfile {
	var out []*profiler.ColumnProfile
	for _, t := range lake {
		out = append(out, t...)
	}
	return out
}

// largestBlock returns the size of the biggest same-fine-grained-type
// column group — what decides whether the pruned path runs.
func largestBlock(profiles []*profiler.ColumnProfile) int {
	counts := map[string]int{}
	best := 0
	for _, cp := range profiles {
		counts[string(cp.Type)]++
		if counts[string(cp.Type)] > best {
			best = counts[string(cp.Type)]
		}
	}
	return best
}

// assertSameEdges fails unless the two edge lists are identical element
// for element (both are SortEdges-ordered).
func assertSameEdges(t *testing.T, label string, got, want []Edge) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d edges, oracle has %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: edge %d = %+v, oracle %+v", label, i, got[i], want[i])
		}
	}
}

// harnessBuilders returns builder configurations that force the pruned
// path (tiny blocks, tiny candidate targets) under varied thresholds.
func harnessBuilders(rng *rand.Rand) []*Builder {
	thresholds := []Thresholds{
		DefaultThresholds(),
		{Alpha: 0.3, Beta: 0.6, Theta: 0.3},
		{Alpha: 0.98, Beta: 0.99, Theta: 0.98},
		{Alpha: 1.0, Beta: 0.9, Theta: 1.0},
	}
	var out []*Builder
	for _, th := range thresholds {
		b := NewBuilder()
		b.Thresholds = th
		b.BlockSize = 1 + rng.Intn(8)
		b.Candidates = 1 + rng.Intn(6)
		b.SkipLabels = rng.Intn(4) == 0
		out = append(out, b)
	}
	return out
}

func TestBlockedEquivalenceRandomized(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			lake := genLake(rng, 4+rng.Intn(14))
			profiles := flatten(lake)
			for bi, b := range harnessBuilders(rng) {
				want := b.SimilarityEdgesExhaustive(profiles)
				got := b.SimilarityEdges(profiles)
				if b.LastStats().PrunedBlocks == 0 && largestBlock(profiles) > b.BlockSize {
					t.Fatalf("builder %d: pruned path never exercised (largest block %d, block size %d)",
						bi, largestBlock(profiles), b.BlockSize)
				}
				assertSameEdges(t, fmt.Sprintf("builder %d full", bi), got, want)
			}
		})
	}
}

// TestBlockedDeltaEquivalenceRandomized splits each generated lake into
// random table batches and checks that accumulating SimilarityEdgesDelta
// over the sequence reproduces both the blocked and the exhaustive full
// builds — the property core.Platform.AddTables == fresh Bootstrap rests
// on.
func TestBlockedDeltaEquivalenceRandomized(t *testing.T) {
	for seed := int64(20); seed < 28; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			lake := genLake(rng, 5+rng.Intn(10))
			profiles := flatten(lake)
			for bi, b := range harnessBuilders(rng) {
				want := b.SimilarityEdgesExhaustive(profiles)

				var existing []*profiler.ColumnProfile
				var accumulated []Edge
				for ti := 0; ti < len(lake); {
					batchTables := 1 + rng.Intn(3)
					var added []*profiler.ColumnProfile
					for k := 0; k < batchTables && ti < len(lake); k++ {
						added = append(added, lake[ti]...)
						ti++
					}
					delta := b.SimilarityEdgesDelta(existing, added)
					wantDelta := b.SimilarityEdgesDeltaExhaustive(existing, added)
					assertSameEdges(t, fmt.Sprintf("builder %d delta at table %d", bi, ti), delta, wantDelta)
					accumulated = append(accumulated, delta...)
					existing = append(existing, added...)
				}
				SortEdges(accumulated)
				assertSameEdges(t, fmt.Sprintf("builder %d accumulated", bi), accumulated, want)
			}
		})
	}
}

// TestBlockedEquivalenceWideLake runs the harness over the concept-pool
// wide lake (the benchmark's shape: heavy label duplication, shared
// domains) at production-ish knobs, and checks the pre-filter actually
// prunes there.
func TestBlockedEquivalenceWideLake(t *testing.T) {
	lake := lakegen.WideLake(60, 8, 25, 7)
	p := profiler.New()
	var tables []profiler.Table
	for _, df := range lake.Tables {
		tables = append(tables, profiler.Table{Dataset: lake.Dataset[df.Name], Frame: df})
	}
	profiles, _, err := p.ProfileSource(context.Background(), profiler.Frames(tables))
	if err != nil {
		t.Fatal(err)
	}

	b := NewBuilder()
	b.BlockSize = 32
	b.Candidates = 16
	want := b.SimilarityEdgesExhaustive(profiles)
	exhaustStats := b.LastStats()
	got := b.SimilarityEdges(profiles)
	stats := b.LastStats()
	assertSameEdges(t, "wide lake", got, want)
	if stats.PrunedBlocks == 0 {
		t.Fatal("wide lake never hit the pruned path")
	}
	if stats.PairsCompared >= stats.PairsExhaustive {
		t.Errorf("pruning ineffective: compared %d of %d exhaustive pairs",
			stats.PairsCompared, stats.PairsExhaustive)
	}
	if stats.PeakPairBuffer >= exhaustStats.PeakPairBuffer {
		t.Errorf("peak pair buffer %d not below exhaustive %d",
			stats.PeakPairBuffer, exhaustStats.PeakPairBuffer)
	}
}

// SimilarityEdgesDeltaExhaustive is the reference implementation of the
// delta comparison, the oracle for delta-path equivalence tests.
func (b *Builder) SimilarityEdgesDeltaExhaustive(existing, added []*profiler.ColumnProfile) []Edge {
	combined := make([]*profiler.ColumnProfile, 0, len(existing)+len(added))
	combined = append(combined, existing...)
	combined = append(combined, added...)
	return b.similarityEdgesExhaustive(combined, len(existing))
}
