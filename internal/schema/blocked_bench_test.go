package schema

import (
	"context"
	"sync"
	"testing"

	"kglids/internal/lakegen"
	"kglids/internal/profiler"
)

// wideProfiles memoizes the 5k-column benchmark lake: ~280 tables of 18
// columns drawn from shared concept pools (duplicate + synonymous labels,
// shared value domains) — the wide-lake regime where the exhaustive
// generator's O(n²) pair slice is the memory cliff.
var wideProfiles struct {
	once     sync.Once
	profiles []*profiler.ColumnProfile
}

func benchProfiles(tb testing.TB) []*profiler.ColumnProfile {
	wideProfiles.once.Do(func() {
		lake := lakegen.WideLake(280, 18, 30, 41)
		p := profiler.New()
		var tables []profiler.Table
		for _, df := range lake.Tables {
			tables = append(tables, profiler.Table{Dataset: lake.Dataset[df.Name], Frame: df})
		}
		wideProfiles.profiles, _, _ = p.ProfileSource(context.Background(), profiler.Frames(tables))
	})
	if len(wideProfiles.profiles) < 5000 {
		tb.Fatalf("benchmark lake has %d columns, want >= 5000", len(wideProfiles.profiles))
	}
	return wideProfiles.profiles
}

// BenchmarkSimilarityEdges_BlockedVsExhaustive compares the blocked,
// candidate-pruned pipeline against the O(n²) oracle on a 5k-column lake.
// The paired metrics to read: ns/op (the blocked path's speedup) and
// peak-pairs (the exhaustive path buffers the full O(n²) pair slice, the
// blocked path a bounded channel's worth — O(workers × batch) in flight
// plus O(C) candidates per active column).
func BenchmarkSimilarityEdges_BlockedVsExhaustive(b *testing.B) {
	profiles := benchProfiles(b)
	b.Run("exhaustive", func(b *testing.B) {
		bd := NewBuilder()
		var edges []Edge
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			edges = bd.SimilarityEdgesExhaustive(profiles)
		}
		b.StopTimer()
		b.ReportMetric(float64(bd.LastStats().PeakPairBuffer), "peak-pairs")
		b.ReportMetric(float64(len(edges)), "edges")
	})
	b.Run("blocked", func(b *testing.B) {
		bd := NewBuilder()
		var edges []Edge
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			edges = bd.SimilarityEdges(profiles)
		}
		b.StopTimer()
		b.ReportMetric(float64(bd.LastStats().PeakPairBuffer), "peak-pairs")
		b.ReportMetric(float64(bd.LastStats().PairsCompared), "pairs-compared")
		b.ReportMetric(float64(len(edges)), "edges")
	})
}

// TestBlockedWideLakeBounds pins the scaling claims on the benchmark lake:
// identical edges to the oracle, a peak pair buffer that is bounded by the
// pipeline (workers × batches + per-column candidates), far below the
// exhaustive pair count, and a pruned comparison count well under O(n²).
func TestBlockedWideLakeBounds(t *testing.T) {
	if testing.Short() {
		t.Skip("5k-column lake in -short mode")
	}
	profiles := benchProfiles(t)

	bd := NewBuilder()
	want := bd.SimilarityEdgesExhaustive(profiles)
	exhaustive := bd.LastStats()
	got := bd.SimilarityEdges(profiles)
	blocked := bd.LastStats()
	assertSameEdges(t, "5k lake", got, want)

	if blocked.PrunedBlocks == 0 {
		t.Fatal("no block hit the pruned path")
	}
	// Peak buffer: the exhaustive path materializes every pair; the
	// blocked pipeline must stay orders of magnitude below that.
	if blocked.PeakPairBuffer*10 > exhaustive.PeakPairBuffer {
		t.Errorf("peak pair buffer %d not an order below exhaustive %d",
			blocked.PeakPairBuffer, exhaustive.PeakPairBuffer)
	}
	// Comparisons: pruning must cut the pairwise work, not just defer it.
	if blocked.PairsCompared*2 > blocked.PairsExhaustive {
		t.Errorf("pruning weak: %d of %d exhaustive pairs compared",
			blocked.PairsCompared, blocked.PairsExhaustive)
	}
	t.Logf("5k lake: %d cols, %d edges; exhaustive pairs %d (peak buffer %d) vs blocked compared %d (peak buffer %d)",
		blocked.Columns, len(got), exhaustive.PairsExhaustive, exhaustive.PeakPairBuffer,
		blocked.PairsCompared, blocked.PeakPairBuffer)
}
