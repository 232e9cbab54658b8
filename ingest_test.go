package kglids

// Tests for live incremental ingestion: after any sequence of add, update,
// and remove mutations, the platform must be indistinguishable — graph
// statistics, similarity search, SPARQL — from a fresh Bootstrap over the
// final table set. This is the correctness bar of the ingest subsystem.

import (
	"math"
	"path/filepath"
	"sort"
	"testing"

	"kglids/internal/lakegen"
	"kglids/internal/schema"
)

var ingestSpec = lakegen.Spec{
	Name: "ingest", Families: 4, TablesPerFamily: 3, NoiseTables: 4,
	RowsPerTable: 60, QueryTables: 4, Seed: 31,
}

func ingestLakeTables(t testing.TB) ([]Table, *lakegen.Benchmark) {
	t.Helper()
	b := lakegen.Generate(ingestSpec)
	var tables []Table
	for _, df := range b.Tables {
		tables = append(tables, Table{Dataset: b.Dataset[df.Name], Frame: df})
	}
	return tables, b
}

// sparqlProbe returns the sorted values of a single-variable query.
func sparqlProbe(t *testing.T, p *Platform, q, v string) []string {
	t.Helper()
	res, err := p.Query(q)
	if err != nil {
		t.Fatalf("query %q: %v", q, err)
	}
	out := make([]string, 0, len(res.Rows))
	for _, row := range res.Rows {
		out = append(out, row[v].Value)
	}
	sort.Strings(out)
	return out
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// assertSameCanonicalEdges fails unless got and want are the same edge list
// element for element and that list is strictly increasing in (A, B, Kind):
// sorted and duplicate-free, however the platform came by it.
func assertSameCanonicalEdges(t *testing.T, label string, got, want []schema.Edge) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d edges, want %d", label, len(got), len(want))
	}
	for i, e := range got {
		if e != want[i] {
			t.Fatalf("%s: edge %d = %+v, want %+v", label, i, e, want[i])
		}
		if i == 0 {
			continue
		}
		prev := got[i-1]
		if prev.A > e.A || prev.A == e.A && (prev.B > e.B || prev.B == e.B && prev.Kind >= e.Kind) {
			t.Fatalf("%s: edge %d %+v does not sort strictly after %+v", label, i, e, prev)
		}
	}
}

// TestIncrementalIngestEquivalence drives a scripted add → add → update →
// remove sequence through the live mutation path and checks the result is
// equivalent to a fresh Bootstrap over the final tables: same Stats, same
// top-k similarity, same SPARQL answers — and the same after a snapshot
// round-trip of the mutated platform.
func TestIncrementalIngestEquivalence(t *testing.T) {
	tables, bench := ingestLakeTables(t)
	n := len(tables)
	base, extra := tables[:n-2], tables[n-2:]

	// Mutated platform: bootstrap the base lake, then add the two held-out
	// tables in separate jobs, update one of them with changed content, and
	// remove one of the original base tables.
	inc := Bootstrap(Options{}, base)
	if _, err := inc.AddTables(extra[:1]); err != nil {
		t.Fatal(err)
	}
	if _, err := inc.AddTables(extra[1:]); err != nil {
		t.Fatal(err)
	}
	updated := Table{Dataset: extra[0].Dataset, Frame: extra[0].Frame.Head(30)}
	if ids, err := inc.AddTables([]Table{updated}); err != nil || len(ids) != 1 {
		t.Fatalf("update: ids=%v err=%v", ids, err)
	}
	removedID := base[0].Dataset + "/" + base[0].Frame.Name
	if err := inc.RemoveTable(removedID); err != nil {
		t.Fatal(err)
	}
	if inc.HasTable(removedID) {
		t.Fatalf("%s still present after removal", removedID)
	}

	// Reference platform: fresh Bootstrap over the final table set.
	final := append([]Table{}, base[1:]...)
	final = append(final, updated, extra[1])
	fresh := Bootstrap(Options{}, final)

	if got, want := inc.Stats(), fresh.Stats(); got != want {
		t.Errorf("stats diverge:\n incremental %+v\n fresh       %+v", got, want)
	}
	assertSameCanonicalEdges(t, "incremental vs fresh", inc.Core().EdgesView(), fresh.Core().EdgesView())

	// Top-k similarity (exact index) for every benchmark query table still
	// in the lake.
	for _, q := range bench.QueryTables {
		qid := bench.Dataset[q] + "/" + q
		if !fresh.HasTable(qid) {
			continue
		}
		var frame *DataFrame
		for _, tb := range final {
			if tb.Dataset+"/"+tb.Frame.Name == qid {
				frame = tb.Frame
			}
		}
		gotHits := inc.SimilarTables(frame, 5)
		wantHits := fresh.SimilarTables(frame, 5)
		if len(gotHits) != len(wantHits) {
			t.Fatalf("query %s: %d hits vs %d", qid, len(gotHits), len(wantHits))
		}
		for i := range gotHits {
			if gotHits[i].Name != wantHits[i].Name || math.Abs(gotHits[i].Score-wantHits[i].Score) > 1e-12 {
				t.Errorf("query %s hit %d: incremental %s(%v) vs fresh %s(%v)",
					qid, i, gotHits[i].Name, gotHits[i].Score, wantHits[i].Name, wantHits[i].Score)
			}
		}
	}

	// SPARQL probes over tables, columns, and similarity edges.
	probes := []struct{ q, v string }{
		{`SELECT ?t WHERE { ?t a kglids:Table . }`, "t"},
		{`SELECT ?c WHERE { ?c a kglids:Column . }`, "c"},
		{`SELECT ?b WHERE { ?a kglids:contentSimilarity ?b . }`, "b"},
	}
	for _, pr := range probes {
		got := sparqlProbe(t, inc, pr.q, pr.v)
		want := sparqlProbe(t, fresh, pr.q, pr.v)
		if !equalStrings(got, want) {
			t.Errorf("probe %q: %d rows incremental vs %d fresh", pr.q, len(got), len(want))
		}
	}

	// The mutated platform must snapshot and reload cleanly, preserving
	// equivalence.
	path := filepath.Join(t.TempDir(), "ingested.kgs")
	if err := inc.Save(path); err != nil {
		t.Fatal(err)
	}
	reloaded, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := reloaded.Stats(), fresh.Stats(); got != want {
		t.Errorf("reloaded stats diverge:\n reloaded %+v\n fresh    %+v", got, want)
	}
}

// TestIngestAfterSnapshotKeepsThresholds checks that a platform restored
// from a snapshot of a custom-threshold bootstrap scores incremental
// similarity with those same thresholds (they are persisted in the CONF
// section), keeping the fresh-bootstrap equivalence guarantee.
func TestIngestAfterSnapshotKeepsThresholds(t *testing.T) {
	tables, _ := ingestLakeTables(t)
	n := len(tables)
	opts := Options{Theta: 0.70} // permissive: more content edges than default
	base, extra := tables[:n-1], tables[n-1:]

	orig := Bootstrap(opts, base)
	path := filepath.Join(t.TempDir(), "thresholds.kgs")
	if err := orig.Save(path); err != nil {
		t.Fatal(err)
	}
	reloaded, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reloaded.AddTables(extra); err != nil {
		t.Fatal(err)
	}

	fresh := Bootstrap(opts, tables)
	if got, want := reloaded.Stats(), fresh.Stats(); got != want {
		t.Errorf("stats diverge after snapshot+ingest:\n reloaded %+v\n fresh    %+v", got, want)
	}
}

// TestRemoveTableErrors covers the failure modes of the mutation API.
func TestRemoveTableErrors(t *testing.T) {
	tables, _ := ingestLakeTables(t)
	plat := Bootstrap(Options{}, tables[:3])
	if err := plat.RemoveTable("nope/none.csv"); err == nil {
		t.Error("removing an unknown table should error")
	}
	if _, err := plat.AddTables([]Table{{Dataset: "d", Frame: nil}}); err == nil {
		t.Error("nil frame should error")
	}
	if _, err := plat.AddTables([]Table{
		{Dataset: tables[0].Dataset, Frame: tables[0].Frame},
		{Dataset: tables[0].Dataset, Frame: tables[0].Frame},
	}); err == nil {
		t.Error("duplicate IDs in one batch should error")
	}
}

// TestRemoveLastTableOfDataset checks that dataset-level triples disappear
// with their last member table (they are shared across the per-table named
// graphs of the dataset's tables).
func TestRemoveLastTableOfDataset(t *testing.T) {
	tables, _ := ingestLakeTables(t)
	plat := Bootstrap(Options{}, tables)

	// Group IDs by dataset to find a dataset and all its tables.
	byDataset := map[string][]string{}
	for _, tb := range tables {
		byDataset[tb.Dataset] = append(byDataset[tb.Dataset], tb.Dataset+"/"+tb.Frame.Name)
	}
	var victim string
	for ds := range byDataset {
		victim = ds
		break
	}
	before := plat.Stats().Datasets
	for _, id := range byDataset[victim] {
		if err := plat.RemoveTable(id); err != nil {
			t.Fatal(err)
		}
	}
	if got := plat.Stats().Datasets; got != before-1 {
		t.Errorf("datasets = %d after removing all of %q, want %d", got, victim, before-1)
	}
	res, err := plat.Query(`SELECT ?d WHERE { ?d a kglids:Dataset . }`)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if row["d"].Local() == victim {
			t.Errorf("dataset %q still in graph after all tables removed", victim)
		}
	}
}

// TestQueryCacheInvalidatedByIngest: repeated identical queries are served
// from the platform's SPARQL result cache until a live mutation
// (AddTables/RemoveTable) bumps the store generation, after which results
// reflect the mutation instead of the cached state.
func TestQueryCacheInvalidatedByIngest(t *testing.T) {
	tables, _ := ingestLakeTables(t)
	plat := Bootstrap(Options{}, tables[:len(tables)-1])
	const q = `SELECT (COUNT(?t) AS ?n) WHERE { ?t a kglids:Table . }`

	count := func() int64 {
		res, err := plat.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		n, _ := res.Rows[0]["n"].AsInt()
		return n
	}
	before := count()
	count() // second run must be a cache hit
	stats := plat.Core().Discovery.CacheStats()
	if stats.Hits == 0 {
		t.Fatalf("repeated query did not hit the cache: %+v", stats)
	}

	if _, err := plat.AddTables(tables[len(tables)-1:]); err != nil {
		t.Fatal(err)
	}
	if got := count(); got != before+1 {
		t.Fatalf("count after ingest = %d, want %d (stale cache?)", got, before+1)
	}
	id := tables[len(tables)-1].Dataset + "/" + tables[len(tables)-1].Frame.Name
	if err := plat.RemoveTable(id); err != nil {
		t.Fatal(err)
	}
	if got := count(); got != before {
		t.Fatalf("count after removal = %d, want %d (stale cache?)", got, before)
	}
}
