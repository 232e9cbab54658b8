package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"

	"kglids"
	"kglids/client"
	"kglids/internal/lakegen"
)

// changelogLake is a primary of the benchmark's serving-lake shape (lakegen
// seed 104: 24 families of about eight tables, 28 noise tables, 250 rows)
// whose changelog holds twenty single-table additions, the tables of
// held-out families. It is built once per test binary: bootstrapping the
// lake takes seconds.
var changelogLake = sync.OnceValues(func() (*kglids.Platform, error) {
	const families, additions = 24, 20
	gen := lakegen.Generate(lakegen.Spec{Name: "alloc", Families: families + 3, TablesPerFamily: 8,
		NoiseTables: 28, RowsPerTable: 250, Seed: 104})
	var base, extra []kglids.Table
	for _, df := range gen.Tables {
		t := kglids.Table{Dataset: gen.Dataset[df.Name], Frame: df}
		var fam int
		if _, err := fmt.Sscanf(t.Dataset, "family_%d", &fam); err == nil && fam >= families {
			extra = append(extra, t)
		} else {
			base = append(base, t)
		}
	}
	if len(extra) < additions {
		return nil, fmt.Errorf("only %d held-out tables, want %d", len(extra), additions)
	}
	plat := kglids.Bootstrap(kglids.Options{}, base)
	plat.EnableChangelog(0)
	for _, t := range extra[:additions] {
		if _, err := plat.AddTables([]kglids.Table{t}); err != nil {
			return nil, err
		}
	}
	return plat, nil
})

// fetchChangelogPage fetches the whole changelog as one page through the
// typed client, over a loopback server running the production handler.
func fetchChangelogPage(tb testing.TB, c *client.Client, head uint64) client.ChangelogPage {
	tb.Helper()
	page, err := c.Changelog(context.Background(), 0, 0)
	if err != nil {
		tb.Fatal(err)
	}
	if !page.AtHead || page.NextCursor != head {
		tb.Fatalf("page ends at %d (at head %v), want one page to head %d", page.NextCursor, page.AtHead, head)
	}
	return page
}

// TestChangelogPageAllocs bounds what one changelog page costs to serve and
// fetch, client and server together: at most six times the page's
// uncompressed JSON. The page is the replica catch-up path over HTTP; every
// copy of its body here is one the Go heap must later collect.
func TestChangelogPageAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("bootstraps a 225-table lake")
	}
	plat, err := changelogLake()
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(plat, Options{}))
	defer ts.Close()
	c, err := client.New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	head := plat.ChangelogPosition()
	page := fetchChangelogPage(t, c, head) // warm the connection and the pools
	body, err := json.Marshal(page)
	if err != nil {
		t.Fatal(err)
	}
	var payload int
	for _, e := range page.Entries {
		payload += len(e.Payload)
	}

	// Each fetch starts with the pools empty, as a follower's catch-up
	// does after the collections of a read phase: two GC cycles clear a
	// sync.Pool.
	const fetches = 3
	var total uint64
	for i := 0; i < fetches; i++ {
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&m0)
		fetchChangelogPage(t, c, head)
		runtime.ReadMemStats(&m1)
		total += m1.TotalAlloc - m0.TotalAlloc
	}
	perFetch := float64(total) / fetches
	ratio := perFetch / float64(len(body))
	t.Logf("%d records, %.2f MB payload, %.2f MB JSON: %.1f MiB allocated per fetch (%.1f× the JSON)",
		len(page.Entries), float64(payload)/1e6, float64(len(body))/1e6, perFetch/(1<<20), ratio)
	if ratio > 6 {
		t.Errorf("one changelog page allocates %.1f× its JSON, want at most 6×", ratio)
	}
}

// BenchmarkChangelogPage fetches one changelog page of the serving-lake
// primary through the typed client.
func BenchmarkChangelogPage(b *testing.B) {
	plat, err := changelogLake()
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(New(plat, Options{}))
	defer ts.Close()
	c, err := client.New(ts.URL)
	if err != nil {
		b.Fatal(err)
	}
	head := plat.ChangelogPosition()
	fetchChangelogPage(b, c, head)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fetchChangelogPage(b, c, head)
	}
}

// TestChangelogJSONMatchesEncoder: the changelog page's hand-sized encoder
// writes exactly the bytes json.Encoder writes for the same DTO, so the
// wire contract is the DTO's, whatever the values.
func TestChangelogJSONMatchesEncoder(t *testing.T) {
	pages := []client.ChangelogPage{
		{Entries: []client.ChangeEntry{}, Head: 7, Floor: 3, AtHead: true, NextCursor: 7},
		{Entries: []client.ChangeEntry{
			{Seq: 1, Generation: 1 << 63, TS: -1 << 63, Kind: "tables", Payload: []byte{0, 1, 2, 0xff}},
			{Seq: 2, Kind: "pipelines", Payload: []byte{}},
			{Seq: 3, Kind: "retired-kind", Payload: nil},
			{Seq: 4, Kind: "tables", Payload: make([]byte, 4097)},
		}, Head: 1<<64 - 1, Floor: 0, NextCursor: 4},
	}
	// Every kind of character the unescaped path must not take, alone.
	for _, kind := range []string{"a\"b", `a\b`, "a<b", "a>b", "a&b", "a\tb", "a\x7fb", "aéb", "a b", "a\xffb"} {
		pages = append(pages, client.ChangelogPage{Entries: []client.ChangeEntry{{Seq: 1, Kind: kind}}})
	}
	for _, page := range pages {
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(page); err != nil {
			t.Fatal(err)
		}
		if got := changelogJSON(page); !bytes.Equal(got, want.Bytes()) {
			t.Errorf("changelogJSON =\n%s\njson.Encoder =\n%s", got, want.Bytes())
		}
	}
}
