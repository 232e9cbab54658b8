package discovery_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"kglids"
	"kglids/internal/core"
	"kglids/internal/discovery"
	"kglids/internal/lakegen"
	"kglids/internal/schema"
)

// TestAdjacencyMatchesStoreScoring holds the resident adjacency to the store
// walk it replaced: for every table of a random lake, UnionableTables and
// JoinableTables at k=0 and FindUnionableColumns for every returned pair
// must equal the walk element for element — same tables, same order, same
// float64 scores — after bootstrap, after each step of a random sequence of
// adds, updates and removals, on a platform restored from a snapshot, and
// on a follower that replayed the primary's changelog through ApplyChange.
func TestAdjacencyMatchesStoreScoring(t *testing.T) {
	for _, seed := range []int64{3, 11} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			bench := lakegen.WideLake(36, 6, 24, seed)
			var tables []kglids.Table
			var ids []string
			for _, df := range bench.Tables {
				tables = append(tables, kglids.Table{Dataset: bench.Dataset[df.Name], Frame: df})
				ids = append(ids, bench.Dataset[df.Name]+"/"+df.Name)
			}
			base, pool := tables[:len(tables)-8], tables[len(tables)-8:]
			primary := kglids.Bootstrap(kglids.Options{}, base)
			primary.EnableChangelog(0)
			var snap bytes.Buffer
			if err := primary.SaveTo(&snap); err != nil {
				t.Fatal(err)
			}
			assertMatchesStore(t, "bootstrap", primary.Core(), ids)

			rng := rand.New(rand.NewSource(seed))
			for step := 0; step < 14; step++ {
				var err error
				switch rng.Intn(4) {
				case 0: // add (or re-add) one or two pool tables
					batch := []kglids.Table{pool[rng.Intn(len(pool))]}
					if other := pool[rng.Intn(len(pool))]; other.Frame != batch[0].Frame {
						batch = append(batch, other)
					}
					_, err = primary.AddTables(batch)
				case 1: // update any table with truncated content
					tb := tables[rng.Intn(len(tables))]
					_, err = primary.AddTables([]kglids.Table{{Dataset: tb.Dataset, Frame: tb.Frame.Head(4 + rng.Intn(16))}})
				default: // remove a resident table
					resident := primary.TableIDs()
					err = primary.RemoveTable(resident[rng.Intn(len(resident))])
				}
				if err != nil {
					t.Fatal(err)
				}
				assertMatchesStore(t, fmt.Sprintf("step %d", step), primary.Core(), ids)
			}

			follower, err := kglids.Read(bytes.NewReader(snap.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			assertMatchesStore(t, "restored", follower.Core(), ids)
			for cursor := follower.ChangelogPosition(); ; {
				view, err := primary.ChangelogSince(cursor, 3)
				if err != nil {
					t.Fatal(err)
				}
				for _, e := range view.Entries {
					if err := follower.ApplyChange(e.Kind, e.Generation, e.Payload); err != nil {
						t.Fatal(err)
					}
					cursor = e.Seq
				}
				if view.AtHead {
					break
				}
			}
			assertMatchesStore(t, "follower", follower.Core(), ids)
		})
	}
}

// assertMatchesStore compares adjacency-ranked discovery with the store walk
// for every table ID, resident or not.
func assertMatchesStore(t *testing.T, when string, p *core.Platform, ids []string) {
	t.Helper()
	ranked := 0
	for _, id := range ids {
		iri := schema.TableIRI(id)
		got, want := p.Discovery.UnionableTables(iri, 0), discovery.StoreUnionableTables(p.Store, iri, 0)
		sameResults(t, when+": unionable "+id, got, want)
		ranked += len(got)
		sameResults(t, when+": joinable "+id,
			p.Discovery.JoinableTables(iri, 0), discovery.StoreJoinableTables(p.Store, iri, 0))
		for _, r := range got {
			sameResults(t, when+": columns "+id+" ~ "+r.Table.Value,
				p.Discovery.FindUnionableColumns(iri, r.Table), discovery.StoreFindUnionableColumns(p.Store, iri, r.Table))
		}
	}
	if ranked == 0 {
		t.Fatalf("%s: no table ranked anything; the lake exercises nothing", when)
	}
}

func sameResults[E comparable](t *testing.T, what string, got, want []E) {
	t.Helper()
	if (got == nil) != (want == nil) || !slices.Equal(got, want) {
		t.Fatalf("%s:\n  adjacency: %v\n  store:     %v", what, got, want)
	}
}
