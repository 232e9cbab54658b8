package core_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"kglids"
	"kglids/internal/core"
	"kglids/internal/lakegen"
	"kglids/internal/schema"
)

// TestEdgeStoreMatchesExhaustiveBuild holds the adjacency, the platform's
// only resident copy of the similarity edges, to the reference build.
// EdgesView must equal the sorted exhaustive edges of the current profiles
// element for element, orientation and float64 scores included;
// Stats().SimilarityEdges must be its length; and a removal of any table
// must retract exactly the part of it that touches the table. It checks
// after bootstrap, after a snapshot restore, after each step of a seeded
// random sequence of adds, updates and removals on a primary, and on a
// follower fed the primary's changelog, whose platform deltas go through
// ApplyPlatformDelta.
func TestEdgeStoreMatchesExhaustiveBuild(t *testing.T) {
	for _, seed := range []int64{5, 13} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			bench := lakegen.WideLake(30, 6, 24, seed)
			var tables []kglids.Table
			for _, df := range bench.Tables {
				tables = append(tables, kglids.Table{Dataset: bench.Dataset[df.Name], Frame: df})
			}
			base, pool := tables[:len(tables)-8], tables[len(tables)-8:]
			primary := kglids.Bootstrap(kglids.Options{}, base)
			primary.EnableChangelog(0)
			assertEdgeStore(t, "bootstrap", primary.Core())

			var snap bytes.Buffer
			if err := primary.SaveTo(&snap); err != nil {
				t.Fatal(err)
			}
			follower, err := kglids.Read(&snap)
			if err != nil {
				t.Fatal(err)
			}
			assertEdgeStore(t, "restored", follower.Core())

			rng := rand.New(rand.NewSource(seed))
			cursor := follower.ChangelogPosition()
			for step := 0; step < 16; step++ {
				resident := primary.TableIDs()
				switch rng.Intn(3) {
				case 0: // add (or update) one or two pool tables
					batch := []kglids.Table{pool[rng.Intn(len(pool))]}
					if other := pool[rng.Intn(len(pool))]; other.Frame != batch[0].Frame {
						batch = append(batch, other)
					}
					_, err = primary.AddTables(batch)
				case 1: // update a resident table: its columns move to the end of Profiles
					id := resident[rng.Intn(len(resident))]
					for _, tb := range tables {
						if tb.Dataset+"/"+tb.Frame.Name == id {
							_, err = primary.AddTables([]kglids.Table{{Dataset: tb.Dataset, Frame: tb.Frame.Head(6 + rng.Intn(16))}})
						}
					}
				default:
					err = primary.RemoveTable(resident[rng.Intn(len(resident))])
				}
				if err != nil {
					t.Fatal(err)
				}
				assertEdgeStore(t, fmt.Sprintf("primary step %d", step), primary.Core())

				for {
					view, err := primary.ChangelogSince(cursor, 4)
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
				assertEdgeStore(t, fmt.Sprintf("follower step %d", step), follower.Core())
			}
		})
	}
}

func assertEdgeStore(t *testing.T, when string, p *core.Platform) {
	t.Helper()
	got, want := p.EdgesView(), p.ExhaustiveEdges()
	if len(want) == 0 {
		t.Fatalf("%s: the lake has no similarity edges; the check exercises nothing", when)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: EdgesView has %d edges, the exhaustive build %d", when, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: edge %d = %+v, the exhaustive build has %+v", when, i, got[i], want[i])
		}
	}
	if n := p.Stats().SimilarityEdges; n != len(got) {
		t.Fatalf("%s: Stats().SimilarityEdges = %d, EdgesView has %d", when, n, len(got))
	}
	// A removal retracts the quads of its table's edges, in canonical order.
	for _, id := range p.TableIDs() {
		var touching []schema.Edge
		for _, e := range got {
			if strings.HasPrefix(e.A, id+"/") || strings.HasPrefix(e.B, id+"/") {
				touching = append(touching, e)
			}
		}
		if retracted := p.RetractedEdges(id); !slices.Equal(retracted, touching) {
			t.Fatalf("%s: removing %s would retract %v, its edges are %v", when, id, retracted, touching)
		}
	}
}
