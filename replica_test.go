package kglids

// Tests for the replication protocol: a follower seeded from any snapshot
// of the primary and replaying the mutation changelog must become
// indistinguishable from the primary — same store generation, same Stats,
// same similarity answers, same SPARQL results. The property must hold for
// any snapshot point and any mutation sequence, including while concurrent
// readers hit the follower mid-replay.

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"kglids/internal/lakegen"
	"kglids/internal/pipeline"
)

// replayFrom tails the primary's changelog from the replica's snapshot
// position until at head, applying every record. Returns the final cursor.
func replayFrom(t *testing.T, primary, replica *Platform, pageSize int) uint64 {
	t.Helper()
	cursor := replica.ChangelogPosition()
	for {
		view, err := primary.ChangelogSince(cursor, pageSize)
		if err != nil {
			t.Fatalf("ChangelogSince(%d): %v", cursor, err)
		}
		for _, e := range view.Entries {
			if e.Seq != cursor+1 {
				t.Fatalf("changelog gap: cursor %d, next record %d", cursor, e.Seq)
			}
			if err := replica.ApplyChange(e.Kind, e.Generation, e.Payload); err != nil {
				t.Fatalf("apply record %d (%s): %v", e.Seq, e.Kind, err)
			}
			cursor = e.Seq
		}
		if view.AtHead {
			return cursor
		}
	}
}

// assertConverged checks the follower answers exactly like the primary.
func assertConverged(t *testing.T, primary, replica *Platform, bench *lakegen.Benchmark) {
	t.Helper()
	if pg, rg := primary.Generation(), replica.Generation(); pg != rg {
		t.Fatalf("generation: primary %d, replica %d", pg, rg)
	}
	if ps, rs := primary.Stats(), replica.Stats(); !reflect.DeepEqual(ps, rs) {
		t.Fatalf("stats diverge:\n  primary: %+v\n  replica: %+v", ps, rs)
	}
	assertSameCanonicalEdges(t, "replica vs primary", replica.Core().EdgesView(), primary.Core().EdgesView())
	pp, rp := primary.Core().ProfilesView(), replica.Core().ProfilesView()
	if len(pp) != len(rp) {
		t.Fatalf("profiles: primary %d, replica %d", len(pp), len(rp))
	}
	for i := range pp {
		if pp[i].ID() != rp[i].ID() {
			t.Fatalf("profile %d: primary %s, replica %s", i, pp[i].ID(), rp[i].ID())
		}
	}
	if pp, rp := pipelineIDs(primary), pipelineIDs(replica); !equalStrings(pp, rp) {
		t.Fatalf("pipelines diverge:\n  primary: %v\n  replica: %v", pp, rp)
	}
	const q = `SELECT ?n WHERE { ?t a kglids:Table ; kglids:name ?n . }`
	if pn, rn := sparqlProbe(t, primary, q, "n"), sparqlProbe(t, replica, q, "n"); !equalStrings(pn, rn) {
		t.Fatalf("SPARQL table names diverge:\n  primary: %v\n  replica: %v", pn, rn)
	}
	for _, name := range bench.QueryTables {
		id := bench.Dataset[name] + "/" + name
		if !primary.HasTable(id) {
			continue
		}
		pu, perr := primary.UnionableTables(id, 5)
		ru, rerr := replica.UnionableTables(id, 5)
		if (perr == nil) != (rerr == nil) {
			t.Fatalf("unionable(%s): primary err %v, replica err %v", id, perr, rerr)
		}
		if fmt.Sprint(pu) != fmt.Sprint(ru) {
			t.Fatalf("unionable(%s) diverges:\n  primary: %v\n  replica: %v", id, pu, ru)
		}
	}
}

// pipelineIDs returns the script IDs of a platform's pipelines, in the
// order they were added.
func pipelineIDs(p *Platform) []string {
	var ids []string
	for _, abs := range p.Core().Pipelines() {
		ids = append(ids, abs.Script.ID)
	}
	return ids
}

// TestReplicaReplayDeterminism is the replication property test: for
// randomized add/update/remove/pipeline sequences, a snapshot taken at a
// random point plus a replay of the remaining changelog reproduces the
// primary exactly. Concurrent readers run against the follower throughout
// the replay (meaningful under -race).
func TestReplicaReplayDeterminism(t *testing.T) {
	for _, seed := range []int64{1, 7, 23} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			tables, bench := ingestLakeTables(t)
			n := len(tables)
			base, pool := tables[:n-3], tables[n-3:]

			primary := Bootstrap(Options{}, base)
			primary.EnableChangelog(0)

			// Random mutation script. The snapshot lands after a random
			// prefix, so every replay starts from a different floor.
			type mutation func()
			muts := []mutation{}
			for i := 0; i < 8; i++ {
				switch rng.Intn(4) {
				case 0: // add or re-add (update) a pool table
					tb := pool[rng.Intn(len(pool))]
					muts = append(muts, func() {
						if _, err := primary.AddTables([]Table{tb}); err != nil {
							t.Fatal(err)
						}
					})
				case 1: // update with truncated content
					tb := pool[rng.Intn(len(pool))]
					head := 10 + rng.Intn(30)
					muts = append(muts, func() {
						up := Table{Dataset: tb.Dataset, Frame: tb.Frame.Head(head)}
						if _, err := primary.AddTables([]Table{up}); err != nil {
							t.Fatal(err)
						}
					})
				case 2: // remove a random resident table (if any)
					muts = append(muts, func() {
						ids := primary.TableIDs()
						if len(ids) == 0 {
							return
						}
						if err := primary.RemoveTable(ids[rng.Intn(len(ids))]); err != nil {
							t.Fatal(err)
						}
					})
				case 3: // register a pipeline script
					id := fmt.Sprintf("kaggle/replay/p%d", i)
					muts = append(muts, func() {
						primary.AddPipelines([]Script{{
							ID:     id,
							Source: "import pandas as pd\ndf = pd.read_csv('x.csv')\ndf.head()\n",
							Meta:   pipeline.Metadata{Votes: 3, Task: "classification"},
						}})
					})
				}
			}

			snapAt := rng.Intn(len(muts))
			var snap bytes.Buffer
			for i, m := range muts {
				if i == snapAt {
					if err := primary.SaveTo(&snap); err != nil {
						t.Fatal(err)
					}
				}
				m()
			}

			replica, err := Read(bytes.NewReader(snap.Bytes()))
			if err != nil {
				t.Fatal(err)
			}

			// Concurrent readers against the follower while it replays: the
			// serving replica never stops answering. Meaningful under -race.
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for w := 0; w < 2; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						_ = replica.Stats()
						_, _ = replica.Query(`SELECT ?t WHERE { ?t a kglids:Table . }`)
					}
				}()
			}
			pageSize := 1 + rng.Intn(3)
			cursor := replayFrom(t, primary, replica, pageSize)
			close(stop)
			wg.Wait()

			if head := primary.ChangelogPosition(); cursor != head {
				t.Fatalf("replay stopped at %d, primary head %d", cursor, head)
			}
			assertConverged(t, primary, replica, bench)
		})
	}
}

// TestChangelogCursorRecovery pins the re-seed contract: a cursor below
// the snapshot-compacted floor reports ErrLogCompacted, one beyond the
// head reports ErrLogFutureCursor, and a platform without a changelog
// reports ErrNoChangelog.
func TestChangelogCursorRecovery(t *testing.T) {
	tables, _ := ingestLakeTables(t)
	primary := Bootstrap(Options{}, tables[:len(tables)-1])
	primary.EnableChangelog(0)
	if _, err := primary.AddTables(tables[len(tables)-1:]); err != nil {
		t.Fatal(err)
	}

	// Saving a snapshot compacts the log up to the saved position.
	var snap bytes.Buffer
	if err := primary.SaveTo(&snap); err != nil {
		t.Fatal(err)
	}
	pos := primary.ChangelogPosition()
	if pos == 0 {
		t.Fatal("no changelog records after ingest")
	}
	if _, err := primary.ChangelogSince(0, 0); !errors.Is(err, ErrLogCompacted) {
		t.Fatalf("Since(0) after snapshot err = %v, want ErrLogCompacted", err)
	}
	if _, err := primary.ChangelogSince(pos+1, 0); !errors.Is(err, ErrLogFutureCursor) {
		t.Fatalf("Since(head+1) err = %v, want ErrLogFutureCursor", err)
	}
	if view, err := primary.ChangelogSince(pos, 0); err != nil || !view.AtHead {
		t.Fatalf("Since(head) = %+v, err=%v, want empty at-head page", view, err)
	}

	// A snapshot-seeded follower starts exactly at the compaction floor.
	replica, err := Read(bytes.NewReader(snap.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got := replica.ChangelogPosition(); got != pos {
		t.Fatalf("replica snapshot position %d, want primary position %d", got, pos)
	}
	if _, err := replica.ChangelogSince(0, 0); !errors.Is(err, ErrNoChangelog) {
		t.Fatalf("follower ChangelogSince err = %v, want ErrNoChangelog", err)
	}
}

// platformState is what a reader of a platform can observe of it.
type platformState struct {
	Tables     []string
	Unionable  map[string]string
	TableNames []string
	Stats      Stats
	Pipelines  []string
}

func observe(t *testing.T, p *Platform) platformState {
	t.Helper()
	st := platformState{
		Tables:     p.TableIDs(),
		Unionable:  map[string]string{},
		TableNames: sparqlProbe(t, p, `SELECT ?n WHERE { ?t a kglids:Table ; kglids:name ?n . }`, "n"),
		Stats:      p.Stats(),
		Pipelines:  pipelineIDs(p),
	}
	for _, id := range st.Tables {
		res, err := p.UnionableTables(id, 0)
		if err != nil {
			t.Fatalf("unionable(%s): %v", id, err)
		}
		st.Unionable[id] = fmt.Sprint(res)
	}
	return st
}

// TestFollowerMatchesPrimaryAtEveryRecord: every mutation on the primary
// is one changelog record, so a follower replaying the log one record at a
// time passes through exactly the states the primary did, and a reader of
// the follower never sees part of a mutation — no table that discovery
// names while SPARQL does not, no pipeline missing after its record.
func TestFollowerMatchesPrimaryAtEveryRecord(t *testing.T) {
	for _, seed := range []int64{3, 11} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			tables, _ := ingestLakeTables(t)
			n := len(tables)
			primary := Bootstrap(Options{}, tables[:n-3])
			primary.EnableChangelog(0)
			var snap bytes.Buffer
			if err := primary.SaveTo(&snap); err != nil {
				t.Fatal(err)
			}
			follower, err := Read(&snap)
			if err != nil {
				t.Fatal(err)
			}

			// Each kind of mutation three times, in a random order.
			var states []platformState
			for i, kind := range rng.Perm(12) {
				pos := primary.ChangelogPosition()
				var err error
				switch resident := primary.TableIDs(); kind % 4 {
				case 0: // add, or update with the full table
					_, err = primary.AddTables([]Table{tables[n-3+rng.Intn(3)]})
				case 1: // add or update with part of a table's rows
					tb := tables[rng.Intn(n)]
					_, err = primary.AddTables([]Table{{Dataset: tb.Dataset, Frame: tb.Frame.Head(10 + rng.Intn(30))}})
				case 2:
					err = primary.RemoveTable(resident[rng.Intn(len(resident))])
				case 3:
					primary.AddPipelines([]Script{{
						ID:     fmt.Sprintf("kaggle/every-record/p%d", i),
						Source: "import pandas as pd\nfrom sklearn.ensemble import RandomForestClassifier\ndf = pd.read_csv('x.csv')\nRandomForestClassifier().fit(df, df)\n",
						Meta:   pipeline.Metadata{Votes: i, Task: "classification"},
					}})
				}
				if err != nil {
					t.Fatal(err)
				}
				if got := primary.ChangelogPosition(); got != pos+1 {
					t.Fatalf("mutation %d moved the changelog from %d to %d, want one record", i, pos, got)
				}
				states = append(states, observe(t, primary))
			}

			view, err := primary.ChangelogSince(follower.ChangelogPosition(), 0)
			if err != nil {
				t.Fatal(err)
			}
			if len(view.Entries) != len(states) {
				t.Fatalf("%d records for %d mutations", len(view.Entries), len(states))
			}
			for i, e := range view.Entries {
				if err := follower.ApplyChange(e.Kind, e.Generation, e.Payload); err != nil {
					t.Fatalf("apply record %d (%s): %v", e.Seq, e.Kind, err)
				}
				if got := observe(t, follower); !reflect.DeepEqual(got, states[i]) {
					t.Fatalf("after record %d (%s) the follower shows\n  %+v\nthe primary showed\n  %+v", e.Seq, e.Kind, got, states[i])
				}
			}
		})
	}
}
