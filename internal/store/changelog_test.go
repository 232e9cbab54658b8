package store

import (
	"errors"
	"testing"

	"kglids/internal/rdf"
)

func TestChangelogSequencesMutations(t *testing.T) {
	st := New()
	cl := st.EnableChangelog(0)
	if again := st.EnableChangelog(0); again != cl {
		t.Fatal("EnableChangelog is not idempotent")
	}

	// The store's own writes never log: a record is a whole mutation,
	// which only the platform knows.
	g := rdf.Resource("g")
	st.AddBatch([]rdf.Quad{
		quad("s1", "p", "o1", g),
		quad("s2", "p", "o2", g),
	})
	st.AddQuad(quad("s3", "p", "o3", g))
	st.RemoveQuad(quad("s3", "p", "o3", g))
	st.RemoveBatch([]rdf.Quad{quad("s1", "p", "o1", g)})
	st.RemoveGraph(g)
	if cl.Head() != 0 {
		t.Fatalf("store writes appended %d records", cl.Head())
	}

	cl.Append(ChangeTables, "add t", 2, 2)
	cl.Append(ChangePipelines, "p1", 7, 9)
	cl.Append(ChangeTables, "remove t", 2, 11)
	if cl.Head() != 3 || cl.Floor() != 0 {
		t.Fatalf("head/floor = %d/%d, want 3/0", cl.Head(), cl.Floor())
	}
	view, err := cl.Since(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !view.AtHead || len(view.Records) != 3 {
		t.Fatalf("Since(0) = %d records, atHead=%v", len(view.Records), view.AtHead)
	}
	want := []ChangeRecord{
		{Seq: 1, Gen: 2, Kind: ChangeTables, Body: "add t", Weight: 2},
		{Seq: 2, Gen: 9, Kind: ChangePipelines, Body: "p1", Weight: 7},
		{Seq: 3, Gen: 11, Kind: ChangeTables, Body: "remove t", Weight: 2},
	}
	for i, rec := range view.Records {
		if rec.TS == 0 {
			t.Errorf("record %d: zero timestamp", i)
		}
		rec.TS = 0
		if rec.Seq != want[i].Seq || rec.Gen != want[i].Gen || rec.Kind != want[i].Kind ||
			rec.Body != want[i].Body || rec.Weight != want[i].Weight || len(rec.Quads) != 0 {
			t.Errorf("record %d = %+v, want %+v", i, rec, want[i])
		}
	}
}

func TestChangelogCursorSemantics(t *testing.T) {
	st := New()
	cl := st.EnableChangelog(0)
	for i := 0; i < 5; i++ {
		cl.Append(ChangeTables, i, 1, uint64(i+1))
	}

	// Pagination: max bounds each page, AtHead only on the last.
	view, err := cl.Since(0, 2)
	if err != nil || len(view.Records) != 2 || view.AtHead {
		t.Fatalf("Since(0,2) = %d records, atHead=%v, err=%v", len(view.Records), view.AtHead, err)
	}
	view, err = cl.Since(2, 0)
	if err != nil || len(view.Records) != 3 || !view.AtHead {
		t.Fatalf("Since(2) = %d records, atHead=%v, err=%v", len(view.Records), view.AtHead, err)
	}

	// cursor == head: empty at-head page (poll steady state).
	view, err = cl.Since(5, 0)
	if err != nil || len(view.Records) != 0 || !view.AtHead {
		t.Fatalf("Since(head) = %d records, atHead=%v, err=%v", len(view.Records), view.AtHead, err)
	}

	// cursor beyond head: the follower holds history this log never wrote.
	if _, err := cl.Since(6, 0); !errors.Is(err, ErrFutureCursor) {
		t.Fatalf("Since(head+1) err = %v, want ErrFutureCursor", err)
	}

	// After compaction, cursors below the floor are gone.
	cl.CompactTo(3)
	if cl.Floor() != 3 {
		t.Fatalf("floor = %d after CompactTo(3)", cl.Floor())
	}
	if _, err := cl.Since(2, 0); !errors.Is(err, ErrCompacted) {
		t.Fatalf("Since(below floor) err = %v, want ErrCompacted", err)
	}
	if view, err := cl.Since(3, 0); err != nil || len(view.Records) != 2 {
		t.Fatalf("Since(floor) = %d records, err=%v, want the 2 retained", len(view.Records), err)
	}
	// CompactTo beyond head clamps; floor never passes head.
	cl.CompactTo(99)
	if cl.Floor() != 5 || cl.Head() != 5 {
		t.Fatalf("after CompactTo(99): floor/head = %d/%d, want 5/5", cl.Floor(), cl.Head())
	}
}

// TestChangelogRetentionBudget: a record weighs one more than the quads its
// mutation added plus removed, and the log keeps the newest records whose
// weight fits the budget.
func TestChangelogRetentionBudget(t *testing.T) {
	st := New()
	cl := st.EnableChangelog(12)
	for i, quads := range []int{3, 0, 4, 1, 2, 5, 0, 2} {
		cl.Append(ChangeTables, i, quads, uint64(i+1))
	}
	// Newest first the weights are 3, 1, 6, 3, 2, 5: 3+1+6 fits in 12,
	// adding 3 does not.
	if cl.Head() != 8 || cl.Floor() != 5 {
		t.Fatalf("head/floor = %d/%d, want 8/5", cl.Head(), cl.Floor())
	}
	view, err := cl.Since(cl.Floor(), 0)
	if err != nil {
		t.Fatal(err)
	}
	weight := 0
	for _, rec := range view.Records {
		weight += rec.Weight + 1
	}
	if len(view.Records) != 3 || weight != 10 {
		t.Errorf("retained %d records weighing %d, want 3 weighing 10", len(view.Records), weight)
	}

	// One oversized record still lands: the newest record is always kept.
	cl.Append(ChangeTables, "big", 50, 9)
	view, err = cl.Since(cl.Floor(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(view.Records) != 1 || view.Records[0].Weight != 50 {
		t.Fatalf("oversized record not retained as the sole record: %d records", len(view.Records))
	}

	// Compaction releases the weight of what it drops: after it, the budget
	// holds as many records as before.
	cl.CompactTo(cl.Head())
	for i := 0; i < 3; i++ {
		cl.Append(ChangePipelines, i, 3, uint64(10+i))
	}
	if view, err = cl.Since(cl.Floor(), 0); err != nil || len(view.Records) != 3 {
		t.Fatalf("after compaction %d records retained, err=%v, want 3", len(view.Records), err)
	}
}

func TestChangelogSeedFloor(t *testing.T) {
	st := New()
	cl := st.EnableChangelog(0)
	cl.SeedFloor(41)
	if cl.Head() != 41 || cl.Floor() != 41 {
		t.Fatalf("seeded head/floor = %d/%d, want 41/41", cl.Head(), cl.Floor())
	}
	cl.Append(ChangeTables, nil, 1, 1)
	view, err := cl.Since(41, 0)
	if err != nil || len(view.Records) != 1 || view.Records[0].Seq != 42 {
		t.Fatalf("record after seeded floor: %+v, err=%v (want seq 42)", view.Records, err)
	}
	// Seeding is a boot-time operation only: no-op once records exist.
	cl.SeedFloor(100)
	if cl.Head() != 42 {
		t.Fatalf("SeedFloor after records moved head to %d", cl.Head())
	}
}

// Floor returns the compaction floor: the highest sequence number that is
// no longer retained. Valid cursors are Floor()..Head().
func (cl *Changelog) Floor() uint64 {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return cl.floor
}
