package client_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"kglids"
	"kglids/client"
	"kglids/internal/dataframe"
	"kglids/internal/server"
)

// replicaPair boots a primary with the changelog enabled (retainQuads is
// its retention budget, <= 0 for the default) and a follower platform
// seeded from its snapshot endpoint.
func replicaPair(t *testing.T, retainQuads int) (*client.Client, *kglids.Platform, *kglids.Platform) {
	t.Helper()
	ts, plat, _ := testServer(t, true)
	plat.EnableChangelog(retainQuads)
	c, err := client.New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	body, err := c.Snapshot(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer body.Close()
	replica, err := kglids.Read(body)
	if err != nil {
		t.Fatal(err)
	}
	return c, plat, replica
}

func TestFollowerCatchUp(t *testing.T) {
	c, primary, replica := replicaPair(t, 0)

	// Mutate the primary after the snapshot: the follower must stream the
	// resulting records and land on the identical generation.
	ids := primary.TableIDs()
	if err := primary.RemoveTable(ids[0]); err != nil {
		t.Fatal(err)
	}
	target := primary.ChangelogPosition()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	f := &client.Follower{
		Client: c,
		Cursor: replica.ChangelogPosition(),
		Poll:   time.Millisecond,
		Limit:  1, // force pagination
		Apply: func(e client.ChangeEntry) error {
			return replica.ApplyChange(e.Kind, e.Generation, e.Payload)
		},
		OnProgress: func(cursor, head uint64) {
			if cursor >= target {
				cancel() // caught up: stop tailing
			}
		},
	}
	if err := f.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run = %v, want context.Canceled after catch-up", err)
	}
	if f.Cursor != target {
		t.Fatalf("follower cursor %d, want %d", f.Cursor, target)
	}
	if rg, pg := replica.Generation(), primary.Generation(); rg != pg {
		t.Fatalf("replica generation %d, primary %d", rg, pg)
	}
	if replica.HasTable(ids[0]) {
		t.Fatalf("replica still serves removed table %s", ids[0])
	}
}

func TestFollowerCursorGone(t *testing.T) {
	c, primary, _ := replicaPair(t, 0)
	if err := primary.RemoveTable(primary.TableIDs()[0]); err != nil {
		t.Fatal(err)
	}

	// Saving a snapshot compacts the primary's log: cursor 0 is gone.
	if err := primary.SaveTo(io.Discard); err != nil {
		t.Fatal(err)
	}
	if primary.ChangelogPosition() == 0 {
		t.Fatal("fixture has no changelog records")
	}
	f := &client.Follower{
		Client: c,
		Cursor: 0,
		Apply:  func(client.ChangeEntry) error { return nil },
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := f.Run(ctx); !errors.Is(err, client.ErrCursorGone) {
		t.Fatalf("Run with compacted cursor = %v, want ErrCursorGone", err)
	}
}

func TestFollowerDetectsGap(t *testing.T) {
	// A stub primary that skips a sequence number: the follower must stop
	// rather than apply out of order.
	mux := http.NewServeMux()
	mux.HandleFunc("/api/v1/changelog", func(w http.ResponseWriter, r *http.Request) {
		page := client.ChangelogPage{
			Entries: []client.ChangeEntry{
				{Seq: 1, Kind: "add", Payload: []byte{0}},
				{Seq: 3, Kind: "add", Payload: []byte{0}}, // gap: 2 missing
			},
			Head: 3, NextCursor: 3, AtHead: true,
		}
		json.NewEncoder(w).Encode(page)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()
	c, err := client.New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	var applied []uint64
	f := &client.Follower{
		Client: c,
		Apply:  func(e client.ChangeEntry) error { applied = append(applied, e.Seq); return nil },
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err = f.Run(ctx)
	if err == nil || errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Run over gapped log = %v, want gap error", err)
	}
	if len(applied) != 1 || applied[0] != 1 {
		t.Fatalf("applied %v, want only record 1 before the gap", applied)
	}
}

// applyTo returns a Follower.Apply that applies each record to replica and
// keeps the primary generation of the last one applied in *applied.
func applyTo(replica *kglids.Platform, applied *uint64) func(client.ChangeEntry) error {
	return func(e client.ChangeEntry) error {
		if err := replica.ApplyChange(e.Kind, e.Generation, e.Payload); err != nil {
			return err
		}
		*applied = e.Generation
		return nil
	}
}

func TestFollowerRetentionOverflowMidCatchUp(t *testing.T) {
	// A one-quad budget retains only the newest record, so every append
	// compacts the one before it.
	c, primary, replica := replicaPair(t, 1)
	ids := primary.TableIDs()
	if err := primary.RemoveTable(ids[0]); err != nil {
		t.Fatal(err)
	}

	var applied uint64
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	f := &client.Follower{
		Client: c,
		Cursor: replica.ChangelogPosition(),
		Poll:   time.Millisecond,
		Limit:  1,
		Apply:  applyTo(replica, &applied),
		OnProgress: func(cursor, head uint64) {
			if cursor != 1 || head != 1 {
				return
			}
			// Between this page and the next, two more mutations overflow
			// the budget: the floor passes the follower's cursor.
			for _, id := range ids[1:3] {
				if err := primary.RemoveTable(id); err != nil {
					t.Error(err)
				}
			}
		},
	}
	if err := f.Run(ctx); !errors.Is(err, client.ErrCursorGone) {
		t.Fatalf("Run past an overflowed log = %v, want ErrCursorGone", err)
	}
	if f.Cursor != 1 {
		t.Fatalf("follower cursor %d, want 1", f.Cursor)
	}
	// The replica still serves the generation it last applied.
	if got := replica.Generation(); applied == 0 || got != applied {
		t.Fatalf("replica generation %d, want %d (its last applied record)", got, applied)
	}
	if replica.HasTable(ids[0]) || !replica.HasTable(ids[1]) || !replica.HasTable(ids[2]) {
		t.Fatalf("replica tables %v after applying only the removal of %s", replica.TableIDs(), ids[0])
	}
	if _, err := replica.UnionableTables(ids[1], 3); err != nil {
		t.Fatalf("replica stopped answering discovery: %v", err)
	}
}

func TestFollowerPrimaryRestartMidPage(t *testing.T) {
	c, primary, replica := replicaPair(t, 0)
	// The snapshot the primary will restart from: older than anything the
	// follower is about to apply.
	var old bytes.Buffer
	if err := primary.SaveTo(&old); err != nil {
		t.Fatal(err)
	}
	ids := primary.TableIDs()
	for _, id := range ids[:2] {
		if err := primary.RemoveTable(id); err != nil {
			t.Fatal(err)
		}
	}

	// restart brings the primary back from the old snapshot: the
	// follower's next request reaches the restarted process.
	var restarted *kglids.Platform
	restart := func() *client.Client {
		p, err := kglids.Read(bytes.NewReader(old.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		p.EnableChangelog(0)
		ts := httptest.NewServer(server.New(p, server.Options{}))
		t.Cleanup(ts.Close)
		rc, err := client.New(ts.URL)
		if err != nil {
			t.Fatal(err)
		}
		restarted = p
		return rc
	}

	var applied uint64
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	f := &client.Follower{
		Client: c,
		Cursor: replica.ChangelogPosition(),
		Poll:   time.Millisecond,
		Limit:  1,
		Apply:  applyTo(replica, &applied),
	}
	f.OnProgress = func(cursor, head uint64) {
		if cursor == 1 && head == 2 && restarted == nil {
			f.Client = restart() // one page of two applied
		}
	}
	// The cursor is beyond the restarted primary's head.
	if err := f.Run(ctx); !errors.Is(err, client.ErrCursorGone) {
		t.Fatalf("Run against a primary restarted behind the cursor = %v, want ErrCursorGone", err)
	}
	if f.Cursor != 1 || replica.Generation() != applied {
		t.Fatalf("follower at %d (generation %d), want 1 (generation %d)", f.Cursor, replica.Generation(), applied)
	}

	// The restarted primary moves on along another history: a new table,
	// then a removal. Once its head passes the follower's cursor, its
	// record 2 is no continuation of the record 1 the follower applied.
	wards := dataframe.New("wards.csv")
	wards.AddColumn(&dataframe.Series{Name: "wards", Cells: []dataframe.Cell{dataframe.NumberCell(3), dataframe.NumberCell(5)}})
	if _, err := restarted.AddTables([]kglids.Table{{Dataset: "restart", Frame: wards}}); err != nil {
		t.Fatal(err)
	}
	if err := restarted.RemoveTable(ids[1]); err != nil {
		t.Fatal(err)
	}
	f.OnProgress = nil
	err := f.Run(ctx)
	if err == nil || !strings.Contains(err.Error(), "replica diverged") {
		t.Fatalf("Run over a diverged history = %v, want a replica diverged error", err)
	}
	if f.Cursor != 1 {
		t.Fatalf("follower advanced to %d over a diverged record", f.Cursor)
	}
}
