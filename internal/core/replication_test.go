package core

import (
	"context"
	"slices"
	"testing"

	"kglids/internal/pipeline"
	"kglids/internal/profiler"
	"kglids/internal/store"
)

// TestEveryMutationIsOneRecord pins the changelog's unit: every call of
// AddTables, AddSourceTable, RemoveTable and AddPipelines, updates
// included, appends exactly one record. The record holds the whole
// mutation, is stamped with the store generation the call left, and weighs
// the quads the call added plus removed.
func TestEveryMutationIsOneRecord(t *testing.T) {
	ctx := context.Background()
	plat, _, err := BootstrapSource(ctx, Config{}, srcURI)
	if err != nil {
		t.Fatal(err)
	}
	src, err := plat.OpenSource(srcURI)
	if err != nil {
		t.Fatal(err)
	}
	refs, err := src.Tables(ctx)
	if err != nil {
		t.Fatal(err)
	}
	frames, err := profiler.MaterializeSource(ctx, src)
	if err != nil {
		t.Fatal(err)
	}
	id := func(f profiler.Table) string { return f.Dataset + "/" + f.Frame.Name }
	head := func(f profiler.Table, n int) Table { return Table{Dataset: f.Dataset, Frame: f.Frame.Head(n)} }
	script := pipeline.Script{ID: "kaggle/one-record", Source: "import pandas as pd\ndf = pd.read_csv('x.csv')\ndf.head()\n"}
	cl := plat.EnableChangelog(0)

	for _, m := range []struct {
		name    string
		kind    store.ChangeKind
		removed []string
		adds    bool
		run     func() error
	}{
		{"remove", store.ChangeTables, []string{id(frames[0])}, false,
			func() error { return plat.RemoveTable(id(frames[0])) }},
		{"add", store.ChangeTables, nil, true,
			func() error { _, err := plat.AddTables([]Table{Table(frames[0])}); return err }},
		{"update two", store.ChangeTables, []string{id(frames[1]), id(frames[2])}, true,
			func() error { _, err := plat.AddTables([]Table{head(frames[1], 30), head(frames[2], 40)}); return err }},
		{"remove another", store.ChangeTables, []string{id(frames[4])}, false,
			func() error { return plat.RemoveTable(id(frames[4])) }},
		{"update and add", store.ChangeTables, []string{id(frames[3])}, true,
			func() error { _, err := plat.AddTables([]Table{head(frames[3], 50), Table(frames[4])}); return err }},
		{"stream update", store.ChangeTables, []string{refs[5].ID()}, true,
			func() error { return plat.AddSourceTable(ctx, src, refs[5]) }},
		{"pipelines", store.ChangePipelines, nil, false,
			func() error { plat.AddPipelines([]pipeline.Script{script}); return nil }},
		{"pipelines again", store.ChangePipelines, nil, false,
			func() error { plat.AddPipelines([]pipeline.Script{script}); return nil }},
	} {
		before, pos := plat.Store.Generation(), plat.ChangelogPosition()
		if err := m.run(); err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		if got := plat.ChangelogPosition(); got != pos+1 {
			t.Fatalf("%s: changelog position %d → %d, want one record", m.name, pos, got)
		}
		view, err := cl.Since(pos, 0)
		if err != nil {
			t.Fatal(err)
		}
		rec := view.Records[0]
		gen := plat.Store.Generation()
		if rec.Kind != m.kind || rec.Gen != gen || rec.Weight != int(gen-before) {
			t.Fatalf("%s: record kind %q gen %d weight %d, want %q gen %d weight %d",
				m.name, rec.Kind, rec.Gen, rec.Weight, m.kind, gen, gen-before)
		}
		switch body := rec.Body.(type) {
		case *PlatformDelta:
			if !slices.Equal(body.Removed, m.removed) || (len(body.Profiles) > 0) != m.adds {
				t.Fatalf("%s: delta removes %v and adds %d profiles, want %v and additions %v",
					m.name, body.Removed, len(body.Profiles), m.removed, m.adds)
			}
		case []pipeline.Script:
			if len(body) != 1 || body[0].ID != script.ID {
				t.Fatalf("%s: record holds scripts %v", m.name, body)
			}
		}
	}
}
