package snapshot

import (
	"bytes"
	"testing"

	"kglids/internal/core"
	"kglids/internal/rdf"
)

// TestSaveSizesSectionsExactly: every section's size function is the
// length its encoder writes, so each section is encoded into a buffer
// allocated once at its final size. It is checked on the fixture, after a
// table update and removals, and with a quoted triple. A warm result cache
// then changes no byte of the save: the cache is not saved.
func TestSaveSizesSectionsExactly(t *testing.T) {
	plat, lake := fixture(t)
	check := func(label string) {
		t.Helper()
		for _, sec := range capture(plat).sections() {
			var w writer
			sec.encode(&w)
			if got, want := len(w.buf), sec.size(); got != want {
				t.Errorf("%s: section %d encodes to %d bytes, sized at %d", label, sec.tag, got, want)
			}
		}
	}
	check("fixture")

	update := lake.Tables[1]
	if _, err := plat.AddTables([]core.Table{{Dataset: lake.Dataset[update.Name], Frame: update.Head(update.NumRows() / 2)}}); err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{4, 7} {
		if err := plat.RemoveTable(lake.Dataset[lake.Tables[i].Name] + "/" + lake.Tables[i].Name); err != nil {
			t.Fatal(err)
		}
	}
	check("after AddTables and RemoveTable")

	tr := rdf.T(rdf.Resource("a"), rdf.Ontology("p"), rdf.Resource("b"))
	plat.Store.AddAnnotated(tr, rdf.Resource("g"), rdf.Ontology("certainty"), rdf.Float(0.5))
	check("with a quoted triple")

	cold := save(t, plat)
	if _, err := plat.Query(`SELECT ?q ?v WHERE { ?q <` + rdf.OntologyNS + `certainty> ?v . }`); err != nil {
		t.Fatal(err)
	}
	if plat.Discovery.CacheStats().Entries == 0 {
		t.Fatal("the query left the result cache empty")
	}
	if !bytes.Equal(save(t, plat), cold) {
		t.Fatal("a warm result cache changed the save")
	}
}

// twins bootstraps two platforms from one generated lake, with the same
// pipelines and a changelog each: identical platforms that save the same
// bytes.
func twins(t *testing.T) (*core.Platform, *core.Platform, []core.Table) {
	t.Helper()
	plat, lake := fixture(t)
	var tables []core.Table
	for _, df := range lake.Tables {
		tables = append(tables, core.Table{Dataset: lake.Dataset[df.Name], Frame: df})
	}
	twin := core.Bootstrap(plat.Config(), tables)
	twin.AddPipelines(plat.Scripts())
	plat.EnableChangelog(0)
	twin.EnableChangelog(0)
	if !bytes.Equal(save(t, plat), save(t, twin)) {
		t.Fatal("twin platforms saved different bytes")
	}
	return plat, twin, tables
}

// TestSaveRacingMutations: a save taken while tables are removed and added
// back holds exactly the platform at the generation it captured. Its bytes
// equal a quiet save, at that REPL generation, of a twin platform that
// replays the same mutations one at a time.
func TestSaveRacingMutations(t *testing.T) {
	racing, twin, tables := twins(t)
	var steps []func(*core.Platform) error
	for _, tb := range tables[:6] {
		id := tb.Dataset + "/" + tb.Frame.Name
		steps = append(steps,
			func(p *core.Platform) error { return p.RemoveTable(id) },
			func(p *core.Platform) error { _, err := p.AddTables([]core.Table{tb}); return err })
	}
	done := make(chan error, 1)
	go func() {
		for _, step := range steps {
			if err := step(racing); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	var saves [][]byte
	for mutating := true; mutating; {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			mutating = false
		default:
		}
		saves = append(saves, save(t, racing))
	}

	next, mid := 0, 0
	for i, b := range saves {
		st, err := decodePayload(b[headerLen:])
		if err != nil {
			t.Fatalf("save %d: %v", i, err)
		}
		for twin.Store.Generation() < st.Generation && next < len(steps) {
			if err := steps[next](twin); err != nil {
				t.Fatal(err)
			}
			next++
		}
		if got := twin.Store.Generation(); got != st.Generation {
			t.Fatalf("save %d captured generation %d, which no mutation of the twin ends at (it is at %d)", i, st.Generation, got)
		}
		if 0 < next && next < len(steps) {
			mid++
		}
		if !bytes.Equal(b, save(t, twin)) {
			t.Fatalf("save %d at generation %d differs from the twin's quiet save", i, st.Generation)
		}
	}
	if next != len(steps) {
		t.Fatalf("the last save is at step %d of %d", next, len(steps))
	}
	t.Logf("%d saves, %d between two mutations", len(saves), mid)
}

// TestSaveRecordsCapture: a save records how long it held the ingest lock
// as kglids_snapshot_seconds{op="capture"}, a part of the save's own time.
func TestSaveRecordsCapture(t *testing.T) {
	plat, _ := fixture(t)
	captured, saved := mSnapshotSeconds.WithLabelValues("capture", "ok"), mSnapshotSeconds.WithLabelValues("save", "ok")
	c0, s0 := captured.Sum(), saved.Sum()
	save(t, plat)
	if c, s := captured.Sum()-c0, saved.Sum()-s0; c <= 0 || c > s {
		t.Fatalf("capture recorded %v s of a %v s save", c, s)
	}
}
