package ingest

import (
	"strings"
	"sync"
	"testing"

	"kglids/internal/core"
	"kglids/internal/dataframe"
	"kglids/internal/lakegen"
	"kglids/internal/rdf"
)

var testSpec = lakegen.Spec{
	Name: "ingest", Families: 3, TablesPerFamily: 3, NoiseTables: 3,
	RowsPerTable: 40, QueryTables: 3, Seed: 7,
}

func lakeTables(t testing.TB) []core.Table {
	t.Helper()
	b := lakegen.Generate(testSpec)
	var tables []core.Table
	for _, df := range b.Tables {
		tables = append(tables, core.Table{Dataset: b.Dataset[df.Name], Frame: df})
	}
	return tables
}

func id(t core.Table) string { return t.Dataset + "/" + t.Frame.Name }

func TestJobLifecycleAddRemove(t *testing.T) {
	tables := lakeTables(t)
	plat := core.Bootstrap(core.Config{}, tables[:4])
	m := New(plat, Options{Workers: 2})
	defer m.Close()

	jobID, err := m.Submit(tables[4:6])
	if err != nil {
		t.Fatal(err)
	}
	j, ok := m.Wait(jobID)
	if !ok || j.State != Done {
		t.Fatalf("job = %+v", j)
	}
	if len(j.Added) != 2 || len(j.Skipped) != 0 {
		t.Fatalf("added %v skipped %v", j.Added, j.Skipped)
	}
	for _, tb := range tables[4:6] {
		if !plat.HasTable(id(tb)) {
			t.Errorf("%s not ingested", id(tb))
		}
	}

	rmID, err := m.SubmitRemoval(id(tables[4]))
	if err != nil {
		t.Fatal(err)
	}
	if j, _ = m.Wait(rmID); j.State != Done || len(j.Removed) != 1 {
		t.Fatalf("remove job = %+v", j)
	}
	if plat.HasTable(id(tables[4])) {
		t.Error("table still present after remove job")
	}
}

func TestUnchangedResubmissionSkipped(t *testing.T) {
	tables := lakeTables(t)
	plat := core.Bootstrap(core.Config{}, tables[:4])
	m := New(plat, Options{Workers: 1})
	defer m.Close()

	first, _ := m.Submit(tables[4:5])
	if j, _ := m.Wait(first); len(j.Added) != 1 {
		t.Fatalf("first submission: %+v", j)
	}
	statsBefore := plat.Stats()

	second, _ := m.Submit(tables[4:5])
	j, _ := m.Wait(second)
	if len(j.Skipped) != 1 || len(j.Added) != 0 || len(j.Updated) != 0 {
		t.Fatalf("resubmission not skipped: %+v", j)
	}
	if got := plat.Stats(); got != statsBefore {
		t.Errorf("skipped job mutated the platform: %+v vs %+v", got, statsBefore)
	}

	// Changed content must be re-ingested as an update.
	mod := core.Table{Dataset: tables[4].Dataset, Frame: tables[4].Frame.Head(10)}
	third, _ := m.Submit([]core.Table{mod})
	if j, _ = m.Wait(third); len(j.Updated) != 1 {
		t.Fatalf("changed resubmission not an update: %+v", j)
	}
}

func TestSeedFingerprints(t *testing.T) {
	tables := lakeTables(t)
	plat := core.Bootstrap(core.Config{}, tables)
	m := New(plat, Options{})
	defer m.Close()
	m.SeedFingerprints(tables)

	jobID, _ := m.Submit(tables[:3])
	j, _ := m.Wait(jobID)
	if len(j.Skipped) != 3 {
		t.Fatalf("seeded tables not skipped: %+v", j)
	}
}

func TestFailedJobReportsError(t *testing.T) {
	tables := lakeTables(t)
	plat := core.Bootstrap(core.Config{}, tables[:2])
	m := New(plat, Options{})
	defer m.Close()

	jobID, err := m.SubmitRemoval("nope/none.csv")
	if err != nil {
		t.Fatal(err)
	}
	j, _ := m.Wait(jobID)
	if j.State != Failed || j.Error == "" {
		t.Fatalf("job = %+v, want failed with error", j)
	}
}

func TestSubmitValidationAndClose(t *testing.T) {
	tables := lakeTables(t)
	plat := core.Bootstrap(core.Config{}, tables[:2])
	m := New(plat, Options{})
	if _, err := m.Submit(nil); err == nil {
		t.Error("empty submission should error")
	}
	if _, err := m.Submit([]core.Table{{Dataset: "d"}}); err == nil {
		t.Error("nil frame should error")
	}
	for _, tb := range []core.Table{
		{Dataset: "demo", Frame: dataframe.New("t/x")},
		{Dataset: "demo/t", Frame: dataframe.New("x")},
	} {
		if _, err := m.Submit([]core.Table{tb}); err == nil {
			t.Errorf("%s: a '/' in a name should error", id(tb))
		}
	}
	m.Close()
	if _, err := m.Submit(tables[:1]); err != ErrClosed {
		t.Errorf("submit after close = %v, want ErrClosed", err)
	}
	m.Close() // idempotent
}

func TestQueueFull(t *testing.T) {
	tables := lakeTables(t)
	plat := core.Bootstrap(core.Config{}, tables[:2])
	// One worker, queue of one: the worker picks up the first job quickly,
	// so saturate with enough submissions that at least one must fail.
	m := New(plat, Options{Workers: 1, QueueSize: 1})
	defer m.Close()
	var fullSeen bool
	for i := 0; i < 64 && !fullSeen; i++ {
		_, err := m.Submit(tables[2:3])
		if err != nil {
			if !strings.Contains(err.Error(), "queue full") {
				t.Fatalf("unexpected error: %v", err)
			}
			fullSeen = true
		}
	}
	if !fullSeen {
		t.Skip("queue never filled on this machine (workers too fast)")
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	tables := lakeTables(t)
	a := tables[0]
	if Fingerprint(a) != Fingerprint(a) {
		t.Error("fingerprint not deterministic")
	}
	b := core.Table{Dataset: a.Dataset, Frame: a.Frame.Head(a.Frame.NumRows() - 1)}
	if Fingerprint(a) == Fingerprint(b) {
		t.Error("row change not detected")
	}
	c := core.Table{Dataset: a.Dataset + "x", Frame: a.Frame}
	if Fingerprint(a) == Fingerprint(c) {
		t.Error("dataset change not detected")
	}
}

// TestConcurrentIngestWhileQuerying hammers discovery (similarity search +
// SPARQL) while jobs add and remove tables. Run under -race (as CI does)
// this is the regression gate for the platform's concurrency story: no
// data race, no panic, and discovery always sees a consistent store.
func TestConcurrentIngestWhileQuerying(t *testing.T) {
	tables := lakeTables(t)
	n := len(tables)
	plat := core.Bootstrap(core.Config{}, tables[:n-3])
	m := New(plat, Options{Workers: 2})
	defer m.Close()

	queryFrame := tables[0].Frame
	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Readers: embedding similarity, ANN search, SPARQL, stats.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				switch r % 4 {
				case 0:
					plat.SimilarTablesByEmbedding(queryFrame, 5)
				case 1:
					emb, _ := plat.TableEmbedding(id(tables[0]))
					plat.TableANN.Search(emb, 5)
				case 2:
					if _, err := plat.Query(`SELECT ?t WHERE { ?t a kglids:Table . }`); err != nil {
						t.Error(err)
						return
					}
				case 3:
					plat.Stats()
					plat.Discovery.UnionableTables(rdf.IRI("x"), 3)
				}
			}
		}(r)
	}

	// Writers: cycle the three held-out tables in and out through jobs.
	for cycle := 0; cycle < 3; cycle++ {
		var ids []int
		for _, tb := range tables[n-3:] {
			jid, err := m.Submit([]core.Table{tb})
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, jid)
		}
		for _, jid := range ids {
			if j, _ := m.Wait(jid); j.State == Failed {
				t.Fatalf("add job failed: %+v", j)
			}
		}
		for _, tb := range tables[n-3:] {
			jid, err := m.SubmitRemoval(id(tb))
			if err != nil {
				t.Fatal(err)
			}
			if j, _ := m.Wait(jid); j.State == Failed {
				t.Fatalf("remove job failed: %+v", j)
			}
		}
	}
	close(stop)
	wg.Wait()

	if got, want := plat.Stats().Tables, n-3; got != want {
		t.Errorf("tables = %d after cycles, want %d", got, want)
	}
}
