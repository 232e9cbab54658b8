package core

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"kglids/internal/profiler"
)

const srcURI = "lakegen://wide?tables=10&cols=5&rows=120&seed=21"

func TestBootstrapSourceMatchesBootstrap(t *testing.T) {
	plat, failed, err := BootstrapSource(context.Background(), Config{}, srcURI)
	if err != nil {
		t.Fatal(err)
	}
	if len(failed) != 0 {
		t.Fatalf("failed tables: %v", failed)
	}

	src, err := plat.OpenSource(srcURI)
	if err != nil {
		t.Fatal(err)
	}
	frames, err := profiler.MaterializeSource(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	var tables []Table
	for _, f := range frames {
		tables = append(tables, Table(f))
	}
	inMemory := Bootstrap(Config{}, tables)

	if plat.Stats() != inMemory.Stats() {
		t.Fatalf("streamed stats %+v diverge from in-memory bootstrap %+v", plat.Stats(), inMemory.Stats())
	}
	if fmt.Sprint(plat.TableIDs()) != fmt.Sprint(inMemory.TableIDs()) {
		t.Fatalf("table IDs diverge:\n%v\n%v", plat.TableIDs(), inMemory.TableIDs())
	}
}

func TestAddSourceUpdatesAndConverges(t *testing.T) {
	// Bootstrap over a subset, then stream the full lake in: existing
	// tables update, new ones append, and the result must equal a fresh
	// streamed bootstrap of the whole lake.
	full, _, err := BootstrapSource(context.Background(), Config{}, srcURI)
	if err != nil {
		t.Fatal(err)
	}

	src, err := full.OpenSource(srcURI)
	if err != nil {
		t.Fatal(err)
	}
	frames, err := profiler.MaterializeSource(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	var subset []Table
	for _, f := range frames[:4] {
		subset = append(subset, Table(f))
	}
	plat := Bootstrap(Config{}, subset)

	rep, err := plat.AddSource(context.Background(), srcURI)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Failed) != 0 {
		t.Fatalf("failed tables: %v", rep.Failed)
	}
	if len(rep.Added) != 10 {
		t.Fatalf("added %d tables, want all 10 (updates included): %v", len(rep.Added), rep.Added)
	}
	if plat.Stats() != full.Stats() {
		t.Fatalf("incremental source ingest %+v diverges from streamed bootstrap %+v", plat.Stats(), full.Stats())
	}
}

func TestAddSourceTableValidation(t *testing.T) {
	plat, _, err := BootstrapSource(context.Background(), Config{}, srcURI)
	if err != nil {
		t.Fatal(err)
	}
	src, err := plat.OpenSource(srcURI)
	if err != nil {
		t.Fatal(err)
	}
	refs, err := src.Tables(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	bad := refs[0]
	bad.Dataset = ""
	if err := plat.AddSourceTable(context.Background(), src, bad); err == nil {
		t.Fatal("empty dataset accepted")
	}
}

func TestConcurrentAddSourceWhileQuerying(t *testing.T) {
	plat, _, err := BootstrapSource(context.Background(), Config{},
		"lakegen://wide?tables=4&cols=4&rows=80&seed=21")
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := plat.Query(`SELECT ?t ?n WHERE { ?t a kglids:Table ; kglids:name ?n . }`); err != nil {
				t.Error(err)
				return
			}
			plat.Stats()
			plat.TableIDs()
		}
	}()

	// Two concurrent AddSource calls over overlapping lakes: tables
	// profile in parallel outside the ingest lock and splice under it.
	var ingest sync.WaitGroup
	for _, uri := range []string{
		"lakegen://wide?tables=8&cols=4&rows=80&seed=21",
		"lakegen://wide?tables=6&cols=4&rows=90&seed=22",
	} {
		uri := uri
		ingest.Add(1)
		go func() {
			defer ingest.Done()
			if _, err := plat.AddSource(context.Background(), uri); err != nil {
				t.Error(err)
			}
		}()
	}
	ingest.Wait()
	close(stop)
	wg.Wait()

	if got := len(plat.TableIDs()); got != 8 {
		// Both URIs share table names (stream_NNNN.csv) and datasets, so
		// the union is the wider lake's 8 tables.
		t.Fatalf("platform serves %d tables, want 8: %v", got, plat.TableIDs())
	}
}
