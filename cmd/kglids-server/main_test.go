package main

import (
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"kglids"
)

var quiet = slog.New(slog.NewTextHandler(io.Discard, nil))

func TestBuildLoggerRejectsUnknownValues(t *testing.T) {
	if _, err := buildLogger("text", "verbose"); err == nil || !strings.Contains(err.Error(), "-log-level") {
		t.Errorf("unknown level: err %v, want one naming -log-level", err)
	}
	if _, err := buildLogger("xml", "info"); err == nil || !strings.Contains(err.Error(), "-log-format") {
		t.Errorf("unknown format: err %v, want one naming -log-format", err)
	}
	if _, err := buildLogger("JSON", "Warn"); err != nil {
		t.Errorf("known values rejected: %v", err)
	}
}

// lake writes a two-table CSV lake whose tables share a column.
func lake(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	for name, body := range map[string]string{
		"hospitals.csv": "city,beds\na,4\nb,8\nc,2\n",
		"census.csv":    "city,pop\na,100\nb,200\nc,300\n",
	} {
		path := filepath.Join(dir, "demo", name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func TestReadyBootstrapsFromSource(t *testing.T) {
	plat, err := ready(quiet, "", "dir://"+lake(t), kglids.Options{ChunkRows: 2, ReservoirSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := plat.Stats().Tables; got != 2 {
		t.Fatalf("bootstrapped %d tables, want 2", got)
	}
	if !plat.HasTable("demo/census.csv") {
		t.Fatal("demo/census.csv missing after bootstrap")
	}
}

// TestReadyPrefersSnapshot: with a snapshot and a source, ready loads the
// snapshot and never opens the source, which here does not exist.
func TestReadyPrefersSnapshot(t *testing.T) {
	boot, err := ready(quiet, "", "dir://"+lake(t), kglids.Options{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "lake.kgs")
	if err := boot.Save(path); err != nil {
		t.Fatal(err)
	}
	missing := "dir://" + filepath.Join(t.TempDir(), "absent")
	plat, err := ready(quiet, path, missing, kglids.Options{})
	if err != nil {
		t.Fatalf("ready opened the source instead of the snapshot: %v", err)
	}
	if plat.Stats() != boot.Stats() {
		t.Fatalf("loaded stats %+v, want the saved %+v", plat.Stats(), boot.Stats())
	}
	if _, err := ready(quiet, "", missing, kglids.Options{}); err == nil {
		t.Fatal("the source the snapshot shadowed opens without error; the test proves nothing")
	}
}
