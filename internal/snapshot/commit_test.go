package snapshot

import (
	"bytes"
	"runtime"
	"slices"
	"strings"
	"testing"

	"kglids/internal/core"
	"kglids/internal/lakegen"
	"kglids/internal/schema"
)

func save(t *testing.T, p *core.Platform) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, p); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestBootstrapIsFirstCommit: bootstrap is the first commit on the empty
// platform, so bootstrapping a lake and adding the same lake to an empty
// bootstrap write the same bytes.
func TestBootstrapIsFirstCommit(t *testing.T) {
	lake := lakegen.Generate(lakegen.Spec{
		Name: "first", Families: 4, TablesPerFamily: 3, NoiseTables: 3,
		RowsPerTable: 60, Seed: 91,
	})
	var tables []core.Table
	for _, df := range lake.Tables {
		tables = append(tables, core.Table{Dataset: lake.Dataset[df.Name], Frame: df})
	}
	cfg := core.Config{}
	cfg.Theta = 0.70
	whole := core.Bootstrap(cfg, tables)
	added := core.Bootstrap(cfg, nil)
	if _, err := added.AddTables(tables); err != nil {
		t.Fatal(err)
	}
	if whole.Stats().SimilarityEdges == 0 {
		t.Fatal("the lake has no similarity edges to compare")
	}
	if !bytes.Equal(save(t, whole), save(t, added)) {
		t.Fatal("Bootstrap(tables) and Bootstrap(nil) + AddTables(tables) saved different bytes")
	}
}

// TestZeroConfigIsDefault: a zero Config field means its default, so the
// zero Config and one spelling α/β/θ and Workers out at their defaults
// save the same bytes, and a platform restored from them reports the
// resolved values.
func TestZeroConfigIsDefault(t *testing.T) {
	lake := lakegen.Generate(lakegen.Spec{
		Name: "zero", Families: 4, TablesPerFamily: 3, NoiseTables: 3,
		RowsPerTable: 60, Seed: 93,
	})
	var tables []core.Table
	for _, df := range lake.Tables {
		tables = append(tables, core.Table{Dataset: lake.Dataset[df.Name], Frame: df})
	}
	th := schema.DefaultThresholds()
	zero := core.Bootstrap(core.Config{}, tables)
	spelled := core.Bootstrap(core.Config{Options: core.Options{
		Alpha: th.Alpha, Beta: th.Beta, Theta: th.Theta, Workers: runtime.NumCPU(),
	}}, tables)
	if zero.Stats().SimilarityEdges == 0 {
		t.Fatal("the lake has no similarity edges to compare")
	}
	b := save(t, zero)
	if !bytes.Equal(b, save(t, spelled)) {
		t.Fatal("the zero Config and the spelled-out defaults saved different bytes")
	}
	restored, err := Read(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	got := restored.Config()
	if got.Alpha != th.Alpha || got.Beta != th.Beta || got.Theta != th.Theta || got.Workers != runtime.NumCPU() {
		t.Fatalf("restored config %+v, want thresholds %+v and %d workers", got.Options, th, runtime.NumCPU())
	}
}

// TestRestoreByteStableAfterMutations: a platform whose exact index is no
// longer in sorted order (an update re-appends the table) and whose HNSW
// graph has had removals saves, reads and saves to the same bytes.
func TestRestoreByteStableAfterMutations(t *testing.T) {
	plat, lake := fixture(t)
	var updates []core.Table
	for _, df := range lake.Tables[1:3] {
		updates = append(updates, core.Table{Dataset: lake.Dataset[df.Name], Frame: df.Head(df.NumRows() / 2)})
	}
	if _, err := plat.AddTables(updates); err != nil {
		t.Fatal(err)
	}
	for _, df := range []int{5, 8} {
		if err := plat.RemoveTable(lake.Dataset[lake.Tables[df].Name] + "/" + lake.Tables[df].Name); err != nil {
			t.Fatal(err)
		}
	}
	if slices.IsSorted(plat.TableIndex.IDs()) {
		t.Fatal("the update left the exact index in sorted order")
	}
	first := save(t, plat)
	restored, err := Read(bytes.NewReader(first))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, save(t, restored)) {
		t.Fatal("save, read and save of a mutated platform changed the bytes")
	}
}

// omitFirstOrderedTable returns payload with a table-order section that
// leaves out the first table it lists, every other section unchanged.
func omitFirstOrderedTable(t testing.TB, payload []byte) []byte {
	t.Helper()
	var out writer
	for r := (&reader{b: payload}); r.off < len(r.b); {
		tag := r.u8()
		n := r.uvarint()
		if r.err != nil {
			t.Fatal(r.err)
		}
		body := r.b[r.off : r.off+int(n)]
		r.off += int(n)
		if tag == secTOrder {
			sr := &reader{b: body}
			ids := make([]string, sr.count())
			for i := range ids {
				ids[i] = sr.str()
			}
			var w writer
			w.uint(len(ids) - 1)
			for _, id := range ids[1:] {
				w.str(id)
			}
			body = w.buf
		}
		out.u8(tag)
		out.uvarint(uint64(len(body)))
		out.buf = append(out.buf, body...)
	}
	return out.buf
}

// TestReadRejectsPartialTableOrder: the table order and the table
// embeddings are separate sections, so a file can list fewer tables in the
// one than in the other. It decodes, and the restore rejects it.
func TestReadRejectsPartialTableOrder(t *testing.T) {
	plat, _ := fixture(t)
	st, err := decodePayload(omitFirstOrderedTable(t, payloadOf(t, plat, 0)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.Restore(*st); err == nil || !strings.Contains(err.Error(), "table order") {
		t.Fatalf("err = %v, want a table-order error", err)
	}
}
