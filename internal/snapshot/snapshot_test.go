package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"kglids/internal/core"
	"kglids/internal/dataframe"
	"kglids/internal/lakegen"
	"kglids/internal/pipegen"
	"kglids/internal/pipeline"
	"kglids/internal/rdf"
	"kglids/internal/schema"
	"kglids/internal/vectorindex"
)

// fixture bootstraps a small platform with pipelines, shared across tests.
func fixture(t testing.TB) (*core.Platform, *lakegen.Benchmark) {
	t.Helper()
	lake := lakegen.Generate(lakegen.Spec{
		Name: "snap", Families: 4, TablesPerFamily: 3, NoiseTables: 3,
		RowsPerTable: 60, QueryTables: 4, Seed: 77,
	})
	var tables []core.Table
	for _, df := range lake.Tables {
		tables = append(tables, core.Table{Dataset: lake.Dataset[df.Name], Frame: df})
	}
	cfg := core.Config{}
	cfg.Theta = 0.70
	plat := core.Bootstrap(cfg, tables)
	var datasets []pipegen.Dataset
	for _, df := range lake.Tables[:2] {
		datasets = append(datasets, pipegen.FrameDataset(lake.Dataset[df.Name], df, df.Columns()[0]))
	}
	corpus := pipegen.Generate(pipegen.Options{NumPipelines: 12, Datasets: datasets, Seed: 78})
	scripts := make([]pipeline.Script, len(corpus))
	for i, g := range corpus {
		scripts[i] = g.Script
	}
	plat.AddPipelines(scripts)
	return plat, lake
}

func roundTrip(t testing.TB, p *core.Platform) *core.Platform {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, p); err != nil {
		t.Fatalf("write: %v", err)
	}
	restored, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	return restored
}

func TestRoundTripStatsIdentical(t *testing.T) {
	plat, _ := fixture(t)
	restored := roundTrip(t, plat)
	if got, want := restored.Stats(), plat.Stats(); got != want {
		t.Fatalf("stats differ:\n got %+v\nwant %+v", got, want)
	}
	if got, want := restored.Store.Dict().Len(), plat.Store.Dict().Len(); got != want {
		t.Fatalf("dictionary size %d, want %d", got, want)
	}
}

func TestRoundTripDiscoveryIdentical(t *testing.T) {
	plat, lake := fixture(t)
	restored := roundTrip(t, plat)

	q := lake.QueryTables[0]
	iri := schema.TableIRI(lake.Dataset[q] + "/" + q)
	want := plat.Discovery.UnionableTables(iri, 10)
	got := restored.Discovery.UnionableTables(iri, 10)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("unionable top-k differ:\n got %v\nwant %v", got, want)
	}

	kws := [][]string{{q[:3]}}
	if got, want := restored.Discovery.SearchKeywords(kws), plat.Discovery.SearchKeywords(kws); !reflect.DeepEqual(got, want) {
		t.Fatalf("keyword search differs:\n got %v\nwant %v", got, want)
	}

	const sq = `SELECT (COUNT(?t) AS ?n) WHERE { ?t a kglids:Table . }`
	r1, err := plat.Query(sq)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := restored.Query(sq)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1.Rows, r2.Rows) {
		t.Fatalf("sparql differs: %v vs %v", r1.Rows, r2.Rows)
	}
}

// retiredCacheFrame is a QCACHE frame (tag 10) as version-3 writers saved
// the SPARQL result cache before it was retired: one entry holding the
// query text, its one variable, and one row binding it to an IRI.
func retiredCacheFrame() []byte {
	var body writer
	body.uint(1)
	body.str(`SELECT ?t WHERE { ?t a kglids:Table . }`)
	body.uint(1)
	body.str("t")
	body.uint(1)
	body.u8(1) // the cell is bound
	body.u8(byte(rdf.KindIRI))
	body.str(rdf.ResourceNS + "health/patients.csv")
	w := writer{buf: []byte{10}}
	w.uvarint(uint64(len(body.buf)))
	w.buf = append(w.buf, body.buf...)
	return w.buf
}

// withRetiredCacheFrame inserts retiredCacheFrame into payload before the
// REPL section, where those writers put it.
func withRetiredCacheFrame(t testing.TB, payload []byte) []byte {
	t.Helper()
	var out []byte
	for r := (&reader{b: payload}); r.off < len(r.b); {
		start := r.off
		tag := r.u8()
		n := r.uvarint()
		if r.err != nil {
			t.Fatal(r.err)
		}
		r.off += int(n)
		if tag == secRepl {
			out = append(out, retiredCacheFrame()...)
		}
		out = append(out, payload[start:r.off]...)
	}
	return out
}

// TestReadSkipsRetiredQueryCache: a payload that carries a QCACHE frame
// decodes and restores to a platform with an empty result cache, which
// saves the same bytes as the platform restored without the frame.
func TestReadSkipsRetiredQueryCache(t *testing.T) {
	plat, _ := fixture(t)
	payload := payloadOf(t, plat, 0)
	restore := func(payload []byte) *core.Platform {
		t.Helper()
		st, err := decodePayload(payload)
		if err != nil {
			t.Fatal(err)
		}
		p, err := core.Restore(*st)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	withFrame := restore(withRetiredCacheFrame(t, payload))
	if n := withFrame.Discovery.CacheStats().Entries; n != 0 {
		t.Fatalf("restored cache holds %d entries, want none", n)
	}
	if !bytes.Equal(save(t, withFrame), save(t, restore(payload))) {
		t.Fatal("the retired frame changed the restored platform")
	}
}

func TestRoundTripEmbeddingSearchIdentical(t *testing.T) {
	plat, lake := fixture(t)
	restored := roundTrip(t, plat)
	df := lake.Tables[0]
	want := plat.SimilarTablesByEmbedding(df, 5)
	got := restored.SimilarTablesByEmbedding(df, 5)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("exact similar-tables differ:\n got %v\nwant %v", got, want)
	}
	// ANN search as /api/v1/similar runs it: on a resident table's
	// embedding.
	emb, ok := plat.TableEmbedding(lake.Dataset[df.Name] + "/" + df.Name)
	if !ok {
		t.Fatal("query table not resident")
	}
	wantANN := plat.TableANN.Search(emb, 5)
	gotANN := restored.TableANN.Search(emb, 5)
	if len(wantANN) == 0 || !reflect.DeepEqual(gotANN, wantANN) {
		t.Fatalf("ANN similar-tables differ:\n got %v\nwant %v", gotANN, wantANN)
	}
}

func TestRoundTripAnnotationsSurvive(t *testing.T) {
	plat, _ := fixture(t)
	// RDF-star annotations use quoted-triple terms; make sure one survives
	// the recursive term codec.
	tr := rdf.T(rdf.Resource("a"), rdf.Ontology("p"), rdf.Resource("b"))
	plat.Store.AddAnnotated(tr, rdf.Resource("g"), rdf.Ontology("certainty"), rdf.Float(0.5))
	restored := roundTrip(t, plat)
	v, ok := restored.Store.Annotation(tr, rdf.Ontology("certainty"))
	if !ok {
		t.Fatal("annotation lost in round trip")
	}
	if f, _ := v.AsFloat(); f != 0.5 {
		t.Fatalf("annotation value = %v", v)
	}
}

func TestSaveLoadFile(t *testing.T) {
	plat, _ := fixture(t)
	path := filepath.Join(t.TempDir(), "plat.kgs")
	if err := Save(path, plat); err != nil {
		t.Fatal(err)
	}
	restored, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Stats() != plat.Stats() {
		t.Fatal("file round-trip stats differ")
	}
}

func TestDeterministicBytes(t *testing.T) {
	plat, _ := fixture(t)
	var a, b bytes.Buffer
	if err := Write(&a, plat); err != nil {
		t.Fatal(err)
	}
	if err := Write(&b, plat); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two saves of the same platform produced different bytes")
	}
}

func TestReadRejectsBadMagic(t *testing.T) {
	_, err := Read(bytes.NewReader([]byte("not a snapshot at all, sorry......")))
	if !errors.Is(err, ErrBadMagic) {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}

func TestReadRejectsFutureVersion(t *testing.T) {
	plat, _ := fixture(t)
	var buf bytes.Buffer
	if err := Write(&buf, plat); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[4] = 0xFF // bump version
	_, err := Read(bytes.NewReader(data))
	if !errors.Is(err, ErrVersion) {
		t.Fatalf("err = %v, want ErrVersion", err)
	}
}

func TestReadRejectsTruncation(t *testing.T) {
	plat, _ := fixture(t)
	var buf bytes.Buffer
	if err := Write(&buf, plat); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for _, cut := range []int{0, 3, headerLen - 1, headerLen + 10, len(data) / 2, len(data) - 1} {
		if _, err := Read(bytes.NewReader(data[:cut])); !errors.Is(err, ErrTruncated) {
			t.Errorf("cut at %d: err = %v, want ErrTruncated", cut, err)
		}
	}
}

func TestReadRejectsCorruption(t *testing.T) {
	plat, _ := fixture(t)
	var buf bytes.Buffer
	if err := Write(&buf, plat); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Flip a byte in the middle of the payload.
	data[headerLen+len(data)/2] ^= 0xA5
	if _, err := Read(bytes.NewReader(data)); !errors.Is(err, ErrChecksum) {
		t.Fatalf("err = %v, want ErrChecksum", err)
	}
}

func TestReadRejectsDuplicateSections(t *testing.T) {
	plat, _ := fixture(t)
	var buf bytes.Buffer
	if err := Write(&buf, plat); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	payload := data[headerLen:]
	// Duplicate the first section (DICT) at the end of the payload and
	// rebuild a consistent header: two goroutines decoding into the same
	// outputs must be rejected, not raced.
	r := &reader{b: payload}
	r.u8()
	length := r.uvarint()
	if r.err != nil {
		t.Fatal(r.err)
	}
	first := payload[:r.off+int(length)]
	forged := append(append([]byte(nil), payload...), first...)
	var out bytes.Buffer
	var hdr [headerLen]byte
	copy(hdr[0:4], magic[:])
	binary.LittleEndian.PutUint16(hdr[4:6], Version)
	binary.LittleEndian.PutUint32(hdr[6:10], crc32.ChecksumIEEE(forged))
	binary.LittleEndian.PutUint64(hdr[10:18], uint64(len(forged)))
	out.Write(hdr[:])
	out.Write(forged)
	_, err := Read(bytes.NewReader(out.Bytes()))
	if err == nil || !strings.Contains(err.Error(), "duplicate section") {
		t.Fatalf("err = %v, want duplicate-section error", err)
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "nope.kgs")); err == nil {
		t.Fatal("expected error for missing file")
	}
}

func TestSaveIsAtomic(t *testing.T) {
	plat, _ := fixture(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "plat.kgs")
	if err := Save(path, plat); err != nil {
		t.Fatal(err)
	}
	// No temp files left behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "plat.kgs" {
		t.Fatalf("directory contents = %v", entries)
	}
}

// payloadOf is the payload Write saves of p, its REPL section holding the
// changelog position logPos.
func payloadOf(t testing.TB, p *core.Platform, logPos uint64) []byte {
	t.Helper()
	st := capture(p)
	st.logPos = logPos
	var payload []byte
	for _, sec := range st.sections() {
		frame, err := sec.frame()
		if err != nil {
			t.Fatal(err)
		}
		payload = append(payload, frame...)
	}
	return payload
}

// payloadSeeds are the payload of a small platform — two tables, one
// pipeline — each of its sections alone, the payload with a table order
// that leaves a table out, the payload with a retired QCACHE frame, and
// the back-reference seeds.
func payloadSeeds(t testing.TB) [][]byte {
	t.Helper()
	var tables []core.Table
	for i, name := range []string{"patients.csv", "visits.csv"} {
		df := dataframe.New(name)
		for _, col := range []string{"patient_id", "city"} {
			s := &dataframe.Series{Name: col}
			for r := 0; r < 4; r++ {
				s.Cells = append(s.Cells, dataframe.ParseCell(fmt.Sprintf("%s-%d", col, r+i)))
			}
			df.AddColumn(s)
		}
		tables = append(tables, core.Table{Dataset: "health", Frame: df})
	}
	plat := core.Bootstrap(core.Config{}, tables)
	plat.AddPipelines([]pipeline.Script{{ID: "p1", Source: "import pandas as pd\ndf = pd.read_csv('patients.csv')\n"}})
	// Two-dimensional embeddings keep the seeds, and every input the fuzzer
	// derives from them, a few kilobytes long.
	for _, cp := range plat.Profiles {
		cp.Embed = cp.Embed[:2]
	}
	plat.TableANN = vectorindex.NewHNSW(4, 8, 8)
	for _, id := range plat.TableIndex.IDs() {
		plat.TableEmbeddings[id] = plat.TableEmbeddings[id][:2]
		plat.TableANN.Add(id, plat.TableEmbeddings[id])
	}
	payload := payloadOf(t, plat, 3)
	seeds := [][]byte{payload}
	for r := (&reader{b: payload}); r.off < len(r.b); {
		start := r.off
		r.u8()
		n := r.uvarint()
		if r.err != nil {
			t.Fatal(r.err)
		}
		r.off += int(n)
		seeds = append(seeds, payload[start:r.off])
	}
	seeds = append(seeds, omitFirstOrderedTable(t, payload), withRetiredCacheFrame(t, payload))
	return append(seeds, backRefSeeds()...)
}

// FuzzDecodePayload throws arbitrary payloads at the snapshot decoder, as
// if they had passed the file checksum, and every payload it accepts at
// core.Restore, as Read does. Neither may panic; a payload the decoder
// accepts must come with a store, and Restore must return a platform or an
// error.
func FuzzDecodePayload(f *testing.F) {
	for _, seed := range payloadSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		st, err := decodePayload(payload)
		if err != nil {
			return
		}
		if st.Store == nil {
			t.Fatal("payload accepted without a store")
		}
		if p, err := core.Restore(*st); (p == nil) == (err == nil) {
			t.Fatalf("Restore returned platform %v and error %v", p != nil, err)
		}
	})
}

// TestDecodePayloadRejectsInflatedCounts: a section count larger than its
// section can hold at the element's smallest encoding is rejected before
// anything is allocated for it, as DecodeChange does.
func TestDecodePayloadRejectsInflatedCounts(t *testing.T) {
	zeros := make([]byte, 512)
	for _, c := range []struct {
		tag    byte
		prefix int // zero bytes before the count
		min    int
	}{
		{secDict, 0, minTermBytes},
		{secQuads, 0, minIDQuadBytes},
		{secProf, 0, minProfileBytes},
		{secTEmb, 0, minEmbeddingBytes},
		{secEdges, 0, minEdgeBytes},
		{secANN, 5, minNodeBytes},
		{secScripts, 0, minScriptBytes},
	} {
		body := binary.AppendUvarint(make([]byte, c.prefix), uint64(len(zeros)/c.min+1))
		body = append(body, zeros...)
		payload := binary.AppendUvarint([]byte{c.tag}, uint64(len(body)))
		if _, err := decodePayload(append(payload, body...)); err == nil || !strings.Contains(err.Error(), "implausible count") {
			t.Errorf("section %d with an inflated count: err = %v", c.tag, err)
		}
	}
}
