package connector

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"kglids/internal/dataframe"
)

// drain streams a reader to exhaustion, returning the rows as string
// matrices keyed by column index.
func drain(t *testing.T, r TableReader) [][]string {
	t.Helper()
	out := make([][]string, len(r.Columns()))
	for {
		chunk, err := r.Next(context.Background())
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if len(chunk.Cols) != len(out) {
			t.Fatalf("chunk has %d columns, want %d", len(chunk.Cols), len(out))
		}
		for i, cells := range chunk.Cols {
			if len(cells) != chunk.Rows() {
				t.Fatalf("column %d has %d cells, chunk claims %d rows", i, len(cells), chunk.Rows())
			}
			for _, c := range cells {
				out[i] = append(out[i], c.S)
			}
		}
	}
	// EOF must be sticky.
	if _, err := r.Next(context.Background()); err != io.EOF {
		t.Fatalf("Next after EOF = %v, want io.EOF", err)
	}
	return out
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestParseURI(t *testing.T) {
	u, err := ParseURI("lakegen://wide?tables=3&seed=9")
	if err != nil {
		t.Fatal(err)
	}
	if u.Scheme != "lakegen" || u.Opaque != "wide" {
		t.Fatalf("parsed %+v", u)
	}
	if u.Query.Get("tables") != "3" || u.Query.Get("seed") != "9" {
		t.Fatalf("query %v", u.Query)
	}
	u, err = ParseURI("dir://relative/path")
	if err != nil {
		t.Fatal(err)
	}
	if u.Opaque != "relative/path" {
		t.Fatalf("relative path mangled: %q", u.Opaque)
	}
	for _, bad := range []string{"", "noscheme", "://path", "dir:/half"} {
		if _, err := ParseURI(bad); err == nil {
			t.Errorf("ParseURI(%q) succeeded, want error", bad)
		}
	}
}

func TestRegistryUnknownSchemeAndDupPanic(t *testing.T) {
	if _, err := Open("nosuch://x"); err == nil {
		t.Fatal("unknown scheme did not error")
	}
	r := NewRegistry()
	r.Register("x", func(u *URI, opts Options) (Source, error) { return nil, nil })
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Register did not panic")
		}
	}()
	r.Register("x", func(u *URI, opts Options) (Source, error) { return nil, nil })
}

func TestDirSourceNamingAndFingerprint(t *testing.T) {
	root := t.TempDir()
	writeFile(t, filepath.Join(root, "ds1", "a.csv"), "x,y\n1,2\n3,4\n")
	writeFile(t, filepath.Join(root, "ds1", "b.tsv"), "p\tq\nu\tv\n")
	writeFile(t, filepath.Join(root, "ds2", "c.csv"), "k\n1\n")
	writeFile(t, filepath.Join(root, "ds2", "ignore.txt"), "not a table")

	src, err := Open("dir://" + root)
	if err != nil {
		t.Fatal(err)
	}
	refs, err := src.Tables(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, ref := range refs {
		ids = append(ids, ref.ID())
	}
	want := []string{"ds1/a.csv", "ds1/b.tsv", "ds2/c.csv"}
	if fmt.Sprint(ids) != fmt.Sprint(want) {
		t.Fatalf("tables %v, want %v", ids, want)
	}

	// TSV streams under tab delimiting.
	r, err := src.Open(context.Background(), refs[1])
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	cols := drain(t, r)
	if fmt.Sprint(r.Columns()) != "[p q]" || cols[0][0] != "u" || cols[1][0] != "v" {
		t.Fatalf("tsv columns %v rows %v", r.Columns(), cols)
	}
}

func TestCSVHardening(t *testing.T) {
	root := t.TempDir()
	content := "\xEF\xBB\xBFname,note,n\n" + // BOM before header
		"alpha,\"with, comma\",1\n" +
		"beta,\"multi\nline\",2\n" + // embedded newline in a quoted field
		"ragged,3\n" + // 2 fields, skipped
		"gamma,plain,3\n" +
		"too,many,fields,here\n" // 4 fields, skipped
	writeFile(t, filepath.Join(root, "ds", "t.csv"), content)

	src, err := Open("dir://" + root)
	if err != nil {
		t.Fatal(err)
	}
	refs, _ := src.Tables(context.Background())
	r, err := src.Open(context.Background(), refs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if fmt.Sprint(r.Columns()) != "[name note n]" {
		t.Fatalf("BOM not stripped or header wrong: %v", r.Columns())
	}
	rows := drain(t, r)
	if len(rows[0]) != 3 {
		t.Fatalf("kept %d rows, want 3 (%v)", len(rows[0]), rows)
	}
	if rows[1][0] != "with, comma" || rows[1][1] != "multi\nline" {
		t.Fatalf("quoted fields mangled: %v", rows[1])
	}
	cr, ok := r.(*csvChunkReader)
	if !ok {
		t.Fatalf("dir reader is %T", r)
	}
	if cr.SkippedRows() != 2 {
		t.Fatalf("skipped %d rows, want 2", cr.SkippedRows())
	}
}

func TestCSVDuplicateAndEmptyHeaders(t *testing.T) {
	root := t.TempDir()
	writeFile(t, filepath.Join(root, "ds", "t.csv"), "a,,a\n1,2,3\n")
	src, _ := Open("dir://" + root)
	refs, _ := src.Tables(context.Background())
	r, err := src.Open(context.Background(), refs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got := fmt.Sprint(r.Columns())
	// Must match dataframe.ReadCSV's normalization.
	df, err := dataframe.ReadCSV("t.csv", strings.NewReader("a,,a\n1,2,3\n"))
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for i := 0; i < df.NumCols(); i++ {
		want = append(want, df.ColumnAt(i).Name)
	}
	if got != fmt.Sprint(want) {
		t.Fatalf("header normalization %v diverges from ReadCSV %v", got, want)
	}
}

func TestCSVEmptyFileIsOpenError(t *testing.T) {
	root := t.TempDir()
	writeFile(t, filepath.Join(root, "ds", "empty.csv"), "")
	src, _ := Open("dir://" + root)
	refs, _ := src.Tables(context.Background())
	if _, err := src.Open(context.Background(), refs[0]); err == nil {
		t.Fatal("empty CSV opened without error")
	}
}

func TestJSONLSource(t *testing.T) {
	root := t.TempDir()
	content := `{"b":1,"a":"x"}` + "\n" +
		"not json\n" + // skipped
		`{"a":"y","c":true}` + "\n" +
		"\n" + // blank, ignored
		`{"a":null}` + "\n"
	writeFile(t, filepath.Join(root, "ds", "t.jsonl"), content)

	src, err := Open("jsonl://" + root)
	if err != nil {
		t.Fatal(err)
	}
	refs, err := src.Tables(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) != 1 || refs[0].ID() != "ds/t.jsonl" {
		t.Fatalf("refs %v", refs)
	}
	r, err := src.Open(context.Background(), refs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	// Key union, first-seen order with per-record sort: a,b then c.
	if fmt.Sprint(r.Columns()) != "[a b c]" {
		t.Fatalf("columns %v", r.Columns())
	}
	rows := drain(t, r)
	if len(rows[0]) != 3 {
		t.Fatalf("kept %d rows, want 3", len(rows[0]))
	}
	if rows[0][0] != "x" || rows[1][0] != "1" {
		t.Fatalf("row 0 = %v %v", rows[0][0], rows[1][0])
	}
	jr := r.(*jsonlReader)
	if jr.SkippedRows() != 1 {
		t.Fatalf("skipped %d, want 1", jr.SkippedRows())
	}
}

// fastRetries gives the http connector 3 retries 1 ms apart for the
// length of the test.
func fastRetries(t *testing.T) {
	retries, backoff := httpRetries, httpBackoff
	httpRetries, httpBackoff = 3, time.Millisecond
	t.Cleanup(func() { httpRetries, httpBackoff = retries, backoff })
}

func TestHTTPRetryThenSuccess(t *testing.T) {
	var gets atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if gets.Add(1) <= 2 {
			http.Error(w, "busy", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprint(w, "x,y\n1,2\n3,4\n")
	}))
	defer ts.Close()

	fastRetries(t)
	src, err := OpenWith(ts.URL+"/lake/trips.csv", Options{})
	if err != nil {
		t.Fatal(err)
	}
	refs, err := src.Tables(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) != 1 || refs[0].Table != "trips.csv" {
		t.Fatalf("refs %+v", refs)
	}
	r, err := src.Open(context.Background(), refs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	rows := drain(t, r)
	if len(rows[0]) != 2 || rows[0][0] != "1" || rows[1][1] != "4" {
		t.Fatalf("rows %v", rows)
	}
	if got := gets.Load(); got != 3 {
		t.Fatalf("server saw %d GETs, want 3 (2 retried)", got)
	}
}

func TestHTTPNonRetryableFailsFast(t *testing.T) {
	var gets atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method == http.MethodGet {
			gets.Add(1)
		}
		http.NotFound(w, req)
	}))
	defer ts.Close()
	fastRetries(t)
	src, err := OpenWith(ts.URL+"/gone.csv", Options{})
	if err != nil {
		t.Fatal(err)
	}
	refs, _ := src.Tables(context.Background())
	if len(refs) != 1 {
		t.Fatalf("refs %v", refs)
	}
	if _, err := src.Open(context.Background(), refs[0]); err == nil {
		t.Fatal("404 did not error")
	}
	if gets.Load() != 1 {
		t.Fatalf("404 was retried (%d GETs)", gets.Load())
	}
}

func TestLakegenDeterministicAndMatchesMaterialize(t *testing.T) {
	const uri = "lakegen://wide?tables=3&cols=4&rows=700&seed=11"
	stream := func() map[string][][]string {
		src, err := OpenWith(uri, Options{ChunkRows: 64})
		if err != nil {
			t.Fatal(err)
		}
		refs, err := src.Tables(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		out := map[string][][]string{}
		for _, ref := range refs {
			r, err := src.Open(context.Background(), ref)
			if err != nil {
				t.Fatal(err)
			}
			out[ref.ID()] = drain(t, r)
			r.Close()
		}
		return out
	}
	a, b := stream(), stream()
	if len(a) != 3 {
		t.Fatalf("streamed %d tables", len(a))
	}
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatal("lakegen stream is not deterministic")
	}
	for id, cols := range a {
		if len(cols) != 4 || len(cols[0]) != 700 {
			t.Fatalf("%s: %d cols x %d rows", id, len(cols), len(cols[0]))
		}
	}
}

func TestReaderContextCancellation(t *testing.T) {
	src, err := OpenWith("lakegen://wide?tables=1&cols=2&rows=1000", Options{ChunkRows: 16})
	if err != nil {
		t.Fatal(err)
	}
	refs, _ := src.Tables(context.Background())
	r, err := src.Open(context.Background(), refs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ctx, cancel := context.WithCancel(context.Background())
	if _, err := r.Next(ctx); err != nil {
		t.Fatal(err)
	}
	cancel()
	if _, err := r.Next(ctx); err != context.Canceled {
		t.Fatalf("Next under canceled ctx = %v, want context.Canceled", err)
	}
}

func TestSchemesRegistered(t *testing.T) {
	got := fmt.Sprint(Default.Schemes())
	want := "[dir http https jsonl lakegen]"
	if got != want {
		t.Fatalf("schemes %s, want %s", got, want)
	}
}
