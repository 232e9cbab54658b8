package connector

import (
	"bytes"
	"context"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// FuzzCSVChunks throws arbitrary bytes at the hardened CSV chunker and
// checks the streaming invariants that the profiler's accumulators rely
// on (see checkChunkStream).
func FuzzCSVChunks(f *testing.F) {
	f.Add([]byte("a,b\n1,2\n3,4\n"))
	f.Add([]byte("\xEF\xBB\xBFa,b\n\"x,y\",2\n"))
	f.Add([]byte("a,b\n\"multi\nline\",2\nragged\n"))
	f.Add([]byte("a,,a\n1,2,3\n"))
	f.Add([]byte("\"unterminated\na,b\n"))
	f.Add([]byte{0x00, 0xFF, 0xFE, '\n', ','})
	f.Fuzz(func(t *testing.T, data []byte) {
		rc := io.NopCloser(bytes.NewReader(data))
		r, err := newCSVChunkReader("fuzz", "fuzz.csv", rc, ',', 7)
		if err != nil {
			return // empty or headerless input is a legitimate open error
		}
		checkChunkStream(t, r)
	})
}

// FuzzJSONLChunks does the same for the JSONL connector, whose column set
// comes from a first pass over the file rather than from a header.
func FuzzJSONLChunks(f *testing.F) {
	f.Add([]byte(`{"b":1,"a":"x"}` + "\nnot json\n" + `{"a":"y","c":true}` + "\n\n" + `{"a":null}` + "\n"))
	f.Add([]byte(`{"a":[1,{"b":2}],"c":{"d":"e"}}` + "\n" + `{"a":1e400}`))
	f.Add([]byte("null\n[]\n\"s\"\n{}\n" + `{"":0}`))
	f.Add([]byte(`{"a":1}` + "\r\n" + `{"a":"2023-01-05","b":false}` + "\r\n"))
	f.Add([]byte(`{"a":"\u0000\ud800"}` + "\n" + `{"a":1,"a":2}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		src := &jsonlSource{opts: Options{ChunkRows: 3}}
		r, err := src.Open(context.Background(), TableRef{Dataset: "fuzz", Table: "fuzz.jsonl", Locator: path})
		if err != nil {
			return // a file without a JSON object is a legitimate open error
		}
		checkChunkStream(t, r)
	})
}

// checkChunkStream drains r and checks the invariants every connector's
// chunks keep: no panics, every chunk is rectangular with exactly the
// declared column count, and every Next after exhaustion keeps returning
// io.EOF.
func checkChunkStream(t *testing.T, r TableReader) {
	t.Helper()
	defer r.Close()
	ncols := len(r.Columns())
	if ncols == 0 {
		t.Fatal("open succeeded with zero columns")
	}
	for {
		chunk, err := r.Next(context.Background())
		if err == io.EOF {
			break
		}
		if err != nil {
			return // terminal read errors are allowed, panics are not
		}
		if len(chunk.Cols) != ncols {
			t.Fatalf("chunk has %d columns, reader declares %d", len(chunk.Cols), ncols)
		}
		n := chunk.Rows()
		if n == 0 {
			t.Fatal("empty chunk instead of io.EOF")
		}
		for i, cells := range chunk.Cols {
			if len(cells) != n {
				t.Fatalf("column %d has %d cells, chunk claims %d rows", i, len(cells), n)
			}
		}
	}
	if _, err := r.Next(context.Background()); err != io.EOF {
		t.Fatalf("Next after EOF = %v", err)
	}
}
