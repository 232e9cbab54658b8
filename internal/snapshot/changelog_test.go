package snapshot

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"kglids/internal/core"
	"kglids/internal/embed"
	"kglids/internal/profiler"
	"kglids/internal/rdf"
	"kglids/internal/schema"
	"kglids/internal/store"
)

// changeSeeds are one changelog record of each kind, covering IRIs,
// blank nodes, typed literals, an RDF-star annotation and a quoted triple
// nested inside another.
func changeSeeds() []store.ChangeRecord {
	a, b := rdf.Resource("ds/t.csv/a"), rdf.Resource("ds/u.csv/b")
	edge := rdf.T(a, rdf.PropContentSimilarity, b)
	nested := rdf.T(rdf.QuotedTriple(edge), rdf.PropCertainty, rdf.Float(0.9))
	quads := []rdf.Quad{
		rdf.Q(a, rdf.PropName, rdf.String("a"), rdf.DefaultGraph),
		rdf.Q(rdf.Blank("b0"), rdf.RDFType, rdf.ClassColumn, rdf.Resource("pipeline/p1")),
		rdf.Q(rdf.QuotedTriple(edge), rdf.PropCertainty, rdf.Float(0.9), rdf.DefaultGraph),
		rdf.Q(rdf.QuotedTriple(nested), rdf.PropCertainty, rdf.Integer(1), rdf.DefaultGraph),
	}
	delta := &core.PlatformDelta{
		Profiles: []*profiler.ColumnProfile{{
			Dataset: "ds", Table: "t.csv", Column: "a", Type: embed.Type("int"),
			Stats: profiler.ColumnStats{Total: 10, Missing: 1, Distinct: 7, Min: -2, Max: 9.5, Mean: 3, Std: 1.25},
			Embed: embed.Vector{0.5, -0.25},
		}},
		Edges:           []schema.Edge{{A: "ds/t.csv/a", B: "ds/u.csv/b", Kind: "content", Score: 0.9}},
		TableEmbeddings: map[string]embed.Vector{"ds/t.csv": {1, 0}, "ds/u.csv": {0, 1}},
	}
	return []store.ChangeRecord{
		{Kind: store.ChangeAddQuads, Quads: quads},
		{Kind: store.ChangeRemoveQuads, Quads: quads[2:]},
		{Kind: store.ChangeRemoveGraph, Graph: rdf.Resource("pipeline/p1")},
		{Kind: store.ChangeAux, Aux: delta},
		{Kind: store.ChangeAux, Aux: &core.PlatformDelta{RemovedTable: "ds/t.csv"}},
	}
}

// FuzzDecodeChange throws arbitrary record bodies at DecodeChange, which
// reads bytes a follower receives from its primary. It must never panic,
// and whatever it accepts must re-encode to bytes that decode and encode
// again unchanged.
func FuzzDecodeChange(f *testing.F) {
	for _, rec := range changeSeeds() {
		payload, err := EncodeChange(rec)
		if err != nil {
			f.Fatal(err)
		}
		// An encoded record is canonical: decoding and re-encoding it
		// reproduces its bytes exactly.
		if again := reencode(f, string(rec.Kind), payload); !bytes.Equal(again, payload) {
			f.Fatalf("%s record does not round-trip", rec.Kind)
		}
		f.Add(string(rec.Kind), payload)
	}
	f.Fuzz(func(t *testing.T, kind string, payload []byte) {
		if _, err := DecodeChange(kind, payload); err != nil {
			return
		}
		first := reencode(t, kind, payload)
		if second := reencode(t, kind, first); !bytes.Equal(first, second) {
			t.Fatalf("decode→encode→decode of a %s record is not stable", kind)
		}
	})
}

// TestDecodeChangeRejectsInflatedCounts: a count larger than the payload
// can hold at the element's smallest encoding is rejected before anything
// is allocated for it. Bounding at one byte per element let a 1 MiB "add"
// body claiming 2^20 quads allocate 192 MiB.
func TestDecodeChangeRejectsInflatedCounts(t *testing.T) {
	zeros := make([]byte, 512)
	for _, c := range []struct {
		kind    string
		payload []byte
	}{
		{"add", append(binary.AppendUvarint(nil, 65), zeros...)},
		{"platform-delta", append(binary.AppendUvarint([]byte{0}, 11), zeros...)},
		{"platform-delta", append(binary.AppendUvarint([]byte{0, 0}, 47), zeros...)},
		{"platform-delta", append(binary.AppendUvarint([]byte{0, 0, 0}, 257), zeros...)},
	} {
		if _, err := DecodeChange(c.kind, c.payload); err == nil || !strings.Contains(err.Error(), "implausible count") {
			t.Errorf("%s record with an inflated count: err = %v", c.kind, err)
		}
	}
}

// TestEncodeChangeSizesExactly: EncodeChange sizes its buffer from
// quadsSize and deltaSize, so each must be the exact length of what the
// encoder writes, multi-byte varints included. (FuzzDecodeChange checks the
// same on every record it re-encodes.)
func TestEncodeChangeSizesExactly(t *testing.T) {
	long := strings.Repeat("x", 300)
	recs := append(changeSeeds(),
		store.ChangeRecord{Kind: store.ChangeAddQuads, Quads: []rdf.Quad{
			rdf.Q(rdf.Resource(long), rdf.PropName, rdf.String(long), rdf.Resource(long)),
			rdf.Q(rdf.Blank(long), rdf.PropName, rdf.Term{Kind: rdf.KindLiteral, Value: "v", Datatype: long}, rdf.DefaultGraph),
		}},
		store.ChangeRecord{Kind: store.ChangeAux, Aux: &core.PlatformDelta{
			RemovedTable: long,
			Profiles: []*profiler.ColumnProfile{{Column: long, Embed: make(embed.Vector, 200),
				Stats: profiler.ColumnStats{Total: 1 << 20, Missing: 300, Distinct: 1 << 14}}},
			TableEmbeddings: map[string]embed.Vector{long: make(embed.Vector, 130)},
		}})
	for _, rec := range recs {
		payload, err := EncodeChange(rec)
		if err != nil {
			t.Fatal(err)
		}
		checkEncodedSize(t, rec, payload)
	}
}

// checkEncodedSize fails unless the size EncodeChange reserved for a quad
// or delta record is the length it wrote.
func checkEncodedSize(t testing.TB, rec store.ChangeRecord, payload []byte) {
	t.Helper()
	var want int
	switch rec.Kind {
	case store.ChangeAddQuads, store.ChangeRemoveQuads:
		want = quadsSize(rec.Quads)
	case store.ChangeAux:
		want = deltaSize(rec.Aux.(*core.PlatformDelta))
	default:
		return
	}
	if len(payload) != want {
		t.Fatalf("%s record encodes to %d bytes, sized as %d", rec.Kind, len(payload), want)
	}
}

// reencode decodes a record body and encodes it again.
func reencode(t testing.TB, kind string, payload []byte) []byte {
	t.Helper()
	c, err := DecodeChange(kind, payload)
	if err != nil {
		t.Fatalf("decode %s: %v", kind, err)
	}
	rec := store.ChangeRecord{Kind: c.Kind, Quads: c.Quads, Graph: c.Graph, Aux: c.Delta}
	out, err := EncodeChange(rec)
	if err != nil {
		t.Fatalf("encode %s: %v", kind, err)
	}
	checkEncodedSize(t, rec, out)
	return out
}
