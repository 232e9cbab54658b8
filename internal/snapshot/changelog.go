package snapshot

import (
	"fmt"
	"sort"

	"kglids/internal/core"
	"kglids/internal/embed"
	"kglids/internal/profiler"
	"kglids/internal/rdf"
	"kglids/internal/schema"
	"kglids/internal/store"
)

// Change is the decoded payload of one changelog record, ready to apply to
// a follower platform. Exactly one of the three bodies is populated,
// according to Kind: Quads for add/remove records, Graph for remove-graph
// records, Delta for platform-delta records.
type Change struct {
	Kind  store.ChangeKind
	Quads []rdf.Quad
	Graph rdf.Term
	Delta *core.PlatformDelta
}

// EncodeChange serializes a changelog record body for the wire, using the
// snapshot codec (recursive RDF-star-aware term encoding, varint framing).
// The record's sequence, generation, and kind travel in the HTTP envelope;
// only the body is encoded here.
//
// The body is written into one buffer of its exact size: a page of records
// runs to megabytes, and a buffer grown by doubling would allocate each
// body about three times over.
func EncodeChange(rec store.ChangeRecord) ([]byte, error) {
	var w writer
	switch rec.Kind {
	case store.ChangeAddQuads, store.ChangeRemoveQuads:
		w.buf.Grow(quadsSize(rec.Quads))
		w.uint(len(rec.Quads))
		for _, q := range rec.Quads {
			encodeQuad(&w, q)
		}
	case store.ChangeRemoveGraph:
		w.term(rec.Graph)
	case store.ChangeAux:
		d, ok := rec.Aux.(*core.PlatformDelta)
		if !ok {
			return nil, fmt.Errorf("snapshot: changelog aux record %d carries %T, want *core.PlatformDelta", rec.Seq, rec.Aux)
		}
		w.buf.Grow(deltaSize(d))
		encodeDelta(&w, d)
	default:
		return nil, fmt.Errorf("snapshot: unknown changelog kind %q", rec.Kind)
	}
	return w.buf.Bytes(), nil
}

// Smallest encodings of the elements a changelog record carries: a term
// is a kind byte and a length at least, a profile four strings, three
// counts, five floats and a vector length, an edge three strings and a
// float, a table embedding a string and a vector length.
const (
	minQuadBytes      = 4 * 2
	minProfileBytes   = 4 + 3 + 5*8 + 1
	minEdgeBytes      = 3 + 8
	minEmbeddingBytes = 2
)

// DecodeChange deserializes a changelog record body received from a
// primary. It is the exact inverse of EncodeChange.
func DecodeChange(kind string, payload []byte) (*Change, error) {
	c := &Change{Kind: store.ChangeKind(kind)}
	r := &reader{b: payload}
	switch c.Kind {
	case store.ChangeAddQuads, store.ChangeRemoveQuads:
		n := r.countOf(minQuadBytes)
		c.Quads = make([]rdf.Quad, 0, n)
		for i := 0; i < n && r.err == nil; i++ {
			c.Quads = append(c.Quads, decodeQuad(r))
		}
	case store.ChangeRemoveGraph:
		c.Graph = r.term(0)
	case store.ChangeAux:
		c.Delta = decodeDelta(r)
	default:
		return nil, fmt.Errorf("snapshot: unknown changelog kind %q", kind)
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(r.b) {
		return nil, fmt.Errorf("snapshot: changelog %s record has %d trailing bytes", kind, len(r.b)-r.off)
	}
	return c, nil
}

func encodeQuad(w *writer, q rdf.Quad) {
	w.term(q.Subject)
	w.term(q.Predicate)
	w.term(q.Object)
	w.term(q.Graph)
}

// quadsSize is the length of a quad batch's encoding: its count, then
// encodeQuad's output for each quad.
func quadsSize(qs []rdf.Quad) int {
	n := uvarintSize(uint64(len(qs)))
	for _, q := range qs {
		n += termSize(q.Subject) + termSize(q.Predicate) + termSize(q.Object) + termSize(q.Graph)
	}
	return n
}

func decodeQuad(r *reader) rdf.Quad {
	return rdf.Quad{
		Triple: rdf.Triple{
			Subject:   r.term(0),
			Predicate: r.term(0),
			Object:    r.term(0),
		},
		Graph: r.term(0),
	}
}

// encodeDelta mirrors the snapshot PROF/EDGE/TEMB section shapes for the
// incremental slice a single mutation produced.
func encodeDelta(w *writer, d *core.PlatformDelta) {
	w.str(d.RemovedTable)
	w.uint(len(d.Profiles))
	for _, cp := range d.Profiles {
		w.str(cp.Dataset)
		w.str(cp.Table)
		w.str(cp.Column)
		w.str(string(cp.Type))
		w.uint(cp.Stats.Total)
		w.uint(cp.Stats.Missing)
		w.uint(cp.Stats.Distinct)
		w.f64(cp.Stats.Min)
		w.f64(cp.Stats.Max)
		w.f64(cp.Stats.Mean)
		w.f64(cp.Stats.Std)
		w.f64(cp.Stats.TrueRatio)
		w.vec(cp.Embed)
	}
	w.uint(len(d.Edges))
	for _, e := range d.Edges {
		w.str(e.A)
		w.str(e.B)
		w.str(e.Kind)
		w.f64(e.Score)
	}
	ids := make([]string, 0, len(d.TableEmbeddings))
	for id := range d.TableEmbeddings {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	w.uint(len(ids))
	for _, id := range ids {
		w.str(id)
		w.vec(d.TableEmbeddings[id])
	}
}

// deltaSize is the length of encodeDelta's output.
func deltaSize(d *core.PlatformDelta) int {
	n := strSize(d.RemovedTable) + uvarintSize(uint64(len(d.Profiles)))
	for _, cp := range d.Profiles {
		n += strSize(cp.Dataset) + strSize(cp.Table) + strSize(cp.Column) + strSize(string(cp.Type)) +
			uvarintSize(uint64(cp.Stats.Total)) + uvarintSize(uint64(cp.Stats.Missing)) +
			uvarintSize(uint64(cp.Stats.Distinct)) + 5*8 + vecSize(cp.Embed)
	}
	n += uvarintSize(uint64(len(d.Edges)))
	for _, e := range d.Edges {
		n += strSize(e.A) + strSize(e.B) + strSize(e.Kind) + 8
	}
	n += uvarintSize(uint64(len(d.TableEmbeddings)))
	for id, v := range d.TableEmbeddings {
		n += strSize(id) + vecSize(v)
	}
	return n
}

func decodeDelta(r *reader) *core.PlatformDelta {
	d := &core.PlatformDelta{RemovedTable: r.str()}
	n := r.countOf(minProfileBytes)
	d.Profiles = make([]*profiler.ColumnProfile, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		cp := &profiler.ColumnProfile{
			Dataset: r.str(),
			Table:   r.str(),
			Column:  r.str(),
			Type:    embed.Type(r.str()),
		}
		cp.Stats.Total = r.uint()
		cp.Stats.Missing = r.uint()
		cp.Stats.Distinct = r.uint()
		cp.Stats.Min = r.f64()
		cp.Stats.Max = r.f64()
		cp.Stats.Mean = r.f64()
		cp.Stats.Std = r.f64()
		cp.Stats.TrueRatio = r.f64()
		cp.Embed = r.vec()
		d.Profiles = append(d.Profiles, cp)
	}
	n = r.countOf(minEdgeBytes)
	d.Edges = make([]schema.Edge, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		d.Edges = append(d.Edges, schema.Edge{
			A: r.str(), B: r.str(), Kind: r.str(), Score: r.f64(),
		})
	}
	n = r.countOf(minEmbeddingBytes)
	d.TableEmbeddings = make(map[string]embed.Vector, n)
	for i := 0; i < n && r.err == nil; i++ {
		id := r.str()
		d.TableEmbeddings[id] = r.vec()
	}
	return d
}
