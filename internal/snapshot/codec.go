package snapshot

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"kglids/internal/embed"
	"kglids/internal/rdf"
	"kglids/internal/store"
)

// writer appends the snapshot encoding to buf. All integers are unsigned
// varints unless noted; floats are IEEE-754 bits, little-endian; strings
// and vectors are length-prefixed. A writer whose buf was made at the
// exact encoded size never grows it.
type writer struct {
	buf []byte
}

func (w *writer) u8(v byte)        { w.buf = append(w.buf, v) }
func (w *writer) uvarint(v uint64) { w.buf = binary.AppendUvarint(w.buf, v) }
func (w *writer) varint(v int64)   { w.buf = binary.AppendVarint(w.buf, v) }
func (w *writer) uint(v int)       { w.uvarint(uint64(v)) }
func (w *writer) f64(v float64)    { w.buf = binary.LittleEndian.AppendUint64(w.buf, math.Float64bits(v)) }
func (w *writer) str(s string) {
	w.uvarint(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// vec writes a vector's floats in one pass over a slice grown once.
func (w *writer) vec(v embed.Vector) {
	w.uvarint(uint64(len(v)))
	n := len(w.buf)
	w.buf = slices.Grow(w.buf, 8*len(v))[:n+8*len(v)]
	for i, f := range v {
		binary.LittleEndian.PutUint64(w.buf[n+8*i:], math.Float64bits(f))
	}
}

// dict encodes the DICT section from Dictionary.Pages: the terms in ID
// order, each a kind byte and its value (and datatype, for a literal),
// except that a quoted triple is written as the IDs of its components,
// which are earlier terms.
func (w *writer) dict(pages [][]rdf.Term, quoted []store.TripleIDs) {
	n := 0
	for _, page := range pages {
		n += len(page)
	}
	w.uint(n)
	for _, page := range pages {
		for i := range page {
			t := &page[i]
			w.u8(byte(t.Kind))
			switch t.Kind {
			case rdf.KindLiteral:
				w.str(t.Value)
				w.str(t.Datatype)
			case rdf.KindQuoted:
				w.uvarint(uint64(quoted[0].S))
				w.uvarint(uint64(quoted[0].P))
				w.uvarint(uint64(quoted[0].O))
				quoted = quoted[1:]
			default: // IRI, blank node
				w.str(t.Value)
			}
		}
	}
}

// Encoded sizes, for writing into a buffer allocated once: each is the
// length of the writer method of the same name's output.
func uvarintSize(v uint64) int   { return (bits.Len64(v|1) + 6) / 7 }
func varintSize(v int64) int     { return uvarintSize(uint64(v<<1 ^ v>>63)) }
func strSize(s string) int       { return uvarintSize(uint64(len(s))) + len(s) }
func vecSize(v embed.Vector) int { return uvarintSize(uint64(len(v))) + 8*len(v) }

func dictSize(pages [][]rdf.Term, quoted []store.TripleIDs) int {
	n, size := 0, 0
	for _, page := range pages {
		n += len(page)
		for i := range page {
			t := &page[i]
			switch t.Kind {
			case rdf.KindLiteral:
				size += 1 + strSize(t.Value) + strSize(t.Datatype)
			case rdf.KindQuoted:
				size += 1 + uvarintSize(uint64(quoted[0].S)) + uvarintSize(uint64(quoted[0].P)) + uvarintSize(uint64(quoted[0].O))
				quoted = quoted[1:]
			default:
				size += 1 + strSize(t.Value)
			}
		}
	}
	return uvarintSize(uint64(n)) + size
}

// reader decodes a payload. The first malformed read latches err; all
// subsequent reads return zero values, so decoders can run to completion
// and check err once.
type reader struct {
	b   []byte
	off int
	err error
}

func (r *reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("snapshot: "+format, args...)
	}
}

func (r *reader) u8() byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.b) {
		r.fail("truncated payload at byte %d", r.off)
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail("bad varint at byte %d", r.off)
		return 0
	}
	r.off += n
	return v
}

func (r *reader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		r.fail("bad varint at byte %d", r.off)
		return 0
	}
	r.off += n
	return v
}

// count reads a collection length and sanity-bounds it against the bytes
// remaining (each element needs at least one byte), so a corrupted length
// fails fast instead of attempting a huge allocation.
func (r *reader) count() int { return r.countOf(1) }

// countOf is count for elements whose encoding takes at least size bytes.
// Bounding by the smallest encoding keeps what a length makes a decoder
// allocate proportional to the bytes that carry the elements.
func (r *reader) countOf(size int) int {
	v := r.uvarint()
	if r.err == nil && v > uint64((len(r.b)-r.off)/size) {
		r.fail("implausible count %d with %d bytes left", v, len(r.b)-r.off)
		return 0
	}
	return int(v)
}

func (r *reader) uint() int { return int(r.uvarint()) }

func (r *reader) str() string { return string(r.bytes()) }

// bytes reads a string without copying it out of the payload.
func (r *reader) bytes() []byte {
	n := r.uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.b)-r.off) {
		r.fail("string length %d exceeds remaining %d bytes", n, len(r.b)-r.off)
		return nil
	}
	b := r.b[r.off : r.off+int(n)]
	r.off += int(n)
	return b
}

func (r *reader) f64() float64 {
	if r.err != nil {
		return 0
	}
	if len(r.b)-r.off < 8 {
		r.fail("truncated float at byte %d", r.off)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.b[r.off:]))
	r.off += 8
	return v
}

func (r *reader) vec() embed.Vector {
	n := r.uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.b)-r.off)/8 {
		r.fail("vector length %d exceeds remaining bytes", n)
		return nil
	}
	v := make(embed.Vector, n)
	b := r.b[r.off:]
	for i := range v {
		v[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	r.off += 8 * int(n)
	return v
}

// maxQuotedDepth bounds quoted-triple nesting, so that a corrupted kind
// byte cannot make term recurse unboundedly and a corrupted dictionary
// cannot hand the store a term too deep to print or compare.
const maxQuotedDepth = 16

// dict decodes the DICT section into the terms, in one slice, and the
// quoted-triple components Dictionary.Pages gave writer.dict. A quoted
// triple's back-references must name earlier terms, and it is built from
// those terms as decoded, so it shares their strings; literal datatypes
// are interned too. A restored dictionary so holds one
// string per IRI and per datatype, as one filled by interning does.
func (r *reader) dict() ([]rdf.Term, []store.TripleIDs) {
	n := r.countOf(minTermBytes)
	terms := make([]rdf.Term, 0, n)
	depth := make([]uint8, 0, n) // quoted-triple nesting of each term
	var quoted []store.TripleIDs
	datatypes := map[string]string{}
	for r.err == nil && len(terms) < n {
		id := len(terms) + 1
		kind := rdf.TermKind(r.u8())
		t, d := rdf.Term{Kind: kind}, uint8(0)
		switch kind {
		case rdf.KindIRI, rdf.KindBlank:
			t.Value = r.str()
		case rdf.KindLiteral:
			t.Value = r.str()
			b := r.bytes()
			dt, ok := datatypes[string(b)]
			if !ok {
				dt = string(b)
				datatypes[dt] = dt
			}
			t.Datatype = dt
		case rdf.KindQuoted:
			k := store.TripleIDs{S: r.ref(id), P: r.ref(id), O: r.ref(id)}
			if r.err != nil {
				break
			}
			if d = 1 + max(depth[k.S-1], depth[k.P-1], depth[k.O-1]); d > maxQuotedDepth {
				r.fail("quoted-triple nesting deeper than %d at term %d", maxQuotedDepth, id)
				break
			}
			t.Quoted = &rdf.Triple{Subject: terms[k.S-1], Predicate: terms[k.P-1], Object: terms[k.O-1]}
			quoted = append(quoted, k)
		default:
			r.fail("unknown term kind %d at byte %d", kind, r.off-1)
		}
		terms = append(terms, t)
		depth = append(depth, d)
	}
	return terms, quoted
}

// ref reads a back-reference from the term with ID id to an earlier term.
func (r *reader) ref(id int) store.TermID {
	v := r.uvarint()
	if r.err == nil && (v == 0 || v >= uint64(id)) {
		r.fail("term %d refers to term %d, which is not an earlier term", id, v)
		return 0
	}
	return store.TermID(v)
}
