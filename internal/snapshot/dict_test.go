package snapshot

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"kglids/internal/rdf"
	"kglids/internal/store"
)

// backRefPayload is a payload of a DICT section holding the IRIs a and p
// and then one quoted triple per entry of refs, written as those three
// back-references, and an empty QUADS section.
func backRefPayload(refs ...[3]uint64) []byte {
	var dict writer
	dict.uint(2 + len(refs))
	for _, iri := range []string{"a", "p"} {
		dict.u8(byte(rdf.KindIRI))
		dict.str(iri)
	}
	for _, r := range refs {
		dict.u8(byte(rdf.KindQuoted))
		for _, id := range r {
			dict.uvarint(id)
		}
	}
	var out writer
	out.u8(secDict)
	out.uint(len(dict.buf))
	out.buf = append(out.buf, dict.buf...)
	out.u8(secQuads)
	out.uint(1)
	out.uint(0)
	return out.buf
}

// backRefSeeds are DICT sections for FuzzDecodePayload: a forward and a
// self back-reference, which the decoder rejects, and a quoted triple
// nested in another, which it accepts.
func backRefSeeds() [][]byte {
	return [][]byte{
		backRefPayload([3]uint64{1, 2, 4}, [3]uint64{1, 2, 1}),
		backRefPayload([3]uint64{1, 2, 3}),
		backRefPayload([3]uint64{1, 2, 1}, [3]uint64{3, 2, 1}),
	}
}

// TestDecodePayloadRejectsBadBackReferences: a quoted triple may refer
// only to terms listed before it.
func TestDecodePayloadRejectsBadBackReferences(t *testing.T) {
	if _, err := decodePayload(backRefPayload([3]uint64{1, 2, 1}, [3]uint64{3, 2, 1})); err != nil {
		t.Fatalf("valid back-references: %v", err)
	}
	for _, c := range []struct {
		name string
		refs [][3]uint64
	}{
		{"forward", [][3]uint64{{1, 2, 4}, {1, 2, 1}}},
		{"self", [][3]uint64{{1, 3, 1}}},
		{"zero", [][3]uint64{{1, 2, 0}}},
		{"past the end", [][3]uint64{{9, 2, 1}}},
	} {
		_, err := decodePayload(backRefPayload(c.refs...))
		if err == nil || !strings.Contains(err.Error(), "not an earlier term") {
			t.Errorf("%s back-reference: err = %v", c.name, err)
		}
	}
}

// TestRoundTripNestedQuotedTriple: a quoted triple whose subject is itself
// a quoted triple survives a save and a read, under the same ID.
func TestRoundTripNestedQuotedTriple(t *testing.T) {
	plat, _ := fixture(t)
	inner := rdf.QuotedTriple(rdf.T(rdf.Resource("a"), rdf.Ontology("p"), rdf.Resource("b")))
	nested := rdf.QuotedTriple(rdf.T(inner, rdf.Ontology("p"), rdf.Float(0.25)))
	plat.Store.AddAnnotated(rdf.T(nested, rdf.Ontology("p"), rdf.Resource("c")), rdf.Resource("g"), rdf.Ontology("certainty"), rdf.Float(0.5))
	want, _ := plat.Store.Dict().Lookup(nested)
	restored := roundTrip(t, plat)
	if got, ok := restored.Store.Dict().Lookup(nested); !ok || got != want {
		t.Fatalf("nested quoted triple restored as %d, %v; saved as %d", got, ok, want)
	}
	if g, w := restored.Store.EncodedQuads(), plat.Store.EncodedQuads(); !reflect.DeepEqual(g, w) {
		t.Fatal("restored quads differ from the saved ones")
	}
}

// TestReadRejectsVersion2: a version-2 file writes quoted triples as full
// terms, and no reader of it is kept.
func TestReadRejectsVersion2(t *testing.T) {
	plat, _ := fixture(t)
	var buf bytes.Buffer
	if err := Write(&buf, plat); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[4], data[5] = 2, 0
	if _, err := Read(bytes.NewReader(data)); !errors.Is(err, ErrVersion) {
		t.Fatalf("err = %v, want ErrVersion", err)
	}
}

// TestRestoredTermsShareStrings: a restored dictionary holds each string
// once, as one filled by interning does. The components of a quoted triple
// are the dictionary's own terms, and every literal of one datatype points
// at one datatype string.
func TestRestoredTermsShareStrings(t *testing.T) {
	plat, _ := fixture(t)
	d := roundTrip(t, plat).Store.Dict()
	same := func(a, b string) bool {
		return len(a) == len(b) && (len(a) == 0 || unsafe.StringData(a) == unsafe.StringData(b))
	}
	datatypes := map[string]string{}
	quoted, literals := 0, 0
	for id := store.TermID(1); int(id) <= d.Len(); id++ {
		term := d.Term(id)
		switch term.Kind {
		case rdf.KindQuoted:
			quoted++
			for _, c := range []rdf.Term{term.Quoted.Subject, term.Quoted.Predicate, term.Quoted.Object} {
				cid, ok := d.Lookup(c)
				if !ok {
					t.Fatalf("term %d: component %s is not in the dictionary", id, c)
				}
				if own := d.Term(cid); !same(c.Value, own.Value) || !same(c.Datatype, own.Datatype) || c.Quoted != own.Quoted {
					t.Fatalf("term %d: component %s is a copy of term %d, not the term itself", id, c, cid)
				}
			}
		case rdf.KindLiteral:
			literals++
			if first, ok := datatypes[term.Datatype]; !ok {
				datatypes[term.Datatype] = term.Datatype
			} else if !same(first, term.Datatype) {
				t.Fatalf("term %d: datatype %s is a second copy", id, term.Datatype)
			}
		}
	}
	if quoted == 0 || literals <= len(datatypes) {
		t.Fatalf("%d quoted triples and %d literals of %d datatypes: nothing shared to check", quoted, literals, len(datatypes))
	}
}
