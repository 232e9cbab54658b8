package snapshot

import (
	"errors"
	"fmt"
	"sort"

	"kglids/internal/core"
	"kglids/internal/embed"
	"kglids/internal/pipeline"
	"kglids/internal/profiler"
	"kglids/internal/schema"
	"kglids/internal/store"
)

// Change is the decoded payload of one changelog record, ready to apply to
// a follower platform: Delta for a table record, Scripts for a pipeline
// record.
type Change struct {
	Kind    store.ChangeKind
	Delta   *core.PlatformDelta
	Scripts []pipeline.Script
}

// EncodeChange serializes a changelog record body for the wire, using the
// snapshot codec. The record's sequence, generation, and kind travel in the
// HTTP envelope; only the body is encoded here.
//
// The body is written into one buffer of its exact size: a page of records
// runs to megabytes, and a buffer grown by doubling would allocate each
// body about three times over.
func EncodeChange(rec store.ChangeRecord) ([]byte, error) {
	switch body := rec.Body.(type) {
	case *core.PlatformDelta:
		if rec.Kind == store.ChangeTables {
			w := writer{buf: make([]byte, 0, deltaSize(body))}
			encodeDelta(&w, body)
			return w.buf, nil
		}
	case []pipeline.Script:
		if rec.Kind == store.ChangePipelines {
			w := writer{buf: make([]byte, 0, scriptsSize(body))}
			encodeScripts(&w, body)
			return w.buf, nil
		}
	}
	return nil, fmt.Errorf("snapshot: changelog record %d is a %q record carrying %T", rec.Seq, rec.Kind, rec.Body)
}

// Smallest encodings of the elements a changelog record carries: a removed
// table ID is a string, so a length at least; a profile four strings, three
// counts, five floats and a vector length, an edge three strings and a
// float, a table embedding a string and a vector length. Scripts are
// encoded as in the snapshot's script section.
const (
	minRemovedBytes   = 1
	minProfileBytes   = 4 + 3 + 5*8 + 1
	minEdgeBytes      = 3 + 8
	minEmbeddingBytes = 2
)

// ErrRetiredChange reports a record of a kind this follower no longer
// reads: the primary logs store writes, not whole mutations, so it runs an
// older release. Upgrade it and re-seed the follower from a snapshot.
var ErrRetiredChange = errors.New("snapshot: retired changelog kind, the primary predates one record per mutation; re-seed from a snapshot")

// DecodeChange deserializes a changelog record body received from a
// primary. It is the exact inverse of EncodeChange.
func DecodeChange(kind string, payload []byte) (*Change, error) {
	c := &Change{Kind: store.ChangeKind(kind)}
	r := &reader{b: payload}
	switch c.Kind {
	case store.ChangeTables:
		c.Delta = decodeDelta(r)
	case store.ChangePipelines:
		c.Scripts = decodeScripts(r)
	case "add", "remove", "remove-graph", "platform-delta":
		return nil, fmt.Errorf("%w: %q", ErrRetiredChange, kind)
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

// encodeDelta writes the removed table IDs and then the profiles, edges
// and table embeddings a single mutation produced, each as the snapshot's
// PROF, EDGE and TEMB sections hold them.
func encodeDelta(w *writer, d *core.PlatformDelta) {
	w.uint(len(d.Removed))
	for _, id := range d.Removed {
		w.str(id)
	}
	encodeProfiles(w, d.Profiles)
	encodeEdges(w, d.Edges)
	encodeTableEmbeddings(w, d.TableEmbeddings)
}

// deltaSize is the length of encodeDelta's output.
func deltaSize(d *core.PlatformDelta) int {
	n := uvarintSize(uint64(len(d.Removed)))
	for _, id := range d.Removed {
		n += strSize(id)
	}
	return n + profilesSize(d.Profiles) + edgesSize(d.Edges) + tableEmbeddingsSize(d.TableEmbeddings)
}

func decodeDelta(r *reader) *core.PlatformDelta {
	d := &core.PlatformDelta{}
	n := r.countOf(minRemovedBytes)
	for i := 0; i < n && r.err == nil; i++ {
		d.Removed = append(d.Removed, r.str())
	}
	d.Profiles = decodeProfiles(r)
	d.Edges = decodeEdges(r)
	d.TableEmbeddings = decodeTableEmbeddings(r)
	return d
}

// encodeProfiles writes column profiles as the snapshot's PROF section
// holds them and as a table record ships them.
func encodeProfiles(w *writer, profiles []*profiler.ColumnProfile) {
	w.uint(len(profiles))
	for _, cp := range profiles {
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
}

// profilesSize is the length of encodeProfiles's output.
func profilesSize(profiles []*profiler.ColumnProfile) int {
	n := uvarintSize(uint64(len(profiles)))
	for _, cp := range profiles {
		n += strSize(cp.Dataset) + strSize(cp.Table) + strSize(cp.Column) + strSize(string(cp.Type)) +
			uvarintSize(uint64(cp.Stats.Total)) + uvarintSize(uint64(cp.Stats.Missing)) +
			uvarintSize(uint64(cp.Stats.Distinct)) + 5*8 + vecSize(cp.Embed)
	}
	return n
}

func decodeProfiles(r *reader) []*profiler.ColumnProfile {
	n := r.countOf(minProfileBytes)
	profiles := make([]*profiler.ColumnProfile, 0, n)
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
		profiles = append(profiles, cp)
	}
	return profiles
}

// encodeEdges writes similarity edges as the snapshot's EDGE section holds
// them and as a table record ships them.
func encodeEdges(w *writer, edges []schema.Edge) {
	w.uint(len(edges))
	for _, e := range edges {
		w.str(e.A)
		w.str(e.B)
		w.str(e.Kind)
		w.f64(e.Score)
	}
}

// edgesSize is the length of encodeEdges's output.
func edgesSize(edges []schema.Edge) int {
	n := uvarintSize(uint64(len(edges)))
	for _, e := range edges {
		n += strSize(e.A) + strSize(e.B) + strSize(e.Kind) + 8
	}
	return n
}

func decodeEdges(r *reader) []schema.Edge {
	n := r.countOf(minEdgeBytes)
	edges := make([]schema.Edge, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		edges = append(edges, schema.Edge{
			A: r.str(), B: r.str(), Kind: r.str(), Score: r.f64(),
		})
	}
	return edges
}

// encodeTableEmbeddings writes table embeddings in ID order, as the
// snapshot's TEMB section holds them and as a table record ships them.
func encodeTableEmbeddings(w *writer, tembs map[string]embed.Vector) {
	ids := make([]string, 0, len(tembs))
	for id := range tembs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	w.uint(len(ids))
	for _, id := range ids {
		w.str(id)
		w.vec(tembs[id])
	}
}

// tableEmbeddingsSize is the length of encodeTableEmbeddings's output.
func tableEmbeddingsSize(tembs map[string]embed.Vector) int {
	n := uvarintSize(uint64(len(tembs)))
	for id, v := range tembs {
		n += strSize(id) + vecSize(v)
	}
	return n
}

func decodeTableEmbeddings(r *reader) map[string]embed.Vector {
	n := r.countOf(minEmbeddingBytes)
	tembs := make(map[string]embed.Vector, n)
	for i := 0; i < n && r.err == nil; i++ {
		id := r.str()
		tembs[id] = r.vec()
	}
	return tembs
}

// encodeScripts writes pipeline scripts as the snapshot's script section
// holds them and as a pipeline record ships them.
func encodeScripts(w *writer, scripts []pipeline.Script) {
	w.uint(len(scripts))
	for _, s := range scripts {
		w.str(s.ID)
		w.str(s.Source)
		w.str(s.Meta.Author)
		w.str(s.Meta.Dataset)
		w.str(s.Meta.Task)
		w.varint(int64(s.Meta.Votes))
		w.f64(s.Meta.Score)
	}
}

// scriptsSize is the length of encodeScripts's output.
func scriptsSize(scripts []pipeline.Script) int {
	n := uvarintSize(uint64(len(scripts)))
	for _, s := range scripts {
		n += strSize(s.ID) + strSize(s.Source) + strSize(s.Meta.Author) + strSize(s.Meta.Dataset) +
			strSize(s.Meta.Task) + varintSize(int64(s.Meta.Votes)) + 8
	}
	return n
}

func decodeScripts(r *reader) []pipeline.Script {
	n := r.countOf(minScriptBytes)
	scripts := make([]pipeline.Script, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		s := pipeline.Script{ID: r.str(), Source: r.str()}
		s.Meta.Author = r.str()
		s.Meta.Dataset = r.str()
		s.Meta.Task = r.str()
		s.Meta.Votes = int(r.varint())
		s.Meta.Score = r.f64()
		scripts = append(scripts, s)
	}
	return scripts
}
