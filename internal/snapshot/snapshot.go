// Package snapshot persists a bootstrapped KGLiDS platform to a single
// versioned binary file and reconstructs a query-ready platform from it in
// milliseconds, skipping the profile → schema-build pipeline entirely.
//
// A snapshot captures the four stores the discovery interfaces query: the
// dictionary-encoded triple store (terms + quads), the per-column profiles
// with their CoLR embeddings, the table embeddings with their index
// insertion order, and the HNSW approximate index graph — plus the raw
// pipeline scripts, which are re-abstracted on load (deterministic and
// cheap; their triples are already in the store, so re-linking deduplicates
// to a no-op). The SPARQL result cache is not saved: a restored platform
// starts with a cold cache.
//
// A save pauses live ingestion only while it captures the platform's
// state, not while it encodes it: the sections are encoded afterwards, in
// parallel, and written without assembling the payload in memory.
//
// # File format (version 3)
//
//	offset  size  field
//	0       4     magic "KGLS"
//	4       2     format version, little-endian uint16
//	6       4     CRC-32 (IEEE) of the payload
//	10      8     payload length, little-endian uint64
//	18      ...   payload: sequence of sections
//
// The writer chains the CRC over the framed sections in file order, so the
// header's CRC and length are those of the whole payload, which is never
// held in one buffer.
//
// Each section is a tag byte, an unsigned-varint byte length, and the
// section payload. Unknown tags are skipped, so old readers tolerate new
// optional sections. Integers are unsigned varints unless stated, floats
// are IEEE-754 little-endian, strings and vectors are length-prefixed.
//
//	tag  section
//	1    DICT    interned RDF terms in ID order: a kind byte, then the value
//	             (and datatype, for a literal); a quoted triple is three
//	             back-references, the IDs of its earlier components
//	2    QUADS   encoded quads: s, p, o term IDs + graph ID (0 = default)
//	3    PROF    column profiles: ids, fine-grained type, stats, embedding
//	4    TEMB    table embeddings: "dataset/table" → unnormalized vector
//	5    TORD    table-index insertion order (tie-break preservation)
//	6    EDGE    materialized similarity edges: A, B, kind, score
//	7    ANN     HNSW graph: parameters, entry, nodes with per-level links
//	8    SCRIPT  pipeline scripts: id, source, metadata
//	9    CONF    bootstrap config: α/β/θ thresholds, label-skip flag
//	10   retired (QCACHE, a SPARQL result cache); skipped like any unknown tag
//	11   REPL    replication: store generation + changelog position
//
// Truncated files, checksum mismatches, unknown versions, and structurally
// invalid sections all fail loading with a descriptive error; a snapshot
// never loads partially.
//
// Version history: version 1 stored table/column metadata in the default
// graph; version 2 stores it in per-table named graphs (the unit of live
// table removal) and adds the CONF section; version 3 writes a quoted
// triple in DICT as back-references to its components instead of three
// full terms. Files of any other version are rejected with ErrVersion:
// version 1 would load into a platform whose incremental mutation path
// would silently fail to retract its metadata, and no reader of version 2
// is kept — re-bootstrap to migrate.
package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"kglids/internal/core"
	"kglids/internal/embed"
	"kglids/internal/pipeline"
	"kglids/internal/profiler"
	"kglids/internal/rdf"
	"kglids/internal/schema"
	"kglids/internal/store"
	"kglids/internal/vectorindex"
)

// Version is the current snapshot format version.
const Version = 3

var magic = [4]byte{'K', 'G', 'L', 'S'}

const headerLen = 4 + 2 + 4 + 8

// Section tags.
const (
	secDict    = 1
	secQuads   = 2
	secProf    = 3
	secTEmb    = 4
	secTOrder  = 5
	secEdges   = 6
	secANN     = 7
	secScripts = 8
	secConfig  = 9
	// Tag 10 is retired: it held the SPARQL result cache, which is no
	// longer saved. The reader skips it like any unknown tag.

	// secRepl persists the store mutation generation and the changelog
	// position at save time, anchoring followers booted from this snapshot
	// to the primary's mutation stream. Older readers skip it.
	secRepl = 11
)

// Errors distinguishing the failure modes of Read.
var (
	// ErrBadMagic marks a file that is not a KGLiDS snapshot.
	ErrBadMagic = errors.New("snapshot: bad magic (not a KGLiDS snapshot)")
	// ErrVersion marks a snapshot written by an unsupported format version.
	ErrVersion = errors.New("snapshot: unsupported format version")
	// ErrChecksum marks a payload whose CRC does not match the header.
	ErrChecksum = errors.New("snapshot: checksum mismatch (corrupt payload)")
	// ErrTruncated marks a file shorter than its header promises.
	ErrTruncated = errors.New("snapshot: truncated file")
)

// Write serializes the platform to w in snapshot format in three steps.
// The capture copies what the sections are encoded from while live
// ingestion is paused (via the platform's ingest lock), so a snapshot
// taken on a serving platform is always job-consistent: it never captures
// a half-applied mutation. The encode runs after the lock is released,
// one goroutine per section, each into a buffer of its exact size. The
// write chains the header's CRC over the framed sections and sends the
// header and the sections to w as they are, without assembling a payload.
func Write(w io.Writer, p *core.Platform) (err error) {
	start := time.Now()
	defer func() {
		outcome := "ok"
		if err != nil {
			outcome = "error"
		}
		mSnapshotSeconds.WithLabelValues("save", outcome).Observe(time.Since(start).Seconds())
	}()
	st := capture(p)
	secs := st.sections()
	frames := make([][]byte, len(secs))
	errs := make([]error, len(secs))
	done := make([]chan struct{}, len(secs))
	for i := range secs {
		done[i] = make(chan struct{})
		go func() {
			defer close(done[i])
			frames[i], errs[i] = secs[i].frame()
		}()
	}
	// The CRC follows the sections in file order, each as soon as it is
	// encoded, while the later ones still are. Every encoder is waited
	// for, a failed one too.
	var crc uint32
	size := 0
	for i := range secs {
		<-done[i]
		if err == nil {
			err = errs[i]
		}
		crc = crc32.Update(crc, crc32.IEEETable, frames[i])
		size += len(frames[i])
	}
	if err != nil {
		return err
	}
	mSnapshotBytes.Set(int64(size))
	var hdr [headerLen]byte
	copy(hdr[0:4], magic[:])
	binary.LittleEndian.PutUint16(hdr[4:6], Version)
	binary.LittleEndian.PutUint32(hdr[6:10], crc)
	binary.LittleEndian.PutUint64(hdr[10:18], uint64(size))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("snapshot: write header: %w", err)
	}
	for i, frame := range frames {
		if _, err := w.Write(frame); err != nil {
			return fmt.Errorf("snapshot: write payload: %w", err)
		}
		frames[i] = nil // written: the collector may take it
	}
	// The snapshot now covers everything through logPos: followers below it
	// re-seed from this (or a newer) snapshot, so the changelog can drop
	// records at or below it.
	if cl := p.Store.Changelog(); cl != nil {
		cl.CompactTo(st.logPos)
	}
	return nil
}

// state is what a save reads of the platform. Each part is a copy, or is
// never mutated once the platform publishes it, so the sections are
// encoded from it without a lock.
type state struct {
	pages      [][]rdf.Term // the dictionary's, shared
	quoted     []store.TripleIDs
	quads      []store.EncodedQuad
	profiles   []*profiler.ColumnProfile
	edges      []schema.Edge
	tembs      map[string]embed.Vector
	order      []string
	ann        *vectorindex.Graph
	cfg        core.Config
	scripts    []pipeline.Script
	generation uint64
	logPos     uint64
}

// capture reads the platform's state under the ingest lock, the only time
// a save pauses ingestion; kglids_snapshot_seconds{op="capture"} records
// how long that is. The quads, the longest part, are collected on a
// goroutine of their own while the rest is read.
func capture(p *core.Platform) *state {
	start := time.Now()
	p.IngestLock()
	defer p.IngestUnlock() // release even if a read panics
	quads := make(chan []store.EncodedQuad, 1)
	go func() { quads <- p.Store.EncodedQuads() }()
	st := &state{
		profiles: p.ProfilesView(),
		edges:    p.EdgesView(),
		tembs:    p.TableEmbeddingsView(),
		order:    p.TableIndex.IDs(),
		cfg:      p.Config(),
		scripts:  p.Scripts(),
		// Generation and changelog position are read once, under the
		// ingest lock, so the REPL section is consistent with the quads
		// and the post-write compaction floor matches what was persisted.
		generation: p.Store.Generation(),
		logPos:     p.ChangelogPosition(),
	}
	st.pages, st.quoted = p.Store.Dict().Pages()
	if p.TableANN != nil {
		g := p.TableANN.Export()
		st.ann = &g
	}
	st.quads = <-quads
	mSnapshotSeconds.WithLabelValues("capture", "ok").Observe(time.Since(start).Seconds())
	return st
}

// section is one tagged section of the payload: the exact length of its
// body and the encoder that writes it.
type section struct {
	tag    byte
	size   func() int
	encode func(w *writer)
}

// sections lists the payload's sections in file order.
func (st *state) sections() []section {
	secs := []section{
		{secDict, func() int { return dictSize(st.pages, st.quoted) },
			func(w *writer) { w.dict(st.pages, st.quoted) }},
		{secQuads, func() int { return quadsSize(st.quads) },
			func(w *writer) { encodeQuads(w, st.quads) }},
		{secProf, func() int { return profilesSize(st.profiles) },
			func(w *writer) { encodeProfiles(w, st.profiles) }},
		{secTEmb, func() int { return tableEmbeddingsSize(st.tembs) },
			func(w *writer) { encodeTableEmbeddings(w, st.tembs) }},
		{secTOrder, func() int { return stringsSize(st.order) },
			func(w *writer) { encodeStrings(w, st.order) }},
		{secEdges, func() int { return edgesSize(st.edges) },
			func(w *writer) { encodeEdges(w, st.edges) }},
	}
	if st.ann != nil {
		secs = append(secs, section{secANN, func() int { return annSize(st.ann) },
			func(w *writer) { encodeANN(w, st.ann) }})
	}
	return append(secs,
		section{secConfig, func() int { return configSize },
			func(w *writer) { encodeConfig(w, st.cfg) }},
		section{secScripts, func() int { return scriptsSize(st.scripts) },
			func(w *writer) { encodeScripts(w, st.scripts) }},
		section{secRepl, func() int { return uvarintSize(st.generation) + uvarintSize(st.logPos) },
			func(w *writer) {
				w.uvarint(st.generation)
				w.uvarint(st.logPos)
			}},
	)
}

// frame encodes the section with its tag and length into one buffer of
// exactly the framed size. A body that does not come out at its computed
// size fails the save rather than write a length that does not hold.
func (s section) frame() ([]byte, error) {
	n := s.size()
	head := 1 + uvarintSize(uint64(n))
	w := writer{buf: make([]byte, 0, head+n)}
	w.u8(s.tag)
	w.uvarint(uint64(n))
	s.encode(&w)
	if got := len(w.buf) - head; got != n {
		return nil, fmt.Errorf("snapshot: section %d encoded to %d bytes, sized at %d", s.tag, got, n)
	}
	return w.buf, nil
}

// encodeQuads writes the quads in the (G, S, P, O) order
// Store.EncodedQuads returns them in, so identical platforms produce
// byte-identical snapshots.
func encodeQuads(w *writer, quads []store.EncodedQuad) {
	w.uint(len(quads))
	for _, q := range quads {
		w.uvarint(uint64(q.S))
		w.uvarint(uint64(q.P))
		w.uvarint(uint64(q.O))
		w.uvarint(uint64(q.G))
	}
}

// quadsSize is the length of encodeQuads's output.
func quadsSize(quads []store.EncodedQuad) int {
	n := uvarintSize(uint64(len(quads)))
	for _, q := range quads {
		n += uvarintSize(uint64(q.S)) + uvarintSize(uint64(q.P)) + uvarintSize(uint64(q.O)) + uvarintSize(uint64(q.G))
	}
	return n
}

// encodeStrings writes a count and the strings, as the TORD section holds
// the table order.
func encodeStrings(w *writer, ss []string) {
	w.uint(len(ss))
	for _, s := range ss {
		w.str(s)
	}
}

// stringsSize is the length of encodeStrings's output.
func stringsSize(ss []string) int {
	n := uvarintSize(uint64(len(ss)))
	for _, s := range ss {
		n += strSize(s)
	}
	return n
}

func encodeANN(w *writer, g *vectorindex.Graph) {
	w.uint(g.M)
	w.uint(g.EfConstruction)
	w.uint(g.EfSearch)
	w.varint(int64(g.Entry))
	w.uint(g.MaxLevel)
	w.uint(len(g.Nodes))
	for _, n := range g.Nodes {
		w.str(n.ID)
		w.vec(n.Vec)
		w.uint(len(n.Links))
		for _, level := range n.Links {
			w.uint(len(level))
			for _, nb := range level {
				w.uvarint(uint64(nb))
			}
		}
	}
}

// annSize is the length of encodeANN's output.
func annSize(g *vectorindex.Graph) int {
	n := uvarintSize(uint64(g.M)) + uvarintSize(uint64(g.EfConstruction)) + uvarintSize(uint64(g.EfSearch)) +
		varintSize(int64(g.Entry)) + uvarintSize(uint64(g.MaxLevel)) + uvarintSize(uint64(len(g.Nodes)))
	for _, node := range g.Nodes {
		n += strSize(node.ID) + vecSize(node.Vec) + uvarintSize(uint64(len(node.Links)))
		for _, level := range node.Links {
			n += uvarintSize(uint64(len(level)))
			for _, nb := range level {
				n += uvarintSize(uint64(nb))
			}
		}
	}
	return n
}

// configSize is the length of encodeConfig's output: three floats and a
// flag byte.
const configSize = 3*8 + 1

func encodeConfig(w *writer, cfg core.Config) {
	w.f64(cfg.Alpha)
	w.f64(cfg.Beta)
	w.f64(cfg.Theta)
	skip := byte(0)
	if cfg.SkipLabelSimilarity {
		skip = 1
	}
	w.u8(skip)
}

// Save writes the platform snapshot to path atomically (temp file + rename),
// so a crash mid-save never leaves a truncated snapshot in place.
func Save(path string, p *core.Platform) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".kglids-snapshot-*")
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	defer os.Remove(tmp.Name())
	if err := Write(tmp, p); err != nil {
		tmp.Close()
		return err
	}
	// Flush file data before the rename: on a crash the rename must not
	// reach disk ahead of the payload, or it would replace a good snapshot
	// with a truncated one.
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	return nil
}

// Read deserializes a snapshot and reassembles a query-ready platform.
func Read(r io.Reader) (p *core.Platform, err error) {
	start := time.Now()
	defer func() {
		outcome := "ok"
		if err != nil {
			outcome = "error"
		}
		mSnapshotSeconds.WithLabelValues("load", outcome).Observe(time.Since(start).Seconds())
	}()
	var hdr [headerLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: header: %v", ErrTruncated, err)
	}
	if !bytes.Equal(hdr[0:4], magic[:]) {
		return nil, ErrBadMagic
	}
	if v := binary.LittleEndian.Uint16(hdr[4:6]); v != Version {
		return nil, fmt.Errorf("%w: got %d, support %d", ErrVersion, v, Version)
	}
	wantCRC := binary.LittleEndian.Uint32(hdr[6:10])
	plen := binary.LittleEndian.Uint64(hdr[10:18])
	const maxPayload = 1 << 40
	if plen > maxPayload {
		return nil, fmt.Errorf("snapshot: implausible payload length %d", plen)
	}
	payload := make([]byte, plen)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("%w: payload: %v", ErrTruncated, err)
	}
	mSnapshotBytes.Set(int64(len(payload)))
	if crc32.ChecksumIEEE(payload) != wantCRC {
		return nil, ErrChecksum
	}
	st, err := decodePayload(payload)
	if err != nil {
		return nil, err
	}
	return core.Restore(*st)
}

// Load reads a snapshot file and reassembles a query-ready platform.
func Load(path string) (*core.Platform, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	defer f.Close()
	return Read(f)
}

// Smallest encodings of the elements the sections count, so that a count
// makes a decoder allocate in proportion to the bytes that carry it: a
// term is a kind byte and a length, a quad four IDs, an HNSW node a string,
// a vector length and a level count, a script five strings, a vote count
// and a float. Profiles, edges and table embeddings are encoded as in a
// platform delta.
const (
	minTermBytes   = 2
	minIDQuadBytes = 4
	minNodeBytes   = 3
	minScriptBytes = 5 + 1 + 8
)

func decodePayload(payload []byte) (*core.RestoredState, error) {
	// Split the payload into raw sections first (cheap), then decode the
	// sections in parallel — they are independent until final assembly,
	// and the profile/embedding float vectors dominate decode time.
	type rawSection struct {
		tag  byte
		body []byte
	}
	top := &reader{b: payload}
	var sections []rawSection
	for top.err == nil && top.off < len(top.b) {
		tag := top.u8()
		length := top.uvarint()
		if top.err != nil {
			break
		}
		if length > uint64(len(top.b)-top.off) {
			top.fail("section %d length %d exceeds remaining %d bytes", tag, length, len(top.b)-top.off)
			break
		}
		sections = append(sections, rawSection{tag: tag, body: top.b[top.off : top.off+int(length)]})
		top.off += int(length)
	}
	if top.err != nil {
		return nil, top.err
	}

	st := &core.RestoredState{TableEmbeddings: map[string]embed.Vector{}}
	var (
		dictTerms  []rdf.Term
		dictQuoted []store.TripleIDs
		quads      []store.EncodedQuad
		annErr     error
	)
	sawDict, sawQuads := false, false

	var wg sync.WaitGroup
	errs := make([]error, len(sections))
	seenTags := map[byte]bool{}
	for i := range sections {
		sec := sections[i]
		var decode func(r *reader)
		switch sec.tag {
		case secDict:
			sawDict = true
			decode = func(r *reader) { dictTerms, dictQuoted = r.dict() }
		case secQuads:
			sawQuads = true
			decode = func(r *reader) {
				n := r.countOf(minIDQuadBytes)
				quads = make([]store.EncodedQuad, 0, n)
				for i := 0; i < n && r.err == nil; i++ {
					quads = append(quads, store.EncodedQuad{
						S: store.TermID(r.uvarint()),
						P: store.TermID(r.uvarint()),
						O: store.TermID(r.uvarint()),
						G: store.TermID(r.uvarint()),
					})
				}
			}
		case secProf:
			decode = func(r *reader) { st.Profiles = decodeProfiles(r) }
		case secTEmb:
			decode = func(r *reader) { st.TableEmbeddings = decodeTableEmbeddings(r) }
		case secTOrder:
			decode = func(r *reader) {
				n := r.count()
				st.TableOrder = make([]string, 0, n)
				for i := 0; i < n && r.err == nil; i++ {
					st.TableOrder = append(st.TableOrder, r.str())
				}
			}
		case secEdges:
			decode = func(r *reader) { st.Edges = decodeEdges(r) }
		case secANN:
			decode = func(r *reader) {
				g := vectorindex.Graph{
					M:              r.uint(),
					EfConstruction: r.uint(),
					EfSearch:       r.uint(),
					Entry:          int(r.varint()),
					MaxLevel:       r.uint(),
				}
				n := r.countOf(minNodeBytes)
				g.Nodes = make([]vectorindex.GraphNode, 0, n)
				for i := 0; i < n && r.err == nil; i++ {
					gn := vectorindex.GraphNode{ID: r.str(), Vec: r.vec()}
					levels := r.count()
					gn.Links = make([][]int, 0, levels)
					for l := 0; l < levels && r.err == nil; l++ {
						cnt := r.count()
						links := make([]int, 0, cnt)
						for c := 0; c < cnt && r.err == nil; c++ {
							links = append(links, int(r.uvarint()))
						}
						gn.Links = append(gn.Links, links)
					}
					g.Nodes = append(g.Nodes, gn)
				}
				if r.err == nil {
					st.TableANN, annErr = vectorindex.ImportHNSW(g)
				}
			}
		case secConfig:
			decode = func(r *reader) {
				var cfg core.Config
				cfg.Alpha = r.f64()
				cfg.Beta = r.f64()
				cfg.Theta = r.f64()
				cfg.SkipLabelSimilarity = r.u8() == 1
				if r.err == nil {
					st.Config = &cfg
				}
			}
		case secScripts:
			decode = func(r *reader) { st.Scripts = decodeScripts(r) }
		case secRepl:
			decode = func(r *reader) {
				st.Generation = r.uvarint()
				st.ChangelogPos = r.uvarint()
			}
		default:
			// A retired tag, or an optional section from a newer writer:
			// skip.
			continue
		}
		// Decoded tags must be unique: duplicate sections would hand the
		// same output variables to two decoder goroutines.
		if seenTags[sec.tag] {
			errs[i] = fmt.Errorf("snapshot: duplicate section tag %d", sec.tag)
			break
		}
		seenTags[sec.tag] = true
		wg.Add(1)
		go func(i int, body []byte, decode func(*reader)) {
			defer wg.Done()
			r := &reader{b: body}
			decode(r)
			errs[i] = r.err
		}(i, sec.body, decode)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if annErr != nil {
		return nil, annErr
	}
	if !sawDict || !sawQuads {
		return nil, fmt.Errorf("snapshot: missing required %s section",
			map[bool]string{true: "QUADS", false: "DICT"}[sawDict])
	}

	// Rebuild the store: bulk-loading terms in ID order reproduces the
	// saved dictionary, then the encoded quads replay directly.
	s := store.New()
	dictLen := store.TermID(len(dictTerms))
	if err := s.Dict().BulkLoad(dictTerms, dictQuoted); err != nil {
		return nil, err
	}
	for _, q := range quads {
		if q.S == 0 || q.S > dictLen || q.P == 0 || q.P > dictLen || q.O == 0 || q.O > dictLen || q.G > dictLen {
			return nil, fmt.Errorf("snapshot: quad references term ID outside dictionary of %d terms", dictLen)
		}
	}
	s.AddEncodedBatch(quads)
	st.Store = s
	return st, nil
}
