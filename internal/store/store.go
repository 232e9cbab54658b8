package store

import (
	"sort"
	"sync"

	"kglids/internal/rdf"
)

// EncodedQuad is a dictionary-encoded quad. G is 0 for the default graph.
type EncodedQuad struct {
	S, P, O, G TermID
}

// Store is an in-memory RDF-star quad store. Triples are dictionary-encoded
// and indexed by SPO, POS, and OSP orderings, each partitioned by named
// graph, matching the built-in index behaviour of RDF engines the paper's
// SPARQL queries rely on (Section 6.1.2).
//
// RDF-star edge annotations (e.g. similarity certainty scores) are stored as
// ordinary triples whose subject is a quoted-triple term; AddAnnotated is a
// convenience for the common pattern.
type Store struct {
	mu   sync.RWMutex
	dict *Dictionary

	// spo[g][s][p] -> sorted []o, and so on. Graph 0 indexes the union of
	// all graphs for cross-graph pattern matching.
	spo, pos, osp index

	// graphsOf records, for every (s,p,o) in the union index, the set of
	// graphs containing it, as a small unordered slice — almost every
	// triple lives in exactly one graph, and a pointer-free slice is far
	// cheaper to allocate and GC-scan than a per-triple map (it is the
	// dominant allocation of a bulk load). Keys have G == 0.
	graphsOf map[EncodedQuad][]TermID

	count  int // total quads (union, deduplicated per graph)
	graphs map[TermID]int

	// gen is bumped on every successful mutation; readers key caches on it
	// so live ingestion invalidates them naturally.
	gen uint64
	// pstat holds per-predicate cardinality statistics over the union
	// index, maintained incrementally on Add/Remove (see stats.go). The
	// SPARQL planner orders joins from these real cardinalities.
	pstat map[TermID]*PredicateStats

	// log, when enabled, holds the mutation records the platform appends
	// (see changelog.go). No store write touches it: a record is a whole
	// mutation, which the store never sees.
	log *Changelog
}

// unionGraph is the pseudo-graph ID under which the union of all named
// graphs (plus the default graph) is indexed.
const unionGraph TermID = 0

// UnionGraph is the exported pseudo-graph ID for the union of all graphs
// (equivalently, the default graph for encoded matching). Pass it as the
// graph argument of MatchIDs/CountIDs to match across all graphs.
const UnionGraph = unionGraph

// New returns an empty store.
func New() *Store {
	return &Store{
		dict:     NewDictionary(),
		spo:      index{},
		pos:      index{},
		osp:      index{},
		graphsOf: map[EncodedQuad][]TermID{},
		graphs:   map[TermID]int{},
		pstat:    map[TermID]*PredicateStats{},
	}
}

// Dict exposes the term dictionary (read-mostly; used by the SPARQL engine).
func (st *Store) Dict() *Dictionary { return st.dict }

// Add inserts a triple into the default graph.
func (st *Store) Add(t rdf.Triple) { st.AddQuad(rdf.Quad{Triple: t, Graph: rdf.DefaultGraph}) }

// AddToGraph inserts a triple into the named graph g.
func (st *Store) AddToGraph(t rdf.Triple, g rdf.Term) { st.AddQuad(rdf.Quad{Triple: t, Graph: g}) }

// AddQuad inserts a quad. Duplicate quads are ignored.
func (st *Store) AddQuad(q rdf.Quad) {
	// Terms are interned in AddBatch's order (graph first), so a quad
	// gets the same IDs whether it is added alone or in a batch.
	var e EncodedQuad
	if q.Graph.Value != "" {
		e.G = st.dict.Intern(q.Graph)
	}
	e.S, e.P, e.O = st.dict.Intern(q.Subject), st.dict.Intern(q.Predicate), st.dict.Intern(q.Object)
	st.mu.Lock()
	defer st.mu.Unlock()
	st.addEncoded(e)
}

// AddBatch inserts many quads under a single lock acquisition; the result
// (indexes, statistics, generation, dictionary IDs) is that of adding them
// one by one through AddQuad. A batch at least as large as the store it
// lands in goes through the bulk loader, whose whole-store fix-ups are then
// bounded by the batch; a smaller one is inserted quad by quad.
func (st *Store) AddBatch(quads []rdf.Quad) {
	enc := st.dict.internQuads(quads)
	st.mu.Lock()
	defer st.mu.Unlock()
	if len(enc) >= st.count {
		st.bulkLoad(enc)
		return
	}
	for _, e := range enc {
		st.addEncoded(e)
	}
}

// addEncoded inserts one encoded quad unless it is present. Caller holds
// st.mu.
func (st *Store) addEncoded(q EncodedQuad) {
	s, p, o, g := q.S, q.P, q.O, q.G
	key := EncodedQuad{S: s, P: p, O: o}
	set := st.graphsOf[key]
	if containsID(set, g) {
		return
	}
	// Any existing membership implies the triple is already in the union
	// index, so it is new there exactly when the membership set was empty.
	newToUnion := len(set) == 0
	if newToUnion {
		st.statAdd(s, p, o)
	}
	st.graphsOf[key] = append(set, g)
	st.count++
	st.graphs[g]++
	st.gen++

	// Index in the specific graph and, if it is a named graph, also in the
	// union pseudo-graph; triples added straight to the default graph are
	// indexed once (g == unionGraph already).
	insertIdx(st.spo, g, s, p, o)
	insertIdx(st.pos, g, p, o, s)
	insertIdx(st.osp, g, o, s, p)
	if g != unionGraph && newToUnion {
		insertIdx(st.spo, unionGraph, s, p, o)
		insertIdx(st.pos, unionGraph, p, o, s)
		insertIdx(st.osp, unionGraph, o, s, p)
	}
}

func containsID(s []TermID, v TermID) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

func insertSorted(s []TermID, v TermID) []TermID {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= v })
	if i < len(s) && s[i] == v {
		return s
	}
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

// AddAnnotated inserts t into graph g and attaches an RDF-star annotation
// << t >> pred value, following the paper's use of RDF-star to annotate
// similarity edges with certainty scores.
func (st *Store) AddAnnotated(t rdf.Triple, g rdf.Term, pred, value rdf.Term) {
	st.AddToGraph(t, g)
	st.AddToGraph(rdf.T(rdf.QuotedTriple(t), pred, value), g)
}

// Annotation returns the annotation value attached to triple t via pred,
// if any.
func (st *Store) Annotation(t rdf.Triple, pred rdf.Term) (rdf.Term, bool) {
	res := st.Match(rdf.QuotedTriple(t), pred, rdf.Term{}, rdf.DefaultGraph)
	if len(res) == 0 {
		return rdf.Term{}, false
	}
	return res[0].Object, true
}

// Len returns the number of stored quads.
func (st *Store) Len() int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.count
}

// GraphLen returns the number of triples in a named graph.
func (st *Store) GraphLen(g rdf.Term) int {
	id, ok := st.dict.Lookup(g)
	if !ok {
		return 0
	}
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.graphs[id]
}

// GraphCount returns the number of named graphs (the union pseudo-graph
// excluded) without decoding their terms.
func (st *Store) GraphCount() int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	n := len(st.graphs)
	if _, ok := st.graphs[unionGraph]; ok {
		n--
	}
	return n
}

// NodeCount returns the number of distinct subjects and objects across all
// quads (the "unique nodes" statistic of Table 3): the union index's
// subject keys, plus its object keys that are not among them. removeIdx
// prunes emptied levels, so the keys are exact.
func (st *Store) NodeCount() int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	subjects := st.spo[unionGraph]
	n := len(subjects)
	for o := range st.osp[unionGraph] {
		if _, ok := subjects[o]; !ok {
			n++
		}
	}
	return n
}

// PredicateCount returns the number of distinct predicates (the "unique
// edges" statistic of Table 3): statRemove drops a predicate's stats with
// its last triple, and the bulk loader adds stats only for predicates that
// have triples.
func (st *Store) PredicateCount() int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return len(st.pstat)
}

// EncodedQuads returns every (s, p, o, g) combination in the store,
// ordered by g, then s, p and o. Quads in the default graph have G == 0.
// Replaying them through AddEncodedBatch on a store whose dictionary
// interned the same terms in the same ID order reproduces the store
// exactly.
func (st *Store) EncodedQuads() []EncodedQuad {
	st.mu.RLock()
	keys := make([]indexKey, 0, st.count)
	var maxID TermID
	for q, gs := range st.graphsOf {
		for _, g := range gs {
			keys = append(keys, indexKey{g, q.S, q.P, q.O})
			maxID = max(maxID, q.S, q.P, q.O, g)
		}
	}
	st.mu.RUnlock()
	keys = sortKeys(keys, maxID)
	quads := make([]EncodedQuad, len(keys))
	for i, k := range keys {
		quads[i] = EncodedQuad{G: k[0], S: k[1], P: k[2], O: k[3]}
	}
	return quads
}

// AddEncodedBatch inserts already-encoded quads under one lock acquisition
// through the bulk loader. Term IDs must have been interned in this store's
// dictionary; it is the snapshot-restore path, which skips the dictionary
// altogether. The result is identical to adding each quad through AddQuad.
func (st *Store) AddEncodedBatch(quads []EncodedQuad) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.bulkLoad(quads)
}

// bulkLoad is the store's one bulk loader: it inserts a batch by sorting it
// once per index ordering instead of probing three nested maps per quad.
// Beyond the batch it only re-makes
// maps that the batch at least doubles, so its cost is bounded by the batch
// whenever that is not small next to the store. Caller holds st.mu.
func (st *Store) bulkLoad(quads []EncodedQuad) {
	// The three orderings and the membership sets share no state, so each
	// is built by one goroutine outright with no further synchronization;
	// all join before the store lock is released. The per-predicate
	// statistics fall out of the union graph's posting lists as they are
	// made: a new (s, p) list is a new subject of p, a new (p, o) list a new
	// object.
	var wg sync.WaitGroup
	build := func(idx index, perm func(EncodedQuad) (a, b, c TermID), visit func(a, b TermID, added int, fresh bool)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			idx.load(quads, perm, visit)
		}()
	}
	bySubject, byObject := map[TermID]PredicateStats{}, map[TermID]PredicateStats{}
	build(st.spo, func(q EncodedQuad) (TermID, TermID, TermID) { return q.S, q.P, q.O },
		func(_, p TermID, _ int, fresh bool) {
			if fresh {
				d := bySubject[p]
				d.Subjects++
				bySubject[p] = d
			}
		})
	build(st.pos, func(q EncodedQuad) (TermID, TermID, TermID) { return q.P, q.O, q.S },
		func(p, _ TermID, added int, fresh bool) {
			d := byObject[p]
			d.Triples += added
			if fresh {
				d.Objects++
			}
			byObject[p] = d
		})
	build(st.osp, func(q EncodedQuad) (TermID, TermID, TermID) { return q.O, q.S, q.P }, nil)

	// Meanwhile, here: the membership sets, which also say which quads are
	// new. They are carved cap-clipped out of one array, so a later append
	// to one of them reallocates it and cannot touch its neighbour.
	if len(st.graphsOf) <= len(quads) {
		st.graphsOf = grown(st.graphsOf, len(quads))
	}
	members := make([]TermID, len(quads))
	accepted := 0
	for i, q := range quads {
		key := EncodedQuad{S: q.S, P: q.P, O: q.O}
		set := st.graphsOf[key]
		if containsID(set, q.G) {
			continue
		}
		if len(set) == 0 {
			members[i] = q.G
			st.graphsOf[key] = members[i : i+1 : i+1]
		} else {
			st.graphsOf[key] = append(set, q.G)
		}
		st.graphs[q.G]++
		accepted++
	}
	st.count += accepted
	st.gen += uint64(accepted)

	wg.Wait()
	st.statMerge(bySubject)
	st.statMerge(byObject)
}

// index is one ordering of the store: graph -> a -> b -> sorted []c (spo
// holds g -> s -> p -> objects, and so on).
type index map[TermID]map[TermID]map[TermID][]TermID

// indexKey is one entry of an ordering: g, a, b, c.
type indexKey [4]TermID

// sortKeys orders keys by g, then a, b and c, and returns them (in keys or
// in a second array of the same size); no ID in them exceeds maxID. IDs
// are dense, so this is an LSD radix sort with a whole ID as the digit: one
// stable counting pass per field, none for a field that holds a single
// value.
func sortKeys(keys []indexKey, maxID TermID) []indexKey {
	if len(keys) == 0 {
		return keys
	}
	tmp := make([]indexKey, len(keys))
	starts := make([]uint32, int(maxID)+2)
	for f := len(indexKey{}) - 1; f >= 0; f-- {
		clear(starts)
		for i := range keys {
			starts[keys[i][f]+1]++
		}
		if int(starts[keys[0][f]+1]) == len(keys) {
			continue
		}
		for id := 1; id < len(starts); id++ {
			starts[id] += starts[id-1]
		}
		for i := range keys {
			at := &starts[keys[i][f]]
			tmp[*at] = keys[i]
			*at++
		}
		keys, tmp = tmp, keys
	}
	return keys
}

// load merges a batch into the ordering: every quad in the union graph
// and, if it has one, in its named graph, with perm picking the ordering's
// a, b and c out of a quad. After one sort every posting list is a run of
// consecutive keys. The c values of each run, duplicates dropped, are
// written to one backing array and the list is a cap-clipped slice of it
// (so a later insertSorted on one list reallocates rather than overwriting
// the next), merged with the list already there if there is one; every map
// is made, or re-made, at the size its run length says it will reach.
// visit, if not nil, is told of every posting list that grew in the union
// graph: its a and b, how many entries it gained and whether it is new.
func (idx index) load(quads []EncodedQuad, perm func(EncodedQuad) (a, b, c TermID), visit func(a, b TermID, added int, fresh bool)) {
	n := len(quads)
	for _, q := range quads {
		if q.G != unionGraph {
			n++
		}
	}
	keys := make([]indexKey, 0, n)
	var maxID TermID
	for _, q := range quads {
		a, b, c := perm(q)
		maxID = max(maxID, a, b, c, q.G)
		keys = append(keys, indexKey{unionGraph, a, b, c})
		if q.G != unionGraph {
			keys = append(keys, indexKey{q.G, a, b, c})
		}
	}
	keys = sortKeys(keys, maxID)

	postings := make([]TermID, 0, len(keys))
	for i := 0; i < len(keys); {
		g := keys[i][0]
		gEnd, as := i+1, 1
		for ; gEnd < len(keys) && keys[gEnd][0] == g; gEnd++ {
			if keys[gEnd][1] != keys[gEnd-1][1] {
				as++
			}
		}
		l1 := idx[g]
		if len(l1) <= as {
			l1 = grown(l1, as)
			idx[g] = l1
		}
		for i < gEnd {
			a := keys[i][1]
			aEnd, bs := i+1, 1
			for ; aEnd < gEnd && keys[aEnd][1] == a; aEnd++ {
				if keys[aEnd][2] != keys[aEnd-1][2] {
					bs++
				}
			}
			l2 := l1[a]
			if len(l2) <= bs {
				l2 = grown(l2, bs)
				l1[a] = l2
			}
			for i < aEnd {
				b, from := keys[i][2], len(postings)
				for ; i < aEnd && keys[i][2] == b; i++ {
					if c := keys[i][3]; len(postings) == from || c != postings[len(postings)-1] {
						postings = append(postings, c)
					}
				}
				old := l2[b]
				list := mergeSorted(old, postings[from:len(postings):len(postings)])
				if len(list) == len(old) {
					continue
				}
				l2[b] = list
				if visit != nil && g == unionGraph {
					visit(a, b, len(list)-len(old), len(old) == 0)
				}
			}
		}
	}
}

// grown returns a copy of m (nil included) made at the size it reaches
// after extra more entries. The loader calls it for maps that are about to
// at least double, so a load costs one allocation per map instead of a
// series of incremental growths, and the copying is bounded by the entries
// being added.
func grown[K comparable, V any](m map[K]V, extra int) map[K]V {
	out := make(map[K]V, len(m)+extra)
	for k, v := range m {
		out[k] = v
	}
	return out
}

// mergeSorted returns the union of two sorted posting lists: add itself
// when old is empty, old itself when add brings nothing new, and a new list
// otherwise.
func mergeSorted(old, add []TermID) []TermID {
	if len(old) == 0 {
		return add
	}
	out := make([]TermID, 0, len(old)+len(add))
	i, j := 0, 0
	for i < len(old) && j < len(add) {
		switch {
		case old[i] < add[j]:
			out = append(out, old[i])
			i++
		case old[i] > add[j]:
			out = append(out, add[j])
			j++
		default:
			out = append(out, old[i])
			i, j = i+1, j+1
		}
	}
	out = append(append(out, old[i:]...), add[j:]...)
	if len(out) == len(old) {
		return old
	}
	return out
}

// RemoveQuad deletes a quad from its graph. The triple leaves the union
// index only when no graph (default or named) contains it any more; the
// dictionary keeps its interned terms, which only costs memory, never
// correctness. Returns whether the quad was present.
func (st *Store) RemoveQuad(q rdf.Quad) bool {
	ids, ok := st.lookupQuad(q)
	if !ok {
		return false
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.removeEncoded(ids)
}

// RemoveBatch deletes many quads under a single lock acquisition and
// returns how many were actually present.
func (st *Store) RemoveBatch(quads []rdf.Quad) int {
	enc := make([]EncodedQuad, 0, len(quads))
	for _, q := range quads {
		if ids, ok := st.lookupQuad(q); ok {
			enc = append(enc, ids)
		}
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	removed := 0
	for _, e := range enc {
		if st.removeEncoded(e) {
			removed++
		}
	}
	return removed
}

// lookupQuad resolves a quad's terms without interning new ones. ok is
// false when any term (or the graph) is not in the dictionary, which means
// the quad cannot be in the store.
func (st *Store) lookupQuad(q rdf.Quad) (EncodedQuad, bool) {
	var out EncodedQuad
	var ok bool
	if out.S, ok = st.dict.Lookup(q.Subject); !ok {
		return out, false
	}
	if out.P, ok = st.dict.Lookup(q.Predicate); !ok {
		return out, false
	}
	if out.O, ok = st.dict.Lookup(q.Object); !ok {
		return out, false
	}
	if q.Graph.Value != "" {
		if out.G, ok = st.dict.Lookup(q.Graph); !ok {
			return out, false
		}
	}
	return out, true
}

// removeEncoded is the mutation core of quad removal. Caller holds st.mu.
func (st *Store) removeEncoded(q EncodedQuad) bool {
	s, p, o, g := q.S, q.P, q.O, q.G
	key := EncodedQuad{S: s, P: p, O: o}
	set := st.graphsOf[key]
	if !containsID(set, g) {
		return false
	}
	set = removeID(set, g)
	if len(set) == 0 {
		delete(st.graphsOf, key)
	} else {
		st.graphsOf[key] = set
	}
	st.count--
	st.gen++
	if st.graphs[g]--; st.graphs[g] <= 0 {
		delete(st.graphs, g)
	}
	if g != unionGraph {
		removeIdx(st.spo, g, s, p, o)
		removeIdx(st.pos, g, p, o, s)
		removeIdx(st.osp, g, o, s, p)
	}
	// The union pseudo-graph holds the triple once for all its graphs; it
	// goes away only with the last membership.
	if len(set) == 0 {
		removeIdx(st.spo, unionGraph, s, p, o)
		removeIdx(st.pos, unionGraph, p, o, s)
		removeIdx(st.osp, unionGraph, o, s, p)
		st.statRemove(s, p, o)
	}
	return true
}

// RemoveGraph drops an entire named graph: every triple loses its
// membership in g, and triples contained in no other graph disappear from
// the union index too (triples shared with other graphs — e.g. dataset
// metadata shared by sibling table graphs — survive there). Returns the
// number of quads removed. Removing the default graph is not supported;
// passing it (or an unknown graph) removes nothing.
func (st *Store) RemoveGraph(g rdf.Term) int {
	if g.Value == "" {
		return 0
	}
	gid, ok := st.dict.Lookup(g)
	if !ok {
		return 0
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	// Collect first: removeEncoded mutates the very index being walked.
	var triples []EncodedQuad
	for s, l2 := range st.spo[gid] {
		for p, objs := range l2 {
			for _, o := range objs {
				triples = append(triples, EncodedQuad{S: s, P: p, O: o, G: gid})
			}
		}
	}
	removed := 0
	for _, t := range triples {
		if st.removeEncoded(t) {
			removed++
		}
	}
	return removed
}

func removeID(s []TermID, v TermID) []TermID {
	for i, x := range s {
		if x == v {
			s[i] = s[len(s)-1]
			return s[:len(s)-1]
		}
	}
	return s
}

// removeSorted deletes v from a sorted posting list, preserving order.
func removeSorted(s []TermID, v TermID) []TermID {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= v })
	if i >= len(s) || s[i] != v {
		return s
	}
	return append(s[:i], s[i+1:]...)
}

// removeIdx deletes (a, b, c) from one index ordering of graph g, pruning
// emptied levels so NodeCount and full scans never see ghost entries.
func removeIdx(idx index, g, a, b, c TermID) {
	l1 := idx[g]
	if l1 == nil {
		return
	}
	l2 := l1[a]
	if l2 == nil {
		return
	}
	vals := removeSorted(l2[b], c)
	if len(vals) == 0 {
		delete(l2, b)
	} else {
		l2[b] = vals
	}
	if len(l2) == 0 {
		delete(l1, a)
	}
	if len(l1) == 0 {
		delete(idx, g)
	}
}

func insertIdx(idx index, g, a, b, c TermID) {
	l1 := idx[g]
	if l1 == nil {
		l1 = map[TermID]map[TermID][]TermID{}
		idx[g] = l1
	}
	l2 := l1[a]
	if l2 == nil {
		l2 = map[TermID][]TermID{}
		l1[a] = l2
	}
	l2[b] = insertSorted(l2[b], c)
}

// ApproxBytes estimates the serialized size of the store in bytes, counting
// each quad's term strings once per occurrence (an N-Quads-like measure used
// for the "Size" row of Table 3).
func (st *Store) ApproxBytes() int64 {
	st.mu.RLock()
	defer st.mu.RUnlock()
	var total int64
	for q, gs := range st.graphsOf {
		line := int64(len(st.dict.Term(q.S).String()) + len(st.dict.Term(q.P).String()) + len(st.dict.Term(q.O).String()) + 6)
		total += line * int64(len(gs))
	}
	return total
}
