package core

import (
	"slices"
	"strings"
	"sync"

	"kglids/internal/discovery"
	"kglids/internal/profiler"
	"kglids/internal/schema"
	"kglids/internal/store"
)

// adjacency is the platform's only resident copy of the similarity edges,
// the by-column adjacency unionable and joinable search rank from (paper
// Section 3.3): every column, keyed by its store TermID, lists one
// discovery.Neighbor per similarity edge it takes part in. Keying by the
// store's IDs is what keeps rankings identical to a walk of the edge
// quads: a table's columns come out in the order of its hasColumn index.
//
// It starts empty with the platform and is changed only by apply and
// removeTableLocked, in their p.mu write sections; readers hold p.mu's
// read lock.
type adjacency struct {
	mu      *sync.RWMutex
	tables  map[store.TermID][]store.TermID // table → its columns, ascending
	columns map[store.TermID]*adjColumn
	// ids maps a column's profile ID to its TermID, the key an edge's
	// columns are resolved by.
	ids   map[string]store.TermID
	seq   uint64 // of the column linked last
	count int    // edges linked: Stats.SimilarityEdges
}

type adjColumn struct {
	id    string
	table store.TermID
	// seq follows Profiles order, in which columns are linked, so an edge's
	// A, the end that came first in Profiles, is its end with the lower
	// seq. An updated table keeps its columns' TermIDs but is linked anew.
	seq uint64
	// nbrs holds one list per kind, in edgeKinds order.
	nbrs [2][]discovery.Neighbor
}

// edgeKinds are the edge kinds in the order they sort.
var edgeKinds = [2]string{"ContentSimilarity", "LabelSimilarity"}

// newAdjacency returns an empty adjacency whose readers lock mu.
func newAdjacency(mu *sync.RWMutex) *adjacency {
	return &adjacency{mu: mu, tables: map[store.TermID][]store.TermID{}, columns: map[store.TermID]*adjColumn{}, ids: map[string]store.TermID{}}
}

// VisitColumns implements discovery.Adjacency.
func (s *adjacency) VisitColumns(table store.TermID, fn func(col store.TermID, label, content []discovery.Neighbor)) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, col := range s.tables[table] {
		c := s.columns[col]
		fn(col, c.nbrs[1], c.nbrs[0])
	}
}

// adjAddition is an addition with its new columns resolved to store
// TermIDs — the part that reads the dictionary, done before the write
// section that links it in.
type adjAddition struct {
	columns []adjColumnID
	// tables holds the complete, ascending column list of every table the
	// addition touches.
	tables map[store.TermID][]store.TermID
	edges  []schema.Edge
}

type adjColumnID struct {
	id         string
	col, table store.TermID
}

// encode resolves added profiles against st, which holds their quads. It
// reads s without p.mu, so its caller must hold ingestMu, which excludes
// every other writer, or own a platform not yet published. A column whose
// terms st does not know is left out, with its edges, as a walk of st
// would never reach them.
func (s *adjacency) encode(st *store.Store, profiles []*profiler.ColumnProfile, edges []schema.Edge) adjAddition {
	add := adjAddition{tables: map[store.TermID][]store.TermID{}, edges: edges}
	tableIDs := map[string]store.TermID{}
	for _, cp := range profiles {
		id := cp.ID()
		col, ok := st.EncodeTerm(schema.ColumnIRI(id))
		if !ok {
			continue
		}
		tid := cp.TableID()
		table, seen := tableIDs[tid]
		if !seen {
			if table, ok = st.EncodeTerm(schema.TableIRI(tid)); !ok {
				continue
			}
			tableIDs[tid] = table
			add.tables[table] = slices.Clone(s.tables[table])
		}
		add.columns = append(add.columns, adjColumnID{id, col, table})
		add.tables[table] = append(add.tables[table], col)
	}
	for table, cols := range add.tables {
		slices.Sort(cols)
		add.tables[table] = slices.Compact(cols)
	}
	return add
}

// add links an encoded addition in: new columns, their tables' column
// lists, and an entry at both ends of every edge of a known kind between
// known columns. Caller holds p.mu for writing, or owns a platform not yet
// published.
func (s *adjacency) add(a adjAddition) {
	for _, c := range a.columns {
		if s.columns[c.col] == nil {
			s.seq++
			s.columns[c.col] = &adjColumn{id: c.id, table: c.table, seq: s.seq}
			s.ids[c.id] = c.col
		}
	}
	for table, cols := range a.tables {
		s.tables[table] = cols
	}
	for _, e := range a.edges {
		ia, ib := s.ids[e.A], s.ids[e.B]
		ca, cb := s.columns[ia], s.columns[ib]
		k := slices.Index(edgeKinds[:], e.Kind)
		if ca == nil || cb == nil || k < 0 {
			continue
		}
		ca.nbrs[k] = append(ca.nbrs[k], discovery.Neighbor{Column: ib, Table: cb.table, Score: e.Score})
		cb.nbrs[k] = append(cb.nbrs[k], discovery.Neighbor{Column: ia, Table: ca.table, Score: e.Score})
		s.count++
	}
}

// removeTable drops a table's columns and, from the lists of the columns
// they had edges with, every entry pointing into the table. Caller holds
// p.mu for writing.
func (s *adjacency) removeTable(table store.TermID) {
	into := func(m discovery.Neighbor) bool { return m.Table == table }
	for _, col := range s.tables[table] {
		c := s.columns[col]
		s.count -= len(c.nbrs[0]) + len(c.nbrs[1])
		for k := range c.nbrs {
			for _, n := range c.nbrs[k] {
				far := s.columns[n.Column]
				far.nbrs[k] = slices.DeleteFunc(far.nbrs[k], into)
			}
		}
		delete(s.ids, c.id)
		delete(s.columns, col)
	}
	delete(s.tables, table)
}

// edges returns every edge in schema.SortEdges order without comparing
// their strings: the columns in ascending ID order, each followed by the
// edges it is the A end of, ordered by the B end's place in that order and
// then by kind. Caller holds p.mu for reading.
func (s *adjacency) edges() []schema.Edge {
	cols := make([]*adjColumn, 0, len(s.columns))
	var top store.TermID
	for col, c := range s.columns {
		cols, top = append(cols, c), max(top, col)
	}
	slices.SortFunc(cols, func(a, b *adjColumn) int { return strings.Compare(a.id, b.id) })
	// rank[col] is a column's place in cols. Column TermIDs are dictionary
	// positions: a slice indexed by them is short, and cheaper than a map.
	rank := make([]uint32, top+1)
	for i, c := range cols {
		rank[s.ids[c.id]] = uint32(i)
	}
	out := make([]schema.Edge, 0, s.count)
	var keys []uint64 // B's rank, kind, place in the kind's list
	for _, a := range cols {
		keys = keys[:0]
		for k := range a.nbrs {
			for j, n := range a.nbrs[k] {
				if r := rank[n.Column]; cols[r].seq > a.seq {
					keys = append(keys, uint64(r)<<32|uint64(k)<<31|uint64(j))
				}
			}
		}
		slices.Sort(keys)
		for _, key := range keys {
			k, j := key>>31&1, key&(1<<31-1)
			out = append(out, schema.Edge{A: a.id, B: cols[key>>32].id, Kind: edgeKinds[k], Score: a.nbrs[k][j].Score})
		}
	}
	return out
}

// tableEdges returns, in schema.SortEdges order, the edges a removal of
// table retracts. Its caller must hold ingestMu, as encode's must.
func (s *adjacency) tableEdges(table store.TermID) []schema.Edge {
	var out []schema.Edge
	for _, col := range s.tables[table] {
		c := s.columns[col]
		for k, kind := range edgeKinds {
			for _, n := range c.nbrs[k] {
				a, b := c, s.columns[n.Column]
				if b.seq < a.seq {
					a, b = b, a
				}
				out = append(out, schema.Edge{A: a.id, B: b.id, Kind: kind, Score: n.Score})
			}
		}
	}
	schema.SortEdges(out)
	return out
}
