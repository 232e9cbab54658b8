package core

import (
	"slices"
	"sync"

	"kglids/internal/discovery"
	"kglids/internal/profiler"
	"kglids/internal/schema"
	"kglids/internal/store"
)

// adjacency is the by-column similarity adjacency unionable and joinable
// search rank from (paper Section 3.3): every column, keyed by its store
// TermID, lists one discovery.Neighbor per similarity edge it takes part in
// — the same edges as Edges, seen from both ends. Keying by the store's IDs
// is what keeps rankings identical to a walk of the edge quads: a table's
// columns come out in the order of its hasColumn index.
//
// It is built once at bootstrap or restore and changed afterwards only by
// apply, in the p.mu write section that changes Edges; VisitColumns reads
// it under p.mu's read lock.
type adjacency struct {
	mu      *sync.RWMutex
	tables  map[store.TermID][]store.TermID // table → its columns, ascending
	columns map[store.TermID]*adjColumn
	// ids maps a column's profile ID to its TermID, the key an edge's
	// columns are resolved by.
	ids map[string]store.TermID
}

type adjColumn struct {
	id             string
	table          store.TermID
	label, content []discovery.Neighbor
}

// nbrs returns the list an edge of the given kind belongs in.
func (c *adjColumn) nbrs(content bool) *[]discovery.Neighbor {
	if content {
		return &c.content
	}
	return &c.label
}

// newAdjacency builds the adjacency of a platform's profiles and edges,
// whose quads st already holds.
func newAdjacency(mu *sync.RWMutex, st *store.Store, profiles []*profiler.ColumnProfile, edges []schema.Edge) *adjacency {
	s := &adjacency{mu: mu, tables: map[store.TermID][]store.TermID{}, columns: map[store.TermID]*adjColumn{}, ids: map[string]store.TermID{}}
	s.add(s.encode(st, profiles, edges))
	return s
}

// VisitColumns implements discovery.Adjacency.
func (s *adjacency) VisitColumns(table store.TermID, fn func(col store.TermID, label, content []discovery.Neighbor)) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, col := range s.tables[table] {
		c := s.columns[col]
		fn(col, c.label, c.content)
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
// reads s without p.mu, so its caller must exclude apply: hold ingestMu, or
// own a platform not yet published. A column whose terms st does not know
// is left out, with its edges, as a walk of st would never reach them.
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
// lists, and an entry at both ends of every edge between known columns.
// Caller holds p.mu for writing, or owns a platform not yet published.
func (s *adjacency) add(a adjAddition) {
	for _, c := range a.columns {
		if s.columns[c.col] == nil {
			s.columns[c.col] = &adjColumn{id: c.id, table: c.table}
			s.ids[c.id] = c.col
		}
	}
	for table, cols := range a.tables {
		s.tables[table] = cols
	}
	for _, e := range a.edges {
		ia, ib := s.ids[e.A], s.ids[e.B]
		ca, cb := s.columns[ia], s.columns[ib]
		if ca == nil || cb == nil {
			continue
		}
		content := e.Kind == "ContentSimilarity"
		na, nb := ca.nbrs(content), cb.nbrs(content)
		*na = append(*na, discovery.Neighbor{Column: ib, Table: cb.table, Score: e.Score})
		*nb = append(*nb, discovery.Neighbor{Column: ia, Table: ca.table, Score: e.Score})
	}
}

// removeTable drops a table's columns and, from the lists of the columns
// they had edges with, every entry pointing into the table. Caller holds
// p.mu for writing.
func (s *adjacency) removeTable(table store.TermID) {
	into := func(m discovery.Neighbor) bool { return m.Table == table }
	for _, col := range s.tables[table] {
		c := s.columns[col]
		for _, content := range []bool{false, true} {
			for _, n := range *c.nbrs(content) {
				far := s.columns[n.Column].nbrs(content)
				*far = slices.DeleteFunc(*far, into)
			}
		}
	}
	for _, col := range s.tables[table] {
		delete(s.ids, s.columns[col].id)
		delete(s.columns, col)
	}
	delete(s.tables, table)
}
