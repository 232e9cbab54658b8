package store

// PredicateStats summarizes the union-index cardinality of one predicate:
// how many triples use it and how many distinct subjects and objects those
// triples touch. The SPARQL planner divides Triples by Subjects (or
// Objects) to estimate the fan-out of a pattern whose subject (or object)
// is an already-bound join variable.
type PredicateStats struct {
	Triples  int
	Subjects int
	Objects  int
}

// statAdd maintains the per-predicate stats for a triple entering the
// union index. Caller holds st.mu and has NOT yet inserted the triple into
// the union orderings (the emptiness probes below detect first occurrences).
func (st *Store) statAdd(s, p, o TermID) {
	ps := st.pstat[p]
	if ps == nil {
		ps = &PredicateStats{}
		st.pstat[p] = ps
	}
	ps.Triples++
	if len(st.spo[unionGraph][s][p]) == 0 {
		ps.Subjects++
	}
	if len(st.pos[unionGraph][p][o]) == 0 {
		ps.Objects++
	}
}

// statRemove maintains the per-predicate stats for a triple that just left
// the union index. Caller holds st.mu and has already removed the triple
// from the union orderings (removeIdx prunes emptied levels, so the probes
// below detect last occurrences).
func (st *Store) statRemove(s, p, o TermID) {
	ps := st.pstat[p]
	if ps == nil {
		return
	}
	ps.Triples--
	if len(st.spo[unionGraph][s][p]) == 0 {
		ps.Subjects--
	}
	if len(st.pos[unionGraph][p][o]) == 0 {
		ps.Objects--
	}
	if ps.Triples <= 0 {
		delete(st.pstat, p)
	}
}

// statMerge adds the per-predicate counts the bulk loader collected while
// it built the union index. Caller holds st.mu.
func (st *Store) statMerge(delta map[TermID]PredicateStats) {
	for p, d := range delta {
		ps := st.pstat[p]
		if ps == nil {
			ps = &PredicateStats{}
			st.pstat[p] = ps
		}
		ps.Triples += d.Triples
		ps.Subjects += d.Subjects
		ps.Objects += d.Objects
	}
}

func (st *Store) predStatsLocked(p TermID) PredicateStats {
	if ps := st.pstat[p]; ps != nil {
		return *ps
	}
	return PredicateStats{}
}

// Generation returns the store's mutation counter. It increases on every
// successful insert or delete, so two equal generations bracket a window in
// which every query result is reproducible — the property the SPARQL
// query-result cache keys on.
func (st *Store) Generation() uint64 {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.gen
}

// SetGeneration overwrites the mutation counter. This is the snapshot
// restore path only: a reloaded store adopts the generation persisted by
// the primary so that changelog replay continues from aligned counters.
// Never call it on a store serving live mutations.
func (st *Store) SetGeneration(gen uint64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.gen = gen
}

// countSampleCap bounds how many posting lists countIDsLocked sums exactly
// before extrapolating; single-position scans over very common terms (e.g.
// the object rdf:type Column in a wide lake) would otherwise make planning
// linear in the store.
const countSampleCap = 128

// countIDsLocked estimates the number of triples matching the encoded
// pattern in graph g (0 IDs are wildcards). Exact for every shape the
// indexes answer directly; subject-only and object-only patterns over very
// high-degree terms are sampled and extrapolated. Caller holds st.mu.
func (st *Store) countIDsLocked(s, p, o, g TermID) int {
	sum := func(lists map[TermID][]TermID) int {
		n, visited := 0, 0
		for _, vals := range lists {
			n += len(vals)
			if visited++; visited >= countSampleCap {
				return n * len(lists) / visited
			}
		}
		return n
	}
	switch {
	case s != 0 && p != 0 && o != 0:
		i := len(st.spo[g][s][p])
		if i > 0 && containsSortedID(st.spo[g][s][p], o) {
			return 1
		}
		return 0
	case s != 0 && p != 0:
		return len(st.spo[g][s][p])
	case s != 0 && o != 0:
		return len(st.osp[g][o][s])
	case p != 0 && o != 0:
		return len(st.pos[g][p][o])
	case s != 0:
		return sum(st.spo[g][s])
	case o != 0:
		return sum(st.osp[g][o])
	case p != 0:
		if g == unionGraph {
			return st.predStatsLocked(p).Triples
		}
		return sum(st.pos[g][p])
	default:
		if g == unionGraph {
			// graphs[unionGraph] counts only default-graph quads; the union
			// index holds every distinct triple across all graphs.
			return len(st.graphsOf)
		}
		return st.graphs[g]
	}
}

func containsSortedID(s []TermID, v TermID) bool {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := (lo + hi) / 2
		if s[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(s) && s[lo] == v
}
