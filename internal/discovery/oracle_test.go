package discovery

import (
	"sort"

	"kglids/internal/rdf"
	"kglids/internal/store"
)

// The store walk below is how unionable and joinable search used to rank:
// per scored edge an isPartOf probe for the far column's table, a
// dictionary lookup of the quoted similarity triple and a parse of its
// certainty literal. It is the reference the resident adjacency is held to
// (TestAdjacencyMatchesStoreScoring), so it stays as it was, serial.

// StoreUnionableTables is UnionableTables computed by walking st.
func StoreUnionableTables(st *store.Store, table rdf.Term, k int) []TableResult {
	return storeSimilarTables(st, table, k, unionKind)
}

// StoreJoinableTables is JoinableTables computed by walking st.
func StoreJoinableTables(st *store.Store, table rdf.Term, k int) []TableResult {
	return storeSimilarTables(st, table, k, joinKind)
}

func storeSimilarTables(st *store.Store, table rdf.Term, k int, kind similarityKind) []TableResult {
	tid, ok := st.EncodeTerm(table)
	if !ok {
		return nil
	}
	hasCol, okCol := st.EncodeTerm(rdf.PropHasColumn)
	isPartOf, okPart := st.EncodeTerm(rdf.PropIsPartOf)
	if !okCol || !okPart {
		return nil
	}
	certainty, _ := st.EncodeTerm(rdf.PropCertainty)
	type simPred struct {
		id   store.TermID
		term rdf.Term
	}
	var preds []simPred
	addPred := func(p rdf.Term) {
		if id, ok := st.EncodeTerm(p); ok {
			preds = append(preds, simPred{id: id, term: p})
		}
	}
	switch kind {
	case unionKind:
		addPred(rdf.PropLabelSimilarity)
		addPred(rdf.PropContentSimilarity)
	case joinKind:
		addPred(rdf.PropContentSimilarity)
	}

	v := st.AcquireView()
	defer v.Close()
	dict := v.Dict()

	var cols []store.TermID
	v.MatchIDs(tid, hasCol, 0, store.UnionGraph, func(_, _, o store.TermID) bool {
		cols = append(cols, o)
		return true
	})
	if len(cols) == 0 {
		return nil
	}
	// score[otherTable] = sum over query columns of the best match score.
	scores := map[store.TermID]float64{}
	for _, col := range cols {
		colTerm := dict.Term(col)
		best := map[store.TermID]float64{}
		for _, pred := range preds {
			v.MatchIDs(col, pred.id, 0, store.UnionGraph, func(_, _, other store.TermID) bool {
				var ot store.TermID
				v.MatchIDs(other, isPartOf, 0, store.UnionGraph, func(_, _, t store.TermID) bool {
					ot = t
					return false // first (lowest-ID) owner
				})
				if ot == 0 {
					return true
				}
				score := 1.0
				if certainty != 0 {
					quoted := rdf.QuotedTriple(rdf.T(colTerm, pred.term, dict.Term(other)))
					if qid, ok := dict.Lookup(quoted); ok {
						v.MatchIDs(qid, certainty, 0, store.UnionGraph, func(_, _, val store.TermID) bool {
							if f, isF := dict.Term(val).AsFloat(); isF {
								score = f
							}
							return false
						})
					}
				}
				if score > best[ot] {
					best[ot] = score
				}
				return true
			})
		}
		for ot, s := range best {
			scores[ot] += s
		}
	}

	e := &Engine{st: st}
	out := make([]TableResult, 0, len(scores))
	norm := float64(len(cols))
	for ot, s := range scores {
		out = append(out, TableResult{Table: dict.Term(ot), Name: e.nameOfID(v, ot), Score: s / norm})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Table.Value < out[j].Table.Value
	})
	if k > 0 && k < len(out) {
		out = out[:k]
	}
	return out
}

// StoreFindUnionableColumns is FindUnionableColumns computed by walking st.
func StoreFindUnionableColumns(st *store.Store, tableA, tableB rdf.Term) []ColumnMatch {
	e := &Engine{st: st}
	var out []ColumnMatch
	for _, colA := range st.Objects(tableA, rdf.PropHasColumn, rdf.DefaultGraph) {
		appendMatch := func(pred rdf.Term, kind string) {
			st.MatchFunc(colA, pred, store.Wildcard, rdf.DefaultGraph, func(t rdf.Triple) bool {
				parents := st.Objects(t.Object, rdf.PropIsPartOf, rdf.DefaultGraph)
				if len(parents) == 0 || !parents[0].Equal(tableB) {
					return true
				}
				score := 1.0
				if ann, ok := st.Annotation(t, rdf.PropCertainty); ok {
					if f, isF := ann.AsFloat(); isF {
						score = f
					}
				}
				out = append(out, ColumnMatch{
					A: colA, B: t.Object,
					AName: e.nameOf(colA), BName: e.nameOf(t.Object),
					Kind: kind, Score: score,
				})
				return true
			})
		}
		appendMatch(rdf.PropLabelSimilarity, "label")
		appendMatch(rdf.PropContentSimilarity, "content")
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].AName != out[j].AName {
			return out[i].AName < out[j].AName
		}
		return out[i].Score > out[j].Score
	})
	return out
}

// storeAdjacency reads the adjacency straight off a store's edge quads, so
// the unit tests can rank over stores built without a platform.
type storeAdjacency struct{ st *store.Store }

func (a storeAdjacency) VisitColumns(table store.TermID, fn func(col store.TermID, label, content []Neighbor)) {
	id := func(t rdf.Term) store.TermID { v, _ := a.st.EncodeTerm(t); return v }
	hasCol, isPartOf := id(rdf.PropHasColumn), id(rdf.PropIsPartOf)
	var cols []store.TermID
	a.st.MatchIDs(table, hasCol, 0, store.UnionGraph, func(_, _, o store.TermID) bool {
		cols = append(cols, o)
		return true
	})
	nbrs := func(col store.TermID, pred rdf.Term) []Neighbor {
		var out []Neighbor
		a.st.MatchFunc(a.st.DecodeTerm(col), pred, store.Wildcard, rdf.DefaultGraph, func(t rdf.Triple) bool {
			ann, _ := a.st.Annotation(t, rdf.PropCertainty)
			score, _ := ann.AsFloat()
			far := id(t.Object)
			var owner store.TermID
			a.st.MatchIDs(far, isPartOf, 0, store.UnionGraph, func(_, _, o store.TermID) bool {
				owner = o
				return false
			})
			out = append(out, Neighbor{Column: far, Table: owner, Score: score})
			return true
		})
		return out
	}
	for _, col := range cols {
		fn(col, nbrs(col, rdf.PropLabelSimilarity), nbrs(col, rdf.PropContentSimilarity))
	}
}

// ReferenceGetPathToTable is how GetPathToTable used to search: every
// partial path held as terms, every expanded state ranked in full by
// rankTables, the last hop included, and the target and the cycle guard
// compared as terms. It is the reference GetPathToTable is held to
// (TestJoinPathMatchesReference), so it stays as it was.
func ReferenceGetPathToTable(e *Engine, start, target rdf.Term, maxHops int) []JoinPath {
	if maxHops < 1 || start.Equal(target) {
		return nil
	}
	type state struct {
		path  []rdf.Term
		score float64
	}
	var paths []JoinPath
	queue := []state{{path: []rdf.Term{start}, score: 1}}
	expanded := 0
	for len(queue) > 0 && len(paths) < maxJoinPaths && expanded < maxJoinPathStates {
		cur := queue[0]
		queue = queue[1:]
		expanded++
		hops := len(cur.path) - 1
		if hops >= maxHops {
			continue // budget exhausted: cannot take another hop
		}
		for _, next := range e.rankTables(cur.path[len(cur.path)-1], joinKind) {
			table := e.st.DecodeTerm(next.id)
			if table.Equal(target) {
				if len(paths) < maxJoinPaths {
					paths = append(paths, JoinPath{
						Tables: append(append([]rdf.Term{}, cur.path...), target),
						Score:  cur.score * next.score,
					})
				}
				continue
			}
			// Extending to an intermediate spends a hop and still needs
			// one more to reach the target.
			if hops+1 >= maxHops || onPath(cur.path, table) {
				continue
			}
			queue = append(queue, state{
				path:  append(append([]rdf.Term{}, cur.path...), table),
				score: cur.score * next.score,
			})
		}
	}
	sort.Slice(paths, func(i, j int) bool {
		if len(paths[i].Tables) != len(paths[j].Tables) {
			return len(paths[i].Tables) < len(paths[j].Tables)
		}
		if paths[i].Score != paths[j].Score {
			return paths[i].Score > paths[j].Score
		}
		return lessTables(paths[i].Tables, paths[j].Tables)
	})
	return paths
}

// onPath reports whether table already appears in the path (per-path cycle
// guard).
func onPath(path []rdf.Term, table rdf.Term) bool {
	for _, t := range path {
		if t.Equal(table) {
			return true
		}
	}
	return false
}

// StoreAdjacency returns the adjacency read straight off st's edge quads,
// for tests outside the package that rank over a bare store.
func StoreAdjacency(st *store.Store) Adjacency { return storeAdjacency{st} }
