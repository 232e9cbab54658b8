package store

import "kglids/internal/rdf"

// Wildcard is the zero Term; passing it to Match leaves that position
// unconstrained.
var Wildcard = rdf.Term{}

func isWild(t rdf.Term) bool { return t.Kind == rdf.KindIRI && t.Value == "" && t.Quoted == nil }

// Match returns all triples matching the pattern (s, p, o) in graph g.
// Zero-valued terms act as wildcards. Passing rdf.DefaultGraph matches
// across all graphs (the union); a named graph restricts to that graph.
func (st *Store) Match(s, p, o, g rdf.Term) []rdf.Triple {
	var out []rdf.Triple
	st.MatchFunc(s, p, o, g, func(t rdf.Triple) bool {
		out = append(out, t)
		return true
	})
	return out
}

// MatchFunc streams matches to fn; iteration stops when fn returns false.
func (st *Store) MatchFunc(s, p, o, g rdf.Term, fn func(rdf.Triple) bool) {
	gid := unionGraph
	if !isWild(g) {
		id, ok := st.dict.Lookup(g)
		if !ok {
			return
		}
		gid = id
	}
	var sid, pid, oid TermID
	if !isWild(s) {
		id, ok := st.dict.Lookup(s)
		if !ok {
			return
		}
		sid = id
	}
	if !isWild(p) {
		id, ok := st.dict.Lookup(p)
		if !ok {
			return
		}
		pid = id
	}
	if !isWild(o) {
		id, ok := st.dict.Lookup(o)
		if !ok {
			return
		}
		oid = id
	}
	st.mu.RLock()
	defer st.mu.RUnlock()
	st.matchEncoded(sid, pid, oid, gid, func(es, ep, eo TermID) bool {
		return fn(rdf.T(st.dict.Term(es), st.dict.Term(ep), st.dict.Term(eo)))
	})
}

// matchEncoded walks the best index for the bound positions. IDs equal to 0
// are wildcards. Caller must hold st.mu.
func (st *Store) matchEncoded(s, p, o, g TermID, fn func(s, p, o TermID) bool) {
	switch {
	case s != 0: // SPO index
		l1 := st.spo[g][s]
		if l1 == nil {
			return
		}
		if p != 0 {
			for _, eo := range l1[p] {
				if o != 0 && eo != o {
					continue
				}
				if !fn(s, p, eo) {
					return
				}
			}
			return
		}
		for ep, objs := range l1 {
			for _, eo := range objs {
				if o != 0 && eo != o {
					continue
				}
				if !fn(s, ep, eo) {
					return
				}
			}
		}
	case o != 0: // OSP index
		l1 := st.osp[g][o]
		if l1 == nil {
			return
		}
		for es, preds := range l1 {
			for _, ep := range preds {
				if p != 0 && ep != p {
					continue
				}
				if !fn(es, ep, o) {
					return
				}
			}
		}
	case p != 0: // POS index
		l1 := st.pos[g][p]
		if l1 == nil {
			return
		}
		for eo, subs := range l1 {
			for _, es := range subs {
				if !fn(es, p, eo) {
					return
				}
			}
		}
	default: // full scan of the graph
		for es, l2 := range st.spo[g] {
			for ep, objs := range l2 {
				for _, eo := range objs {
					if !fn(es, ep, eo) {
						return
					}
				}
			}
		}
	}
}

// CountMatch returns the number of triples matching the pattern without
// materializing them.
func (st *Store) CountMatch(s, p, o, g rdf.Term) int {
	n := 0
	st.MatchFunc(s, p, o, g, func(rdf.Triple) bool { n++; return true })
	return n
}

// Objects returns the distinct objects of triples matching (s, p) in g.
func (st *Store) Objects(s, p, g rdf.Term) []rdf.Term {
	seen := map[string]struct{}{}
	var out []rdf.Term
	st.MatchFunc(s, p, Wildcard, g, func(t rdf.Triple) bool {
		k := t.Object.Key()
		if _, dup := seen[k]; !dup {
			seen[k] = struct{}{}
			out = append(out, t.Object)
		}
		return true
	})
	return out
}
