package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strconv"

	"kglids"
	"kglids/internal/schema"
)

// opKind is the kind of one read operation.
type opKind uint8

const (
	opUnionable opKind = iota
	opSimilar          // by table ID through the HNSW index, as /api/v1/similar does
	opSearch
	opTables
	opStats
	opSPARQLLight  // point look-up, 2-3 patterns
	opSPARQLJoin   // 4-pattern similarity join scoped to one dataset
	opSPARQLGroup  // GROUP BY type histogram
	opSPARQLEdges  // per-table edge aggregation
	opSimilarFrame // by data frame through the exact index: library only
	opJoinPath     // library only
	numOpKinds
)

var opNames = [numOpKinds]string{"unionable", "similar", "search", "tables", "stats",
	"sparql_light", "sparql_join", "sparql_group", "sparql_edges", "similar_frame", "join_path"}

func (k opKind) String() string { return opNames[k] }

// overHTTP reports whether the /api/v1 surface has the operation.
func (k opKind) overHTTP() bool { return k < opSimilarFrame }

func (k opKind) isSPARQL() bool { return k >= opSPARQLLight && k <= opSPARQLEdges }

// op is one read operation, fully spelled out so it is the same whichever
// way it is issued.
type op struct {
	kind  opKind
	table kglids.Table // unionable, similar*, join_path (from)
	to    kglids.Table // join_path (to)
	text  string       // keyword or SPARQL text
	k     int
	// slot is the operation's position in the hot set plus one; 0 for an
	// operation that is issued only once.
	slot int
	// hits, when not nil, receives the table IDs or IRIs a unionable
	// query returned, for scoring against the ground truth.
	hits *[]string
}

func (o *op) String() string {
	return fmt.Sprintf("%s %s %s %s %d", o.kind, tableIDOrEmpty(o.table), tableIDOrEmpty(o.to), o.text, o.k)
}

func tableIDOrEmpty(t kglids.Table) string {
	if t.Frame == nil {
		return ""
	}
	return tableID(t)
}

// sparqlText spells the SPARQL text of a kind over one table. tag is appended
// as a comment: it leaves the query unchanged and makes its text — the key of
// the result cache — as unique as the tag. Every text ends inside that
// comment, so a caller can make a variant by appending more.
func sparqlText(kind opKind, t kglids.Table, tag string) string {
	var q string
	switch kind {
	case opSPARQLLight:
		q = fmt.Sprintf(`SELECT ?c ?n ?dt WHERE { ?c kglids:isPartOf <%s> ; kglids:name ?n ; kglids:dataType ?dt . }`, iri(tableID(t)))
	case opSPARQLJoin:
		q = fmt.Sprintf(`SELECT ?c ?d ?u ?n WHERE { ?t kglids:isPartOf <%s> . ?c kglids:isPartOf ?t . ?c kglids:contentSimilarity ?d . ?d kglids:isPartOf ?u . ?u kglids:name ?n . }`,
			schema.DatasetIRI(t.Dataset).Value)
	case opSPARQLGroup:
		q = `SELECT ?dt (COUNT(?c) AS ?n) WHERE { ?c a kglids:Column ; kglids:dataType ?dt . } GROUP BY ?dt ORDER BY DESC(?n)`
	case opSPARQLEdges:
		q = fmt.Sprintf(`SELECT ?c (COUNT(?d) AS ?n) WHERE { ?c kglids:isPartOf <%s> . ?c kglids:contentSimilarity ?d . } GROUP BY ?c ORDER BY ?c`, iri(tableID(t)))
	}
	return q + " # " + tag
}

// hotRequests is the number of distinct requests of the hot plan: it fits
// the SPARQL result cache and the client's ETag cache (256 entries each).
const hotRequests = 64

// hotKinds is the kind of each hot request by rank, most requested first. It
// is fixed, so that the cost of the mix does not depend on the seed: a Zipf
// draw sends a fifth of all requests to rank 0 and a tenth to rank 1. The
// seed chooses the tables and keywords. Three in four requests are GETs the
// client revalidates; one in four is a SPARQL POST, which it cannot.
var hotKinds = func() [hotRequests]opKind {
	cycle := []opKind{opUnionable, opSimilar, opSearch, opSPARQLLight, opUnionable, opTables, opSearch, opSPARQLEdges}
	var kinds [hotRequests]opKind
	for i := range kinds {
		kinds[i] = cycle[i%len(cycle)]
	}
	kinds[hotRequests-1] = opStats
	return kinds
}()

// hotPlan builds the distinct requests of the hot serving mix from seed:
// every one can be issued over HTTP, and a Zipf draw over their ranks
// repeats the first ones most.
func hotPlan(l *lake, seed int64) []op {
	rng := rand.New(rand.NewSource(seed ^ 0x686f74))
	perm := rng.Perm(len(l.family)) // distinct tables, so distinct requests
	ops := make([]op, hotRequests)
	for i, kind := range hotKinds {
		o := op{kind: kind, k: 10, slot: i + 1, table: l.family[perm[i%len(perm)]]}
		switch kind {
		case opSearch:
			o.text = keywordOf(o.table)
			if i%4 == 2 {
				o.text = o.table.Dataset
			}
		case opTables:
			o.k = 20 + i // page size; distinct per request
		case opSPARQLLight, opSPARQLEdges:
			o.text = sparqlText(kind, o.table, "hot")
		}
		ops[i] = o
	}
	return ops
}

// coldMix is the share of each kind in the cold plan, in percent. The tail
// kinds (analytic SPARQL and join paths) hold 15 % together and the analytic
// ones alone 12 %, so that the 95th percentile falls inside the analytic
// class rather than on the boundary between two classes of different cost.
var coldMix = [numOpKinds]int{
	opUnionable: 30, opSimilarFrame: 15, opSearch: 15, opSPARQLLight: 25,
	opSPARQLEdges: 4, opSPARQLGroup: 4, opSPARQLJoin: 4, opJoinPath: 3,
}

// coldKinds is the kind of every operation of the cold plan by position,
// repeated: each kind holds exactly its share of every hundred operations,
// spread evenly over them. coldTurn is how many operations of the same kind
// come before a position within its hundred.
var coldKinds, coldTurn = func() (kinds [100]opKind, turn [100]int) {
	var issued [numOpKinds]int
	for i := range kinds {
		// The kind furthest behind its share goes next.
		best, behind := opKind(0), -1<<30
		for k, share := range coldMix {
			if d := share*(i+1) - 100*issued[k]; share > 0 && d > behind {
				best, behind = opKind(k), d
			}
		}
		kinds[i], turn[i] = best, issued[best]
		issued[best]++
	}
	return kinds, turn
}()

// coldStream is the order in which one stream of the cold plan visits the
// lake: per kind, a permutation of the family tables (of one table per
// dataset for the join, which is scoped to a dataset). What an operation
// costs depends heavily on its table, so a stream asks about every table
// equally often, turn by turn, and the seed decides the order; drawing each
// table independently would make the cost of a plan swing with the seed.
type coldStream struct {
	order [numOpKinds][]int
	to    []int // join_path destinations
}

func newColdStream(l *lake, rng *rand.Rand) *coldStream {
	var perDataset []int
	seen := map[string]bool{}
	for i, t := range l.family {
		if !seen[t.Dataset] {
			seen[t.Dataset] = true
			perDataset = append(perDataset, i)
		}
	}
	cs := &coldStream{to: rng.Perm(len(l.family))}
	for k, share := range coldMix {
		switch {
		case share == 0:
		case opKind(k) == opSPARQLJoin:
			cs.order[k] = make([]int, len(perDataset))
			for i, j := range rng.Perm(len(perDataset)) {
				cs.order[k][i] = perDataset[j]
			}
		default:
			cs.order[k] = rng.Perm(len(l.family))
		}
	}
	return cs
}

// op returns operation i of the stream. Every SPARQL text carries a tag unique
// to (stream, i, rung), so no two requests of a run share a cache key.
func (cs *coldStream) op(l *lake, stream, i int, rung string) op {
	kind := coldKinds[i%100]
	turn := i/100*coldMix[kind] + coldTurn[i%100] // how many of this kind came before
	order := cs.order[kind]
	o := op{kind: kind, k: 10, table: l.family[order[turn%len(order)]]}
	switch {
	case kind == opSearch:
		o.text = keywordOf(o.table)
	case kind == opJoinPath:
		o.to = l.family[cs.to[turn%len(cs.to)]]
	case kind.isSPARQL():
		o.text = sparqlText(kind, o.table, "s"+strconv.Itoa(stream)+"i"+strconv.Itoa(i)+rung)
	}
	return o
}

// truthPlan is the read plan of the bootstrap workload: one unionable query
// per family table at the truth-derived k, the queries unionable_f1 scores.
func truthPlan(l *lake) []op {
	ops := make([]op, len(l.family))
	for i, t := range l.family {
		ops[i] = op{kind: opUnionable, table: t, k: l.truthK}
	}
	return ops
}

// hashOps folds operations into a hash for the run header.
func hashOps(ops []op) uint64 {
	h := fnv.New64a()
	for i := range ops {
		fmt.Fprintln(h, ops[i].String())
	}
	return h.Sum64()
}
