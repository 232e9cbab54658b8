package sparql

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"kglids/internal/rdf"
	"kglids/internal/store"
)

// buildSeededStore populates a LiDS-shaped store deterministically from a
// seed: tables with metadata, columns with names/types, RDF-star-annotated
// similarity edges, and pipeline named graphs.
func buildSeededStore(seed int64, nTables int) *store.Store {
	r := rand.New(rand.NewSource(seed))
	st := store.New()
	colNames := []string{"age", "name", "gender", "price", "city", "score", "target", "count"}
	colTypes := []string{"int", "string", "boolean", "float"}
	var allCols []rdf.Term
	var allTables []rdf.Term
	for i := 0; i < nTables; i++ {
		ds := fmt.Sprintf("ds%d", i%5)
		tbl := rdf.Resource(fmt.Sprintf("%s/table%d.csv", ds, i))
		allTables = append(allTables, tbl)
		st.Add(rdf.T(tbl, rdf.RDFType, rdf.ClassTable))
		if r.Intn(10) > 0 {
			st.Add(rdf.T(tbl, rdf.PropName, rdf.String(fmt.Sprintf("table%d.csv", i))))
		}
		st.Add(rdf.T(tbl, rdf.PropRowCount, rdf.Integer(int64(r.Intn(2000)))))
		st.Add(rdf.T(tbl, rdf.PropIsPartOf, rdf.Resource(ds)))
		for j, n := 0, 2+r.Intn(4); j < n; j++ {
			col := rdf.Resource(fmt.Sprintf("%s/table%d.csv/c%d", ds, i, j))
			allCols = append(allCols, col)
			st.Add(rdf.T(col, rdf.RDFType, rdf.ClassColumn))
			st.Add(rdf.T(col, rdf.PropName, rdf.String(colNames[r.Intn(len(colNames))])))
			st.Add(rdf.T(col, rdf.PropDataType, rdf.String(colTypes[r.Intn(len(colTypes))])))
			st.Add(rdf.T(col, rdf.PropIsPartOf, tbl))
			st.Add(rdf.T(tbl, rdf.PropHasColumn, col))
		}
	}
	for k := 0; k < nTables; k++ {
		a, b := allCols[r.Intn(len(allCols))], allCols[r.Intn(len(allCols))]
		if a.Equal(b) {
			continue
		}
		pred := rdf.PropLabelSimilarity
		if r.Intn(2) == 0 {
			pred = rdf.PropContentSimilarity
		}
		st.AddAnnotated(rdf.T(a, pred, b), rdf.DefaultGraph, rdf.PropCertainty,
			rdf.Float(float64(r.Intn(100))/100))
	}
	for k := 0; k < nTables/2; k++ {
		pg := rdf.Resource(fmt.Sprintf("pipeline/p%d", k))
		s1 := rdf.Resource(fmt.Sprintf("pipeline/p%d/s1", k))
		st.AddToGraph(rdf.T(s1, rdf.RDFType, rdf.ClassStatement), pg)
		st.AddToGraph(rdf.T(s1, rdf.PropReads, allTables[r.Intn(len(allTables))]), pg)
		st.AddToGraph(rdf.T(s1, rdf.PropCallsLibrary,
			rdf.Resource(fmt.Sprintf("library/lib%d", r.Intn(4)))), pg)
	}
	return st
}

// randomQuery generates a query string over the seeded vocabulary:
// a connected-ish BGP with optional FILTER, OPTIONAL, GRAPH, GROUP BY,
// ORDER BY, and LIMIT shapes. LIMIT without an ORDER BY over every
// projected variable is intentionally never generated — both engines are
// free to enumerate solutions in different orders, and keying the order on
// all projected variables makes the post-slice row multiset deterministic
// (tied solutions project identically, so any tie-break yields the same
// rows). This is what lets the harness drive the top-k push-down path.
func randomQuery(r *rand.Rand) string {
	patterns := [][2]string{
		{"?t", "?t a kglids:Table ."},
		{"?t ?n", "?t kglids:name ?n ."},
		{"?t ?rc", "?t kglids:rowCount ?rc ."},
		{"?c ?t", "?c kglids:isPartOf ?t ."},
		{"?t ?c", "?t kglids:hasColumn ?c ."},
		{"?c", "?c a kglids:Column ."},
		{"?c ?cn", "?c kglids:name ?cn ."},
		{"?c ?dt", "?c kglids:dataType ?dt ."},
		{"?c", `?c kglids:dataType "int" .`},
		{"?c ?d", "?c kglids:labelSimilarity ?d ."},
		{"?c ?d", "?c kglids:contentSimilarity ?d ."},
	}
	used := map[string]bool{}
	var body []string
	for i, n := 0, 1+r.Intn(3); i < n; i++ {
		p := patterns[r.Intn(len(patterns))]
		for _, v := range strings.Fields(p[0]) {
			used[strings.TrimPrefix(v, "?")] = true
		}
		body = append(body, p[1])
	}
	if r.Intn(3) == 0 {
		body = append(body, "OPTIONAL { ?c kglids:labelSimilarity ?sim . }")
		used["sim"] = true
		used["c"] = true
	}
	if r.Intn(4) == 0 {
		body = append(body, "GRAPH ?g { ?s kglids:reads ?rt . }")
		used["g"], used["s"], used["rt"] = true, true, true
	}
	if r.Intn(2) == 0 {
		filters := []string{
			"FILTER(?rc > 500)",
			"FILTER(?rc >= 100 && ?rc < 1500)",
			`FILTER(CONTAINS(LCASE(?cn), "a"))`,
			`FILTER(REGEX(?cn, "^[acs]", "i"))`,
			"FILTER(BOUND(?sim))",
			"FILTER(!BOUND(?sim))",
			`FILTER(STRSTARTS(?dt, "i") || ?rc < 900)`,
		}
		body = append(body, filters[r.Intn(len(filters))])
	}
	vars := make([]string, 0, len(used))
	for v := range used {
		vars = append(vars, v)
	}
	sort.Strings(vars)

	if r.Intn(4) == 0 && len(vars) > 1 {
		g, cnt := vars[r.Intn(len(vars))], vars[r.Intn(len(vars))]
		return fmt.Sprintf("SELECT ?%s (COUNT(?%s) AS ?agg) WHERE { %s } GROUP BY ?%s",
			g, cnt, strings.Join(body, " "), g)
	}
	proj := "*"
	projVars := vars
	if r.Intn(2) == 0 {
		k := 1 + r.Intn(len(vars))
		projVars = vars[:k]
		var sb strings.Builder
		for i := 0; i < k; i++ {
			sb.WriteString("?" + vars[i] + " ")
		}
		proj = strings.TrimSpace(sb.String())
	}
	distinct := ""
	if r.Intn(3) == 0 {
		distinct = "DISTINCT "
	}
	modifiers := ""
	if r.Intn(3) == 0 {
		keys := make([]string, len(projVars))
		for i, v := range projVars {
			if r.Intn(2) == 0 {
				keys[i] = "DESC(?" + v + ")"
			} else {
				keys[i] = "?" + v
			}
		}
		modifiers = " ORDER BY " + strings.Join(keys, " ")
		if r.Intn(2) == 0 {
			modifiers += fmt.Sprintf(" LIMIT %d", 1+r.Intn(12))
			if r.Intn(3) == 0 {
				modifiers += fmt.Sprintf(" OFFSET %d", r.Intn(4))
			}
		}
	}
	return fmt.Sprintf("SELECT %s%s WHERE { %s }%s", distinct, proj, strings.Join(body, " "), modifiers)
}

// canonical renders a result as a sorted multiset of rows, ignoring
// enumeration order.
func canonical(res *Result) []string {
	vars := append([]string(nil), res.Vars...)
	sort.Strings(vars)
	rows := make([]string, len(res.Rows))
	for i, row := range res.Rows {
		var sb strings.Builder
		for _, v := range vars {
			if t, ok := row[v]; ok {
				sb.WriteString(v + "=" + t.Key())
			}
			sb.WriteByte('|')
		}
		rows[i] = sb.String()
	}
	sort.Strings(rows)
	return rows
}

func sameResult(a, b *Result) bool {
	ca, cb := canonical(a), canonical(b)
	if len(ca) != len(cb) {
		return false
	}
	for i := range ca {
		if ca[i] != cb[i] {
			return false
		}
	}
	return true
}

// TestCompiledMatchesReference is the randomized equivalence harness: the
// compiled ID-space engine must agree with the term-space reference on
// every generated query shape.
func TestCompiledMatchesReference(t *testing.T) {
	st := buildSeededStore(7, 30)
	e := NewEngine(st)
	e.SetCacheCapacity(0) // exercise execution, not the cache
	r := rand.New(rand.NewSource(99))
	for i := 0; i < 300; i++ {
		src := randomQuery(r)
		want, err := e.QueryReference(src)
		if err != nil {
			t.Fatalf("reference %q: %v", src, err)
		}
		got, err := e.Query(src)
		if err != nil {
			t.Fatalf("compiled %q: %v", src, err)
		}
		if !sameResult(got, want) {
			t.Fatalf("divergence on %q:\ncompiled:  %d rows %v\nreference: %d rows %v",
				src, len(got.Rows), canonical(got), len(want.Rows), canonical(want))
		}
	}
}

// fixtureQueries are hand-written queries over buildFixture, including
// ordered and limited shapes the random generator avoids.
var fixtureQueries = []string{
	`SELECT ?t WHERE { ?t a kglids:Table . }`,
	`SELECT ?col ?name WHERE { ?col a kglids:Column ; kglids:name ?name ; kglids:dataType "int" . }`,
	`SELECT ?t ?n (COUNT(?c) AS ?cnt) WHERE { ?c kglids:isPartOf ?t . ?t kglids:name ?n . } GROUP BY ?t ?n ORDER BY ?n`,
	`SELECT ?n WHERE { ?c a kglids:Column ; kglids:name ?n . } ORDER BY ?n LIMIT 2 OFFSET 1`,
	`SELECT DISTINCT ?typ WHERE { ?c kglids:dataType ?typ . } ORDER BY DESC(?typ)`,
	`SELECT (COUNT(*) AS ?n) (AVG(?rc) AS ?avg) WHERE { ?t kglids:rowCount ?rc . }`,
	`SELECT ?s ?t WHERE { GRAPH ?g { ?s kglids:reads ?t . } }`,
	`SELECT ?c ?sim WHERE { ?c a kglids:Column . OPTIONAL { ?c kglids:labelSimilarity ?sim . } }`,
	`SELECT DISTINCT ?c WHERE { { ?c kglids:dataType "int" . } UNION { ?c kglids:dataType "boolean" . } }`,
	`SELECT ?t WHERE { ?t a kglids:Table . FILTER(?missing > 1) }`,
	`SELECT ?t WHERE { ?t a <http://example.org/not-in-store> . }`,
	`SELECT ?x WHERE { GRAPH <http://example.org/no-such-graph> { ?x a kglids:Statement . } }`,
	`SELECT DISTINCT (COUNT(?c) AS ?n) WHERE { ?c kglids:dataType ?typ . } GROUP BY ?typ`,
	`SELECT ?p (COUNT(?o) AS ?n) WHERE { ?s ?p ?o . } GROUP BY ?p ORDER BY DESC(?n) ?p LIMIT 3 OFFSET 1`,
	`SELECT (MIN(?rc) AS ?lo) (MAX(?rc) AS ?hi) (COUNT(?rc) AS ?n) WHERE { ?t a <http://example.org/not-in-store> ; kglids:rowCount ?rc . }`,
}

// discoveryQueries are the discovery-shaped queries a serving platform
// answers: a typed column scan, a similarity join, a keyword filter, a
// type histogram, and a 4-pattern similarity-to-table join.
var discoveryQueries = []string{
	`SELECT ?t ?c ?n WHERE {
		?t a kglids:Table .
		?c kglids:isPartOf ?t ; kglids:name ?n ; kglids:dataType "int" . }`,
	`SELECT ?c ?d ?t WHERE {
		?c kglids:contentSimilarity ?d . ?d kglids:isPartOf ?t . ?t a kglids:Table . }`,
	`SELECT ?t ?n WHERE {
		?t a kglids:Table ; kglids:name ?n . FILTER(CONTAINS(LCASE(?n), ".csv") && REGEX(?n, "_t0", "i")) }`,
	`SELECT ?dt (COUNT(?c) AS ?n) WHERE {
		?c a kglids:Column ; kglids:dataType ?dt . } GROUP BY ?dt ORDER BY DESC(?n)`,
	`SELECT ?c ?d ?t ?n WHERE {
		?c kglids:contentSimilarity ?d . ?d kglids:isPartOf ?t .
		?t a kglids:Table ; kglids:name ?n . }`,
}

// TestCompiledMatchesReferenceFixtures pins the hand-written fixture
// queries to the same equivalence property, and the discovery queries
// over a seeded LiDS-shaped store.
func TestCompiledMatchesReferenceFixtures(t *testing.T) {
	check := func(e *Engine, src string) {
		t.Helper()
		got, err := e.Query(src)
		if err != nil {
			t.Fatalf("compiled %q: %v", src, err)
		}
		want, err := e.QueryReference(src)
		if err != nil {
			t.Fatalf("reference %q: %v", src, err)
		}
		if !sameResult(got, want) {
			t.Errorf("divergence on %q:\ncompiled:  %v\nreference: %v", src, canonical(got), canonical(want))
		}
	}
	e := NewEngine(buildFixture())
	for _, src := range fixtureQueries {
		check(e, src)
	}

	e = NewEngine(buildSeededStore(7, 30))
	e.SetCacheCapacity(0)
	for _, src := range discoveryQueries {
		check(e, src)
	}
}

// TestQueryCacheGenerations: repeated identical queries hit the cache, and
// any store mutation (the ingest path) invalidates it via the generation.
func TestQueryCacheGenerations(t *testing.T) {
	st := buildFixture()
	e := NewEngine(st)
	const q = `SELECT ?t WHERE { ?t a kglids:Table . }`

	r1, err := e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if s := e.CacheStats(); s.Hits != 0 || s.Misses != 1 {
		t.Fatalf("after first query: %+v", s)
	}
	r2, err := e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if s := e.CacheStats(); s.Hits != 1 {
		t.Fatalf("second query should hit: %+v", s)
	}
	if r2 != r1 {
		t.Fatal("cache hit should return the same result object")
	}

	// Ingest-style mutation bumps the generation and invalidates.
	st.Add(rdf.T(rdf.Resource("new/table.csv"), rdf.RDFType, rdf.ClassTable))
	r3, err := e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if s := e.CacheStats(); s.Hits != 1 || s.Misses != 2 {
		t.Fatalf("after mutation: %+v", s)
	}
	if len(r3.Rows) != len(r1.Rows)+1 {
		t.Fatalf("stale result after ingest: %d rows, want %d", len(r3.Rows), len(r1.Rows)+1)
	}

	// Removal also invalidates.
	st.RemoveQuad(rdf.Q(rdf.Resource("new/table.csv"), rdf.RDFType, rdf.ClassTable, rdf.DefaultGraph))
	r4, err := e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(r4.Rows) != len(r1.Rows) {
		t.Fatalf("stale result after removal: %d rows", len(r4.Rows))
	}
}

func TestQueryCacheBounded(t *testing.T) {
	e := NewEngine(buildFixture())
	e.SetCacheCapacity(8)
	for i := 0; i < 40; i++ {
		if _, err := e.Query(fmt.Sprintf(`SELECT ?t WHERE { ?t a kglids:Table . FILTER(1 < %d) }`, i+2)); err != nil {
			t.Fatal(err)
		}
	}
	if s := e.CacheStats(); s.Entries > 8 {
		t.Fatalf("cache exceeded capacity: %+v", s)
	}
}

// TestQueryContextCancellation: a cancelled context stops evaluation
// mid-iteration instead of running the query to completion.
func TestQueryContextCancellation(t *testing.T) {
	st := buildSeededStore(11, 60)
	e := NewEngine(st)
	e.SetCacheCapacity(0)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.QueryContext(ctx, `SELECT ?t WHERE { ?t a kglids:Table . }`); err == nil {
		t.Fatal("pre-cancelled context should fail")
	}

	// A cross-product query whose full evaluation is enormous must return
	// promptly once the deadline fires.
	ctx, cancel = context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := e.QueryContext(ctx, `
		SELECT (COUNT(*) AS ?n) WHERE {
			?a kglids:name ?n1 . ?b kglids:name ?n2 . ?c kglids:name ?n3 . ?d kglids:name ?n4 .
		}`)
	if err == nil {
		t.Fatal("expected context error from timeout")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancellation took %v, not mid-iteration", elapsed)
	}
}

// TestQueriesDuringIngest runs concurrent queries against live store
// mutations; under -race this proves each query's read view is sound
// against the ingest path. Row counts are also sanity-checked: every
// result must reflect some consistent store generation (between the
// initial 40 tables and the final 40+adds), never a torn read.
func TestQueriesDuringIngest(t *testing.T) {
	st := buildSeededStore(17, 40)
	e := NewEngine(st)
	e.SetCacheCapacity(0)

	const adds = 30
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < adds; i++ {
			st.Add(rdf.T(rdf.Resource(fmt.Sprintf("live/t%d.csv", i)), rdf.RDFType, rdf.ClassTable))
		}
	}()
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				res, err := e.Query(`SELECT ?t ?n WHERE { ?t a kglids:Table . OPTIONAL { ?t kglids:name ?n . } }`)
				if err != nil {
					t.Error(err)
					return
				}
				if len(res.Rows) < 40 || len(res.Rows) > 40+adds {
					t.Errorf("torn result: %d table rows", len(res.Rows))
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestConcurrentRegexQueries exercises the shared regex cache (and the
// result cache) from many goroutines; run with -race.
func TestConcurrentRegexQueries(t *testing.T) {
	e := NewEngine(buildSeededStore(3, 20))
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				q := fmt.Sprintf(`SELECT ?c WHERE { ?c kglids:name ?n . FILTER(REGEX(?n, "^[a-z]{%d}", "i")) }`, 1+(w+i)%4)
				if _, err := e.Query(q); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// SetCacheCapacity resizes the query-result cache; 0 disables caching.
func (e *Engine) SetCacheCapacity(n int) { e.cache.resize(n) }

func (c *queryCache) resize(capacity int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cap = capacity
	for c.ll.Len() > c.cap {
		c.evict(c.ll.Back())
	}
}
