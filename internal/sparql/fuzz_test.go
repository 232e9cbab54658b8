package sparql

import (
	"math/rand"
	"testing"
)

// FuzzParse throws arbitrary query text at the lexer and parser, which
// read untrusted bytes from the SPARQL endpoint: every input must either
// parse or return an error, never panic.
func FuzzParse(f *testing.F) {
	for _, src := range fixtureQueries {
		f.Add(src)
	}
	for _, src := range discoveryQueries {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		q, err := Parse(src)
		if err == nil && q == nil {
			t.Fatalf("Parse(%q) returned neither a query nor an error", src)
		}
	})
}

// FuzzCompiledMatchesReference draws a query from randomQuery with the
// fuzzed seed and requires the compiled engine to return what the
// reference evaluator returns over the seeded store.
func FuzzCompiledMatchesReference(f *testing.F) {
	for seed := int64(0); seed < 4; seed++ {
		f.Add(seed)
	}
	e := NewEngine(buildSeededStore(7, 30))
	e.SetCacheCapacity(0) // exercise execution, not the cache
	f.Fuzz(func(t *testing.T, seed int64) {
		src := randomQuery(rand.New(rand.NewSource(seed)))
		want, err := e.QueryReference(src)
		if err != nil {
			t.Fatalf("reference %q: %v", src, err)
		}
		got, err := e.Query(src)
		if err != nil {
			t.Fatalf("compiled %q: %v", src, err)
		}
		if !sameResult(got, want) {
			t.Fatalf("divergence on %q:\ncompiled:  %v\nreference: %v", src, canonical(got), canonical(want))
		}
	})
}
