package sparql

import "testing"

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
