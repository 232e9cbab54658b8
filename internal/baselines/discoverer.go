// Package baselines ties the vendored comparison systems (SANTOS, Starmie)
// and the KGLiDS platform itself behind one Discoverer interface, so the
// evaluation harness preprocesses and scores every method through exactly
// the same code path — identical queries, identical k, identical
// precision/recall accounting. The paper's Table 2 / Figure 5 comparison
// and the standing `kglids-bench eval` quality section both ride this
// interface.
package baselines

import (
	"kglids/internal/baselines/santos"
	"kglids/internal/baselines/starmie"
	"kglids/internal/core"
	"kglids/internal/dataframe"
	"kglids/internal/lakegen"
	"kglids/internal/rdf"
	"kglids/internal/schema"
)

// Discoverer is one table-discovery method under evaluation. Preprocess
// indexes the lake (the caller times it); Unionable answers a top-k
// unionable-table query by table name. Implementations must treat the lake
// as read-only: the evaluation harness runs methods concurrently over one
// shared lake.
type Discoverer interface {
	Name() string
	Preprocess(b *lakegen.Benchmark)
	Unionable(query string, k int) []string
}

// Joiner is implemented by discoverers that also answer joinable-table
// queries (top-k tables sharing a joinable column with the query table).
type Joiner interface {
	Joinable(query string, k int) []string
}

// All returns every method the evaluation harness compares: the platform
// first, then the vendored baselines.
func All() []Discoverer {
	return []Discoverer{NewKGLiDS(), NewSantos(), NewStarmie()}
}

// santosDiscoverer adapts the SANTOS reimplementation.
type santosDiscoverer struct{ idx *santos.Index }

// NewSantos returns the SANTOS baseline as a Discoverer.
func NewSantos() Discoverer { return &santosDiscoverer{} }

func (d *santosDiscoverer) Name() string { return "SANTOS" }

func (d *santosDiscoverer) Preprocess(b *lakegen.Benchmark) {
	d.idx = santos.Preprocess(b.Tables)
}

func (d *santosDiscoverer) Unionable(query string, k int) []string {
	var names []string
	for _, r := range d.idx.Query(query, k) {
		names = append(names, r.Table)
	}
	return names
}

// starmieDiscoverer adapts the Starmie reimplementation, which queries by
// frame rather than by name.
type starmieDiscoverer struct {
	idx    *starmie.Index
	byName map[string]*dataframe.DataFrame
}

// NewStarmie returns the Starmie baseline as a Discoverer.
func NewStarmie() Discoverer { return &starmieDiscoverer{} }

func (d *starmieDiscoverer) Name() string { return "Starmie" }

func (d *starmieDiscoverer) Preprocess(b *lakegen.Benchmark) {
	d.byName = map[string]*dataframe.DataFrame{}
	for _, df := range b.Tables {
		d.byName[df.Name] = df
	}
	d.idx = starmie.Preprocess(b.Tables)
}

func (d *starmieDiscoverer) Unionable(query string, k int) []string {
	df := d.byName[query]
	if df == nil {
		return nil
	}
	var names []string
	for _, r := range d.idx.Query(df, k) {
		names = append(names, r.Table)
	}
	return names
}

// KGLiDSDiscoverer runs the platform's own discovery paths (materialized
// similarity edges over the knowledge graph) behind the same interface the
// baselines use.
type KGLiDSDiscoverer struct {
	cfg       core.Config
	label     string
	plat      *core.Platform
	tableIRI  map[string]rdf.Term // table name -> graph IRI term
	iriToName map[string]string   // graph IRI value -> table name
}

// NewKGLiDS returns the platform under its default configuration.
func NewKGLiDS() *KGLiDSDiscoverer {
	return NewKGLiDSWith("KGLiDS", core.Config{})
}

// NewKGLiDSWith returns the platform under an explicit configuration and
// label (the ablation studies score alternative configs this way).
func NewKGLiDSWith(label string, cfg core.Config) *KGLiDSDiscoverer {
	return &KGLiDSDiscoverer{cfg: cfg, label: label}
}

func (d *KGLiDSDiscoverer) Name() string { return d.label }

func (d *KGLiDSDiscoverer) Preprocess(b *lakegen.Benchmark) {
	var tables []core.Table
	for _, df := range b.Tables {
		tables = append(tables, core.Table{Dataset: b.Dataset[df.Name], Frame: df})
	}
	d.plat = core.Bootstrap(d.cfg, tables)
	d.tableIRI = map[string]rdf.Term{}
	d.iriToName = map[string]string{}
	for _, df := range b.Tables {
		id := b.Dataset[df.Name] + "/" + df.Name
		iri := schema.TableIRI(id)
		d.tableIRI[df.Name] = rdf.IRI(iri.Value)
		d.iriToName[iri.Value] = df.Name
	}
}

func (d *KGLiDSDiscoverer) Unionable(query string, k int) []string {
	iri, ok := d.tableIRI[query]
	if !ok {
		return nil
	}
	var names []string
	for _, r := range d.plat.Discovery.UnionableTables(iri, k) {
		names = append(names, d.iriToName[r.Table.Value])
	}
	return names
}

// Joinable answers top-k joinable tables via the content-similarity edges.
func (d *KGLiDSDiscoverer) Joinable(query string, k int) []string {
	iri, ok := d.tableIRI[query]
	if !ok {
		return nil
	}
	var names []string
	for _, r := range d.plat.Discovery.JoinableTables(iri, k) {
		names = append(names, d.iriToName[r.Table.Value])
	}
	return names
}
