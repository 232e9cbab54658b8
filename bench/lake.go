package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"

	"kglids"
	"kglids/internal/lakegen"
	"kglids/internal/pipegen"
	"kglids/internal/schema"
)

// lakeShape sizes a generated lake. Families are unionable groups of about
// eight tables (the SANTOS Large shape of internal/lakegen); noise tables
// are unrelated to every family.
type lakeShape struct {
	families, noise, rows, scripts int
}

// Full-scale shapes. lakeL is the bootstrap lake, sized so that store writes
// are a leading share of bootstrap time; lakeM is the serving lake, sized so
// that a run has time to set it up in every round.
var (
	lakeL = lakeShape{families: 36, noise: 42, rows: 250, scripts: 150}
	lakeM = lakeShape{families: 24, noise: 28, rows: 250, scripts: 100}
)

// short shrinks a shape to roughly 1/50 of its cells for the smoke test.
func (s lakeShape) short() lakeShape {
	return lakeShape{families: max(3, s.families/8), noise: max(4, s.noise/8), rows: 40, scripts: max(4, s.scripts/10)}
}

// lake is one generated data lake plus everything a run derives from it.
// Family tables are only ever read; noise tables and the held-out extra
// tables are the ones the job plan mutates, so no read can race a removal
// of its own table and fail.
type lake struct {
	family []kglids.Table // base tables with unionability ground truth
	noise  []kglids.Table // base tables without
	extra  []kglids.Table // held out of the base lake: the "new table" jobs
	// truth maps a family table ID to the IDs unionable with it; truthK is
	// the evaluation k derived from the average truth-set size.
	truth   map[string][]string
	truthK  int
	scripts []kglids.Script
}

func tableID(t kglids.Table) string { return t.Dataset + "/" + t.Frame.Name }

// spec is the lakegen specification of a shape plus held-out families.
func (s lakeShape) spec(extraFamilies int) lakegen.Spec {
	return lakegen.Spec{Name: "bench", Families: s.families + extraFamilies, TablesPerFamily: 8,
		NoiseTables: s.noise, RowsPerTable: s.rows, Seed: lakegenSeed}
}

// lakegenSeed is the one lakegen seed every lake is generated from. lakegen
// draws the number of tables and columns of every family and the kind of
// every column at random, and the number of similarity edges — most of the
// graph — swings by a third between its seeds, and every timing with it. So,
// as a database benchmark fixes its data set at a scale factor and lets the
// seed vary the query stream, the tables of a shape are the same on every
// run and the benchmark's seed draws what is done with them: the pipeline
// scripts, the requests, and which tables the jobs add, change and remove.
const lakegenSeed = 104

// genLake generates the lake of the given shape plus extraFamilies held-out
// families, and the pipeline scripts over it from seed.
func genLake(shape lakeShape, extraFamilies int, seed int64) *lake {
	gen := lakegen.Generate(shape.spec(extraFamilies))
	l := &lake{truth: map[string][]string{}}
	idOf := func(name string) string { return gen.Dataset[name] + "/" + name }
	var datasets []pipegen.Dataset
	truthTotal := 0
	for _, df := range gen.Tables {
		t := kglids.Table{Dataset: gen.Dataset[df.Name], Frame: df}
		var fam int
		switch _, err := fmt.Sscanf(t.Dataset, "family_%d", &fam); {
		case err != nil:
			l.noise = append(l.noise, t)
		case fam >= shape.families:
			l.extra = append(l.extra, t)
		default:
			l.family = append(l.family, t)
			for _, o := range gen.GroundTruth[df.Name] {
				l.truth[tableID(t)] = append(l.truth[tableID(t)], idOf(o))
			}
			truthTotal += len(gen.GroundTruth[df.Name])
			if len(l.family)%8 == 1 {
				datasets = append(datasets, pipegen.FrameDataset(t.Dataset, df, df.Columns()[0]))
			}
		}
	}
	l.truthK = max(1, int(math.Round(float64(truthTotal)/float64(len(l.family)))))
	for _, g := range pipegen.Generate(pipegen.Options{NumPipelines: shape.scripts, Datasets: datasets, Seed: seed}) {
		l.scripts = append(l.scripts, g.Script)
	}
	return l
}

// base returns the tables of the base lake: what is written to disk and
// bootstrapped.
func (l *lake) base() []kglids.Table {
	return append(append([]kglids.Table(nil), l.family...), l.noise...)
}

// write stores the base lake under dir as <dataset>/<table>.csv, the layout
// the dir:// connector reads, and returns the bytes written.
func (l *lake) write(dir string) (int64, error) {
	var total int64
	for _, t := range l.base() {
		sub := filepath.Join(dir, t.Dataset)
		if err := os.MkdirAll(sub, 0o755); err != nil {
			return 0, err
		}
		path := filepath.Join(sub, t.Frame.Name)
		if err := t.Frame.WriteCSVFile(path); err != nil {
			return 0, err
		}
		info, err := os.Stat(path)
		if err != nil {
			return 0, err
		}
		total += info.Size()
	}
	return total, nil
}

// iri is the graph IRI of a table ID, as SPARQL text and discovery results
// spell it.
func iri(id string) string { return schema.TableIRI(id).Value }

// jobKind is the kind of one mutation job.
type jobKind uint8

const (
	jobAdd jobKind = iota
	jobUpdate
	jobRemove
)

func (k jobKind) String() string { return [...]string{"add", "update", "remove"}[k] }

// job is one mutation: add a held-out table, re-submit a live table with
// changed content, or remove a live table.
type job struct {
	kind  jobKind
	table kglids.Table // add and update
	id    string
}

// jobCycle is the kind of every job by position, repeated: six in ten add a
// new table, two update a live one and two remove one. The order is fixed so
// that the cost of a plan does not depend on the seed, and additions are the
// majority so that the median job is one of them rather than the boundary
// between two kinds of different cost.
var jobCycle = [...]jobKind{jobAdd, jobAdd, jobUpdate, jobAdd, jobRemove, jobAdd, jobAdd, jobUpdate, jobAdd, jobRemove}

// jobPlan orders n jobs by seed, in the kinds of jobCycle. The tables are the
// same whatever the seed: the first held-out tables arrive, the first half of
// the noise tables change and tables of the second half go. What a job costs,
// and how long it holds the locks that readers wait on, depends on its table,
// so drawing the tables would make the plan's cost and the readers' tail
// swing with the seed; the seed decides which comes when. Only noise and
// held-out tables are touched and none after it went, so every job is valid
// when jobs are applied in order.
func (l *lake) jobPlan(n int, seed int64) []job {
	rng := rand.New(rand.NewSource(seed ^ 0x6a6f6273))
	var count, next [3]int
	for i := 0; i < n; i++ {
		count[jobCycle[i%len(jobCycle)]]++
	}
	half := len(l.noise) / 2
	changing := append([]kglids.Table(nil), l.noise[:half]...) // as last updated
	order := [3][]int{
		jobAdd:    rng.Perm(min(count[jobAdd], len(l.extra))),
		jobUpdate: rng.Perm(half), // gone through again when it runs out
		jobRemove: rng.Perm(min(count[jobRemove], len(l.noise)-half)),
	}
	plan := make([]job, 0, n)
	for i := 0; i < n; i++ {
		kind := jobCycle[i%len(jobCycle)]
		if kind != jobUpdate && next[kind] == len(order[kind]) {
			kind = jobUpdate // ran out of tables; extraFamiliesFor and the shapes see that they do not
		}
		at := order[kind][next[kind]%len(order[kind])]
		next[kind]++
		switch kind {
		case jobAdd:
			t := l.extra[at]
			plan = append(plan, job{kind: jobAdd, table: t, id: tableID(t)})
		case jobUpdate:
			// Dropping the last row changes the content fingerprint, so
			// the ingest manager cannot skip the job as unchanged.
			t := changing[at]
			t.Frame = t.Frame.Head(t.Frame.NumRows() - 1)
			changing[at] = t
			plan = append(plan, job{kind: jobUpdate, table: t, id: tableID(t)})
		case jobRemove:
			plan = append(plan, job{kind: jobRemove, id: tableID(l.noise[half+at])})
		}
	}
	return plan
}

// extraFamiliesFor is how many held-out families a plan of n jobs needs:
// six jobs in ten add a table and a family has at least seven.
func extraFamiliesFor(jobs int) int { return jobs*6/10/7 + 2 }

// hashJobs folds a job plan into a hash for the run header.
func hashJobs(plan []job) uint64 {
	h := fnv.New64a()
	for _, j := range plan {
		rows := 0
		if j.table.Frame != nil {
			rows = j.table.Frame.NumRows()
		}
		fmt.Fprintf(h, "%s %s %d\n", j.kind, j.id, rows)
	}
	return h.Sum64()
}

// keywordOf returns a search keyword that matches t: its first column name
// without any numeric suffix.
func keywordOf(t kglids.Table) string {
	return strings.TrimRight(t.Frame.Columns()[0], "_0123456789")
}
