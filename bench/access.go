package main

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"time"

	"kglids"
	"kglids/client"
	"kglids/internal/ingest"
	"kglids/internal/rdf"
)

// target is one way of reaching a platform: in process, as a library user
// does, or through the typed client over HTTP, as a service user does. Every
// workload drives its reads and writes through one of the two.
type target interface {
	reader
	// write submits one job and waits until it has been applied, as an ETL
	// caller does, returning the job's own record of its life.
	write(ctx context.Context, j *job) (jobTimes, error)
}

// reader is the read half of a target.
type reader interface {
	// read issues one operation and returns a digest of its result: equal
	// results give equal digests, so repeated requests can be compared
	// without keeping their bodies.
	read(ctx context.Context, o *op) (uint64, error)
}

// jobTimes are the timestamps an ingest job reports about itself.
type jobTimes struct{ submitted, started, finished time.Time }

// digest hashes strings and numbers into one value.
type digest struct{ h uint64 }

func newDigest() digest { return digest{14695981039346656037} }

func (d *digest) str(s string) {
	for i := 0; i < len(s); i++ {
		d.h = (d.h ^ uint64(s[i])) * 1099511628211
	}
	d.h = (d.h ^ 0xff) * 1099511628211
}

func (d *digest) num(n int) { d.str(strconv.Itoa(n)) }

// rows folds a SPARQL result in: the row count plus the sum of the row
// hashes, so two results with the same rows in any order digest alike.
func (d *digest) rows(n int, cell func(row, col int) string, cols int) {
	var total uint64
	for r := 0; r < n; r++ {
		row := newDigest()
		for c := 0; c < cols; c++ {
			row.str(cell(r, c))
		}
		total += row.h
	}
	d.num(n)
	d.h ^= total
}

// library reaches the platform in process.
type library struct {
	plat *kglids.Platform
	mgr  *ingest.Manager
}

// joinPathHops bounds join-path search: two hops reach the tables joinable
// through one intermediate table.
const joinPathHops = 2

func (t *library) read(ctx context.Context, o *op) (uint64, error) {
	d := newDigest()
	hits := func(res []kglids.TableResult) {
		for _, r := range res {
			d.str(r.Table.Value)
			if o.hits != nil {
				*o.hits = append(*o.hits, r.Table.Value)
			}
		}
	}
	switch o.kind {
	case opUnionable:
		res, err := t.plat.UnionableTables(tableID(o.table), o.k)
		if err != nil {
			return 0, err
		}
		hits(res)
	case opSimilar:
		c := t.plat.Core()
		emb, ok := c.TableEmbedding(tableID(o.table))
		if !ok {
			return 0, fmt.Errorf("unknown table %q", tableID(o.table))
		}
		for _, r := range c.TableANN.Search(emb, o.k) {
			d.str(r.ID)
		}
	case opSimilarFrame:
		hits(t.plat.SimilarTables(o.table.Frame, o.k))
	case opSearch:
		hits(t.plat.SearchKeywords([][]string{{o.text}}))
	case opTables:
		ids := t.plat.TableIDs()
		d.num(len(ids))
		for _, id := range ids[:min(o.k, len(ids))] {
			d.str(id)
		}
	case opStats:
		d.str(fmt.Sprint(t.plat.Stats()))
	case opJoinPath:
		from := kglids.TableResult{Table: rdf.IRI(iri(tableID(o.table)))}
		to := kglids.TableResult{Table: rdf.IRI(iri(tableID(o.to)))}
		for _, p := range t.plat.GetPathToTable(from, to, joinPathHops) {
			d.num(len(p.Tables))
		}
	default:
		res, err := t.plat.QueryContext(ctx, o.text)
		if err != nil {
			return 0, err
		}
		d.rows(len(res.Rows), func(r, c int) string { return res.Rows[r][res.Vars[c]].Value }, len(res.Vars))
	}
	return d.h, nil
}

func (t *library) write(_ context.Context, j *job) (jobTimes, error) {
	var id int
	var err error
	if j.kind == jobRemove {
		id, err = t.mgr.SubmitRemoval(j.id)
	} else {
		id, err = t.mgr.Submit([]kglids.Table{j.table})
	}
	if err != nil {
		return jobTimes{}, err
	}
	done, _ := t.mgr.Wait(id)
	if done.State != ingest.Done || len(done.Skipped) > 0 {
		return jobTimes{}, fmt.Errorf("job %d (%s %s) ended %s skipped=%v: %s", id, j.kind, j.id, done.State, done.Skipped, done.Error)
	}
	return jobTimes{done.SubmittedAt, done.StartedAt, done.FinishedAt}, nil
}

// service reaches the platform through the typed client.
type service struct{ c *client.Client }

// jobPoll is how often the service writer polls its job. It is small
// against a job's tens of milliseconds, so polling does not quantize the
// measured latency.
const jobPoll = 5 * time.Millisecond

func (t *service) read(ctx context.Context, o *op) (uint64, error) {
	d := newDigest()
	hits := func(p client.Page[client.TableHit], err error) error {
		d.num(p.Total)
		for _, h := range p.Items {
			d.str(h.ID)
			if o.hits != nil {
				*o.hits = append(*o.hits, h.ID)
			}
		}
		return err
	}
	switch o.kind {
	case opUnionable:
		return d.h, hits(t.c.Unionable(ctx, tableID(o.table), o.k, client.PageOpts{}))
	case opSimilar:
		return d.h, hits(t.c.Similar(ctx, tableID(o.table), o.k, client.PageOpts{}))
	case opSearch:
		return d.h, hits(t.c.Search(ctx, o.text, client.PageOpts{}))
	case opTables:
		p, err := t.c.Tables(ctx, client.PageOpts{Limit: o.k})
		d.num(p.Total)
		for _, info := range p.Items {
			d.str(info.ID)
		}
		return d.h, err
	case opStats:
		st, err := t.c.Stats(ctx)
		st.Generation = 0
		d.str(fmt.Sprint(st))
		return d.h, err
	case opSimilarFrame, opJoinPath:
		return 0, errors.New(o.kind.String() + " has no HTTP endpoint")
	default:
		res, err := t.c.SPARQL(ctx, o.text)
		if err != nil {
			return 0, err
		}
		b := res.Results.Bindings
		d.rows(len(b), func(r, c int) string { return b[r][res.Head.Vars[c]].Value }, len(res.Head.Vars))
		return d.h, nil
	}
}

func (t *service) write(ctx context.Context, j *job) (jobTimes, error) {
	var ref client.JobRef
	var err error
	if j.kind == jobRemove {
		ref, err = t.c.DeleteTable(ctx, j.id)
	} else {
		ref, err = t.c.Ingest(ctx, []client.IngestTable{wireTable(j.table)})
	}
	if err != nil {
		return jobTimes{}, err
	}
	done, err := t.c.WaitJob(ctx, ref.Job, jobPoll)
	if err != nil {
		return jobTimes{}, err
	}
	if done.State != client.JobDone || len(done.Skipped) > 0 {
		return jobTimes{}, fmt.Errorf("job %d (%s %s) ended %s skipped=%v: %s", ref.Job, j.kind, j.id, done.State, done.Skipped, done.Error)
	}
	return jobTimes{done.SubmittedAt, done.StartedAt, done.FinishedAt}, nil
}

// wireTable converts a table to the POST /api/v1/ingest form: cells travel
// as their text, which the server parses like CSV cells.
func wireTable(t kglids.Table) client.IngestTable {
	out := client.IngestTable{Dataset: t.Dataset, Name: t.Frame.Name}
	for i := 0; i < t.Frame.NumCols(); i++ {
		col := t.Frame.ColumnAt(i)
		values := make([]any, len(col.Cells))
		for r, cell := range col.Cells {
			if !cell.IsNull() {
				values[r] = cell.S
			}
		}
		out.Columns = append(out.Columns, client.IngestColumn{Name: col.Name, Values: values})
	}
	return out
}
