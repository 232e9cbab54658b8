// Package ingest is the live-ingestion subsystem of the KGLiDS
// reproduction: an asynchronous manager that mutates a serving platform
// without a re-bootstrap. Submissions become jobs in a bounded queue; a
// bounded worker pool drains them through the platform's incremental
// mutation path (core.Platform.AddTables / RemoveTable), and every job
// exposes its lifecycle — queued, running, done, failed — for polling.
//
// Per-table content fingerprints make resubmission idempotent: a table
// whose fingerprint matches what the manager last ingested is skipped
// without touching the platform, so upstream services can re-send whole
// datasets and only pay for what actually changed.
//
// The correctness bar (verified by the equivalence tests at the repo
// root): after any sequence of add/update/remove jobs, discovery results
// and a saved snapshot are equivalent to a fresh Bootstrap over the final
// table set.
package ingest

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"sync"
	"time"

	"kglids/internal/core"
	"kglids/internal/dataframe"
)

// State is a job's lifecycle phase.
type State string

// Job lifecycle: Queued → Running → Done | Failed.
const (
	Queued  State = "queued"
	Running State = "running"
	Done    State = "done"
	Failed  State = "failed"
)

// Kind distinguishes the mutation job types.
type Kind string

// Job kinds.
const (
	KindAdd    Kind = "add"
	KindRemove Kind = "remove"
)

// Job is the externally visible record of one submission. All fields are
// snapshots; Manager.Job/Jobs/Wait return copies that do not change under
// the caller.
type Job struct {
	ID    int    `json:"id"`
	Kind  Kind   `json:"kind"`
	State State  `json:"state"`
	Error string `json:"error,omitempty"`
	// Tables are the "dataset/table" IDs the job was submitted with.
	Tables []string `json:"tables"`
	// Added, Updated, and Skipped partition an add job's tables by outcome:
	// newly ingested, re-ingested with changed content, or skipped because
	// the content fingerprint was unchanged. Removed lists the IDs a remove
	// job deleted.
	Added   []string `json:"added,omitempty"`
	Updated []string `json:"updated,omitempty"`
	Skipped []string `json:"skipped,omitempty"`
	Removed []string `json:"removed,omitempty"`

	SubmittedAt time.Time `json:"submitted_at"`
	StartedAt   time.Time `json:"started_at,omitempty"`
	FinishedAt  time.Time `json:"finished_at,omitempty"`
}

// job is the internal record: the public snapshot plus the payload and a
// completion signal.
type job struct {
	Job
	tables []core.Table // payload of add jobs
	done   chan struct{}
}

// Errors returned by Submit/SubmitRemoval.
var (
	// ErrClosed marks submissions after Close.
	ErrClosed = errors.New("ingest: manager closed")
	// ErrQueueFull marks submissions rejected by the bounded queue;
	// callers should back off and retry.
	ErrQueueFull = errors.New("ingest: job queue full")
)

// Options configures a Manager.
type Options struct {
	// Workers bounds the worker pool (default 2). Workers profile
	// concurrently; the final splice into the platform is serialized by the
	// platform itself, so more workers help exactly while profiling
	// dominates job cost.
	Workers int
	// QueueSize bounds the number of jobs waiting to run (default 64).
	// Submissions beyond it fail fast with ErrQueueFull.
	QueueSize int
}

// Manager accepts table submissions and applies them to a live platform
// asynchronously. Create with New, stop with Close.
type Manager struct {
	plat *core.Platform

	mu           sync.Mutex
	jobs         map[int]*job
	order        []int
	nextID       int
	closed       bool
	fingerprints map[string]uint64 // table ID -> last ingested content hash

	queue chan *job
	wg    sync.WaitGroup
}

// New starts a manager (and its worker pool) over a platform.
func New(plat *core.Platform, opts Options) *Manager {
	workers := opts.Workers
	if workers <= 0 {
		workers = 2
	}
	queueSize := opts.QueueSize
	if queueSize <= 0 {
		queueSize = 64
	}
	m := &Manager{
		plat:         plat,
		jobs:         map[int]*job{},
		nextID:       1,
		fingerprints: map[string]uint64{},
		queue:        make(chan *job, queueSize),
	}
	for w := 0; w < workers; w++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m
}

// Submit enqueues an add/update job for the given tables and returns its
// job ID. Validation failures, a full queue, and a closed manager are
// reported synchronously; everything else is reported through the job.
func (m *Manager) Submit(tables []core.Table) (int, error) {
	if len(tables) == 0 {
		return 0, errors.New("ingest: no tables in submission")
	}
	ids := make([]string, len(tables))
	for i, t := range tables {
		if t.Frame == nil {
			return 0, fmt.Errorf("ingest: table %d needs a frame", i)
		}
		var err error
		if ids[i], err = core.TableID(t.Dataset, t.Frame.Name); err != nil {
			return 0, fmt.Errorf("ingest: table %d: %w", i, err)
		}
	}
	return m.enqueue(&job{
		Job:    Job{Kind: KindAdd, Tables: ids},
		tables: tables,
	})
}

// SubmitRemoval enqueues a job deleting a table by "dataset/table" ID.
func (m *Manager) SubmitRemoval(tableID string) (int, error) {
	if tableID == "" {
		return 0, errors.New("ingest: empty table ID")
	}
	return m.enqueue(&job{Job: Job{Kind: KindRemove, Tables: []string{tableID}}})
}

func (m *Manager) enqueue(j *job) (int, error) {
	j.State = Queued
	j.SubmittedAt = time.Now()
	j.done = make(chan struct{})
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return 0, ErrClosed
	}
	j.ID = m.nextID
	select {
	case m.queue <- j:
		m.nextID++
		m.jobs[j.ID] = j
		m.order = append(m.order, j.ID)
		m.pruneLocked()
		m.mu.Unlock()
		mQueueDepth.Inc()
		return j.ID, nil
	default:
		m.mu.Unlock()
		return 0, fmt.Errorf("%w (%d waiting)", ErrQueueFull, cap(m.queue))
	}
}

// maxRetainedJobs bounds the job history a long-lived manager keeps: once
// exceeded, the oldest terminal (done/failed) records are dropped. Queued
// and running jobs are always retained.
const maxRetainedJobs = 1024

// pruneLocked evicts the oldest finished job records beyond the retention
// cap; caller holds m.mu.
func (m *Manager) pruneLocked() {
	excess := len(m.order) - maxRetainedJobs
	if excess <= 0 {
		return
	}
	kept := m.order[:0]
	for _, id := range m.order {
		j := m.jobs[id]
		if excess > 0 && (j.State == Done || j.State == Failed) {
			delete(m.jobs, id)
			excess--
			continue
		}
		kept = append(kept, id)
	}
	m.order = kept
}

func (m *Manager) worker() {
	defer m.wg.Done()
	for j := range m.queue {
		m.run(j)
	}
}

func (m *Manager) run(j *job) {
	mQueueDepth.Dec()
	mWorkersBusy.Inc()
	m.mu.Lock()
	j.State = Running
	j.StartedAt = time.Now()
	m.mu.Unlock()

	var err error
	switch j.Kind {
	case KindAdd:
		err = m.runAdd(j)
	case KindRemove:
		err = m.runRemove(j)
	default:
		err = fmt.Errorf("ingest: unknown job kind %q", j.Kind)
	}

	m.mu.Lock()
	j.FinishedAt = time.Now()
	if err != nil {
		j.State = Failed
		j.Error = err.Error()
	} else {
		j.State = Done
	}
	outcome := string(j.State)
	dur := j.FinishedAt.Sub(j.StartedAt)
	kind := string(j.Kind)
	nAdded, nUpdated, nSkipped := len(j.Added), len(j.Updated), len(j.Skipped)
	m.mu.Unlock()
	mWorkersBusy.Dec()
	mJobs.WithLabelValues(kind, outcome).Inc()
	mJobSeconds.WithLabelValues(kind, outcome).Observe(dur.Seconds())
	if nAdded > 0 {
		mTablesIngested.WithLabelValues("added").Add(uint64(nAdded))
	}
	if nUpdated > 0 {
		mTablesIngested.WithLabelValues("updated").Add(uint64(nUpdated))
	}
	if nSkipped > 0 {
		mTablesIngested.WithLabelValues("skipped").Add(uint64(nSkipped))
	}
	close(j.done)
}

// unchanged is the fingerprint gate an add job passes each table through.
// A table whose fingerprint equals the last ingested one and that is
// still resident is recorded as Skipped and reports true. Otherwise the
// caller ingests the table and hands resident — whether that replaces a
// resident version — on to ingested.
func (m *Manager) unchanged(j *job, id string, fp uint64) (skip, resident bool) {
	resident = m.plat.HasTable(id)
	m.mu.Lock()
	defer m.mu.Unlock()
	if prev, known := m.fingerprints[id]; known && prev == fp && resident {
		j.Skipped = append(j.Skipped, id)
		return true, resident
	}
	return false, resident
}

// ingested records a successful ingest of a table that passed the gate:
// its fingerprint, and the job outcome it counts under.
func (m *Manager) ingested(j *job, id string, fp uint64, resident bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.fingerprints[id] = fp
	if resident {
		j.Updated = append(j.Updated, id)
	} else {
		j.Added = append(j.Added, id)
	}
}

// runAdd partitions the submission by fingerprint, ingests what changed,
// and records the new fingerprints on success.
func (m *Manager) runAdd(j *job) error {
	type pending struct {
		id       string
		fp       uint64
		resident bool
	}
	var ingest []core.Table
	var todo []pending
	for i, t := range j.tables {
		// Hashed outside the manager lock: hashing a large submission must
		// not block status reads or other workers' state transitions.
		id, fp := j.Tables[i], Fingerprint(t)
		if skip, resident := m.unchanged(j, id, fp); !skip {
			ingest = append(ingest, t)
			todo = append(todo, pending{id, fp, resident})
		}
	}
	if len(ingest) == 0 {
		return nil
	}
	if _, err := m.plat.AddTables(ingest); err != nil {
		return err
	}
	for _, t := range todo {
		m.ingested(j, t.id, t.fp, t.resident)
	}
	// Drop the payload: finished jobs should not pin table frames in
	// memory for as long as the job record is retained.
	j.tables = nil
	return nil
}

func (m *Manager) runRemove(j *job) error {
	id := j.Tables[0]
	if err := m.plat.RemoveTable(id); err != nil {
		return err
	}
	m.mu.Lock()
	delete(m.fingerprints, id)
	j.Removed = append(j.Removed, id)
	m.mu.Unlock()
	return nil
}

// Job returns a snapshot of one job by ID.
func (m *Manager) Job(id int) (Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return Job{}, false
	}
	return m.snapshotLocked(j), true
}

// Jobs returns snapshots of all retained jobs in submission order (the
// oldest finished records are evicted beyond maxRetainedJobs).
func (m *Manager) Jobs() []Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Job, 0, len(m.order))
	for _, id := range m.order {
		out = append(out, m.snapshotLocked(m.jobs[id]))
	}
	return out
}

// snapshotLocked deep-copies the public record; caller holds m.mu.
func (m *Manager) snapshotLocked(j *job) Job {
	c := j.Job
	c.Tables = append([]string(nil), j.Tables...)
	c.Added = append([]string(nil), j.Added...)
	c.Updated = append([]string(nil), j.Updated...)
	c.Skipped = append([]string(nil), j.Skipped...)
	c.Removed = append([]string(nil), j.Removed...)
	return c
}

// Wait blocks until the job reaches a terminal state (Done or Failed) and
// returns its final snapshot. Unknown IDs return ok == false immediately.
func (m *Manager) Wait(id int) (Job, bool) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return Job{}, false
	}
	<-j.done
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.snapshotLocked(j), true
}

// Drain waits for every job submitted so far to finish.
func (m *Manager) Drain() {
	m.mu.Lock()
	ids := append([]int(nil), m.order...)
	m.mu.Unlock()
	for _, id := range ids {
		m.Wait(id)
	}
}

// Close stops accepting submissions, waits for queued jobs to finish, and
// releases the workers. Safe to call more than once.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		m.wg.Wait()
		return
	}
	m.closed = true
	close(m.queue)
	m.mu.Unlock()
	m.wg.Wait()
}

// SeedFingerprints registers fingerprints for tables already in the
// platform (e.g. the bootstrap lake), so resubmitting them unchanged is
// skipped rather than re-ingested.
func (m *Manager) SeedFingerprints(tables []core.Table) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, t := range tables {
		if t.Frame == nil {
			continue
		}
		m.fingerprints[t.Dataset+"/"+t.Frame.Name] = Fingerprint(t)
	}
}

// Fingerprint hashes a table's full content — dataset, name, column names,
// and every cell's kind and value — with FNV-1a. Identical content always
// hashes identically, so an unchanged resubmission is detected without
// profiling anything.
func Fingerprint(t core.Table) uint64 {
	h := fnv.New64a()
	writeStr := func(s string) {
		h.Write([]byte(s))
		h.Write([]byte{0})
	}
	writeStr(t.Dataset)
	if t.Frame == nil {
		return h.Sum64()
	}
	writeStr(t.Frame.Name)
	for i := 0; i < t.Frame.NumCols(); i++ {
		s := t.Frame.ColumnAt(i)
		writeStr(s.Name)
		for _, c := range s.Cells {
			h.Write([]byte{byte(c.Kind)})
			switch c.Kind {
			case dataframe.Number, dataframe.Boolean:
				var buf [8]byte
				bits := math.Float64bits(c.F)
				for b := 0; b < 8; b++ {
					buf[b] = byte(bits >> (8 * b))
				}
				h.Write(buf[:])
			default:
				writeStr(c.S)
			}
		}
	}
	return h.Sum64()
}
