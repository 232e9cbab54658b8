package store

import (
	"errors"
	"sync"
	"time"

	"kglids/internal/obs"
	"kglids/internal/rdf"
)

// Changelog metric families: appended record count plus the live head and
// compaction floor, so a scrape shows at a glance how far the log reaches
// back and how fast it grows.
var (
	mChangelogRecords = obs.Default.NewCounter("kglids_changelog_records_total",
		"Mutation records appended to the in-memory mutation changelog.")
	mChangelogHead = obs.Default.NewGauge("kglids_changelog_head",
		"Sequence number of the newest changelog record.")
	mChangelogFloor = obs.Default.NewGauge("kglids_changelog_floor",
		"Compaction floor: highest sequence number no longer retained.")
	mChangelogQuads = obs.Default.NewGauge("kglids_changelog_retained_quads",
		"Retention weight of the retained changelog records: the quads their mutations added plus removed.")
)

// ChangeKind discriminates the mutation classes a changelog record can
// carry. The string values are the wire `kind` of /api/v1/changelog.
type ChangeKind string

const (
	// ChangeTables is one table mutation (an addition, an update or a
	// removal): its Body is the platform delta, from which a follower
	// derives the mutation's quads.
	ChangeTables ChangeKind = "tables"
	// ChangePipelines registers pipeline scripts: its Body is the scripts,
	// which a follower abstracts again.
	ChangePipelines ChangeKind = "pipelines"
)

// ChangeRecord is one entry of the in-memory mutation changelog: one whole
// mutation. Records are immutable once appended; Body must not be modified
// by consumers.
type ChangeRecord struct {
	// Seq is the record's position in the log, starting at floor+1 and
	// strictly increasing by one.
	Seq uint64
	// Gen is the store's mutation generation immediately after this record
	// was committed on the primary. A follower that replays the log observes
	// the same generation after applying the same record — the divergence
	// check of the replication protocol.
	Gen uint64
	// TS is the primary's wall clock at append time (Unix nanoseconds);
	// followers derive their staleness metric from it.
	TS int64
	// Kind says what Body holds.
	Kind ChangeKind
	// Body is the mutation, opaque to the store: the platform delta of a
	// ChangeTables record, the scripts of a ChangePipelines record.
	Body any
	// Weight is the number of quads the mutation added plus removed.
	Weight int
	// Quads is empty: no record kind ships quads, a follower derives them.
	// Readers that count shipped quads per record read zero.
	Quads []rdf.Quad
}

// weight is the record's contribution to the retention budget.
func (r ChangeRecord) weight() int { return r.Weight + 1 }

// Changelog retention and cursor errors.
var (
	// ErrCompacted reports a cursor older than the compaction floor: the
	// records it needs are gone and the follower must re-bootstrap from a
	// snapshot. Surfaced as HTTP 410 by /api/v1/changelog.
	ErrCompacted = errors.New("changelog: cursor predates compaction floor; re-snapshot")
	// ErrFutureCursor reports a cursor beyond the head — the follower and
	// primary disagree about history (e.g. the primary was restored from
	// an older snapshot) and the follower must re-bootstrap.
	ErrFutureCursor = errors.New("changelog: cursor beyond head; re-snapshot")
)

// DefaultChangelogRetention is the default retention budget in quads. A
// record weighs one more than the quads its mutation added plus removed, so
// the budget bounds the log by the store churn it covers.
const DefaultChangelogRetention = 1 << 18

// Changelog is the in-memory mutation changelog: a bounded ring of platform
// mutations, each appended after it has been committed. It exists to
// feed followers, not to recover from: nothing in it reaches disk, so a
// primary that crashes loses every mutation since its last saved snapshot.
// Records floor+1..head are retained; older ones have been compacted away
// (either by the quad-weighted retention budget or by CompactTo after a
// snapshot). It is safe for concurrent use.
type Changelog struct {
	mu sync.Mutex
	// recs[i] has Seq == floor+1+i.
	recs  []ChangeRecord
	floor uint64
	head  uint64
	// retain is the quad-weighted retention budget; weight is the current
	// total weight of recs.
	retain int
	weight int
}

// newChangelog returns an empty log. retain <= 0 uses the default budget.
func newChangelog(retain int) *Changelog {
	if retain <= 0 {
		retain = DefaultChangelogRetention
	}
	return &Changelog{retain: retain}
}

// Head returns the newest record's sequence number (== Floor when empty).
func (cl *Changelog) Head() uint64 {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return cl.head
}

// SeedFloor positions an empty log so the next record gets sequence
// pos+1 — the restart path: a primary reloading a snapshot that persisted
// changelog position pos continues the sequence numbering its followers
// already hold. No-op once records exist.
func (cl *Changelog) SeedFloor(pos uint64) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if len(cl.recs) > 0 || pos <= cl.floor {
		return
	}
	cl.floor, cl.head = pos, pos
	mChangelogHead.Set(int64(cl.head))
	mChangelogFloor.Set(int64(cl.floor))
}

// Append stamps and retains the record of one committed mutation: body is
// the mutation, owned by the record from here on, quads the number of quads
// it added plus removed, and gen the store generation after it.
func (cl *Changelog) Append(kind ChangeKind, body any, quads int, gen uint64) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	cl.head++
	rec := ChangeRecord{
		Seq: cl.head, Gen: gen, TS: time.Now().UnixNano(),
		Kind: kind, Body: body, Weight: quads,
	}
	cl.recs = append(cl.recs, rec)
	cl.weight += rec.weight()
	// Enforce the retention budget, always keeping the newest record so a
	// single oversized batch cannot empty the log.
	for cl.weight > cl.retain && len(cl.recs) > 1 {
		cl.weight -= cl.recs[0].weight()
		cl.floor = cl.recs[0].Seq
		cl.recs = cl.recs[1:]
	}
	mChangelogRecords.Inc()
	mChangelogHead.Set(int64(cl.head))
	mChangelogFloor.Set(int64(cl.floor))
	mChangelogQuads.Set(int64(cl.weight))
}

// LogView is one page of the log: the records after a cursor plus the
// log bounds the consumer needs for pagination and staleness accounting.
type LogView struct {
	Records []ChangeRecord
	// Head and Floor are the log bounds at read time.
	Head, Floor uint64
	// AtHead reports that the cursor (after consuming Records) has caught
	// up with the primary.
	AtHead bool
}

// Since returns up to max records with Seq > cursor. A cursor below the
// floor returns ErrCompacted; one beyond the head returns ErrFutureCursor.
// cursor == Head() yields an empty at-head view (the poll steady state).
func (cl *Changelog) Since(cursor uint64, max int) (LogView, error) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	view := LogView{Head: cl.head, Floor: cl.floor}
	if cursor < cl.floor {
		return view, ErrCompacted
	}
	if cursor > cl.head {
		return view, ErrFutureCursor
	}
	start := int(cursor - cl.floor)
	end := len(cl.recs)
	if max > 0 && start+max < end {
		end = start + max
	}
	view.Records = append([]ChangeRecord(nil), cl.recs[start:end]...)
	view.AtHead = end == len(cl.recs)
	return view, nil
}

// EnableChangelog attaches an in-memory mutation changelog to the store,
// for the platform to append one record per mutation to; the store's own
// writes never do. retainQuads is the quad-weighted retention budget (<= 0
// uses DefaultChangelogRetention).
// Idempotent: a second call returns the existing log.
func (st *Store) EnableChangelog(retainQuads int) *Changelog {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.log == nil {
		st.log = newChangelog(retainQuads)
	}
	return st.log
}

// Changelog returns the store's changelog, or nil when none is enabled
// (followers and plain bootstraps run without one).
func (st *Store) Changelog() *Changelog {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.log
}

// CompactTo drops every record with Seq <= pos, advancing the floor. The
// snapshot writer calls it after a successful save: followers older than
// the snapshot can bootstrap from the snapshot instead.
func (cl *Changelog) CompactTo(pos uint64) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if pos > cl.head {
		pos = cl.head
	}
	for len(cl.recs) > 0 && cl.recs[0].Seq <= pos {
		cl.weight -= cl.recs[0].weight()
		cl.recs = cl.recs[1:]
	}
	if pos > cl.floor {
		cl.floor = pos
	}
	mChangelogFloor.Set(int64(cl.floor))
	mChangelogQuads.Set(int64(cl.weight))
}
