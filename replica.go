package kglids

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"kglids/internal/obs"
	"kglids/internal/snapshot"
	"kglids/internal/store"
)

// DefaultChangelogRetention is the default quad-weighted retention budget
// of the mutation changelog (see internal/store).
const DefaultChangelogRetention = store.DefaultChangelogRetention

// Changelog cursor errors, re-exported for the serving layer: both mean
// the incremental stream cannot resume from the requested cursor and the
// follower must re-seed from a snapshot (HTTP 410 on /api/v1/changelog).
var (
	ErrLogCompacted    = store.ErrCompacted
	ErrLogFutureCursor = store.ErrFutureCursor
	// ErrNoChangelog reports that this platform has no changelog enabled
	// (a follower or a plain bootstrap) and cannot serve the mutation
	// stream.
	ErrNoChangelog = errors.New("kglids: changelog not enabled on this platform")
)

// EnableChangelog turns this platform into a replication primary: every
// subsequent mutation (table ingest/update/removal, pipeline registration)
// appends one sequence-numbered record that followers tail via
// ChangelogSince. retainQuads bounds in-memory retention (<= 0 uses
// DefaultChangelogRetention); the floor additionally advances whenever a
// snapshot is saved. Call once, before serving.
func (p *Platform) EnableChangelog(retainQuads int) { p.core.EnableChangelog(retainQuads) }

// ChangelogPosition returns the platform's position in the mutation
// changelog: the live head on a primary, or — on a platform restored from
// a snapshot without a changelog — the position persisted in that
// snapshot. It is the starting cursor of a follower booted from this
// platform's state.
func (p *Platform) ChangelogPosition() uint64 { return p.core.ChangelogPosition() }

// ChangelogEntry is one wire-ready changelog record: the record header
// plus its binary-encoded body (the format of internal/snapshot's
// EncodeChange, applied back with ApplyChange).
type ChangelogEntry struct {
	Seq        uint64
	Generation uint64
	TS         int64
	Kind       string
	Payload    []byte
}

// ChangelogView is one page of the changelog plus the log bounds a
// follower needs for pagination and staleness accounting.
type ChangelogView struct {
	Entries     []ChangelogEntry
	Head, Floor uint64
	AtHead      bool
}

// ChangelogSince returns up to max records after cursor, encoded for the
// wire. It fails with ErrNoChangelog when no changelog is enabled, and
// with ErrLogCompacted/ErrLogFutureCursor when the cursor cannot resume.
func (p *Platform) ChangelogSince(cursor uint64, max int) (ChangelogView, error) {
	cl := p.core.Store.Changelog()
	if cl == nil {
		return ChangelogView{}, ErrNoChangelog
	}
	lv, err := cl.Since(cursor, max)
	if err != nil {
		return ChangelogView{Head: lv.Head, Floor: lv.Floor}, err
	}
	out := ChangelogView{
		Entries: make([]ChangelogEntry, 0, len(lv.Records)),
		Head:    lv.Head, Floor: lv.Floor, AtHead: lv.AtHead,
	}
	for _, rec := range lv.Records {
		payload, err := snapshot.EncodeChange(rec)
		if err != nil {
			return ChangelogView{}, err
		}
		out.Entries = append(out.Entries, ChangelogEntry{
			Seq: rec.Seq, Generation: rec.Gen, TS: rec.TS,
			Kind: string(rec.Kind), Payload: payload,
		})
	}
	return out, nil
}

// ApplyChange applies one replicated changelog record to this platform —
// the follower side of the protocol. Records must be applied in sequence
// order on a platform seeded from the primary's snapshot. A record is one
// whole mutation, committed through the path the primary's own took, so a
// reader never sees part of one. gen is the primary's store generation
// after the record; the follower must land on the same value, and a
// mismatch reports divergence (the follower should re-seed from a
// snapshot).
func (p *Platform) ApplyChange(kind string, gen uint64, payload []byte) error {
	c, err := snapshot.DecodeChange(kind, payload)
	if err != nil {
		return err
	}
	if c.Kind == store.ChangePipelines {
		p.core.AddPipelines(c.Scripts)
	} else {
		p.core.ApplyPlatformDelta(c.Delta)
	}
	if got := p.core.Store.Generation(); got != gen {
		return fmt.Errorf("kglids: replica diverged: generation %d after %s record, primary had %d (re-seed from snapshot)",
			got, kind, gen)
	}
	return nil
}

// Replica staleness metrics, exported by any process running a follower.
var (
	mReplicaApplied = obs.Default.NewGauge("kglids_replica_applied_generation",
		"Store generation the replica has applied from the primary's changelog.")
	mReplicaLag = obs.Default.NewFloatGauge("kglids_replica_lag_seconds",
		"Seconds the replica's newest applied record trails the primary's wall clock (0 when caught up).")
)

// ReplicaTracker aggregates a follower's replication state for health
// reporting: the applied store generation and the staleness of the newest
// applied record. It is safe for concurrent use (the follower writes, the
// health endpoint reads) and mirrors its state into the kglids_replica_*
// metric families.
type ReplicaTracker struct {
	applied atomic.Uint64
	lagBits atomic.Uint64
}

// NewReplicaTracker returns a zeroed tracker.
func NewReplicaTracker() *ReplicaTracker { return &ReplicaTracker{} }

// ObserveApplied records one applied changelog record: the follower's
// store generation after it and the record's primary append timestamp
// (Unix nanoseconds), from which the lag is derived.
func (t *ReplicaTracker) ObserveApplied(gen uint64, ts int64) {
	t.applied.Store(gen)
	lag := 0.0
	if ts > 0 {
		if d := time.Since(time.Unix(0, ts)).Seconds(); d > 0 {
			lag = d
		}
	}
	t.lagBits.Store(math.Float64bits(lag))
	mReplicaApplied.Set(int64(gen))
	mReplicaLag.Set(lag)
}

// ObserveAtHead records that the follower is caught up with the primary:
// lag drops to zero until the next record arrives.
func (t *ReplicaTracker) ObserveAtHead() {
	t.lagBits.Store(0)
	mReplicaLag.Set(0)
}

// ReplicaHealth reports the applied generation and current lag estimate —
// the shape the serving layer's health endpoint exposes.
func (t *ReplicaTracker) ReplicaHealth() (appliedGeneration uint64, lagSeconds float64) {
	return t.applied.Load(), math.Float64frombits(t.lagBits.Load())
}
