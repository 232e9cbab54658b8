package snapshot

import "kglids/internal/obs"

// Snapshot metrics: every serialize (Write/Save/SaveTo) and deserialize
// (Read/Load/Open) records its duration and outcome, every serialize the
// time it held the ingest lock (op "capture"), and the last
// payload size is exported so operators can watch snapshots grow with
// the lake.
var (
	mSnapshotSeconds = obs.Default.NewHistogramVec("kglids_snapshot_seconds",
		"Snapshot serialize/deserialize duration by op (save, load; capture: the part of a save that holds the ingest lock) and outcome (ok, error).",
		obs.DefaultLatencyBuckets, "op", "outcome")
	mSnapshotBytes = obs.Default.NewGauge("kglids_snapshot_last_bytes",
		"Payload size of the most recent snapshot written or read.")
)
