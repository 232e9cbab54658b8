package core

import (
	"kglids/internal/embed"
	"kglids/internal/profiler"
	"kglids/internal/schema"
	"kglids/internal/store"
)

// PlatformDelta is the platform-level half of one mutation: the profiles,
// similarity edges, and table embeddings an addition built, or the table a
// removal dropped. Every mutation, local or replicated, takes effect by
// one being handed to apply. The store-level half (metadata and edge quads) travels
// as ordinary quad records in the changelog; this delta carries exactly
// the state that is NOT derivable from quads — embeddings and profile
// structs never enter the store — so a follower applying both halves in
// log order reconstructs the full platform.
type PlatformDelta struct {
	// Profiles, Edges, and TableEmbeddings describe an addition (AddTables
	// / AddSource): the profiles added, the delta similarity edges in
	// schema.SortEdges order, and the new or updated table embeddings.
	Profiles        []*profiler.ColumnProfile
	Edges           []schema.Edge
	TableEmbeddings map[string]embed.Vector
	// RemovedTable, when non-empty, makes this delta a removal instead:
	// the "dataset/table" ID whose metadata leaves the platform.
	RemovedTable string
}

// EnableChangelog attaches an in-memory mutation changelog to the
// platform's store and seeds its floor from the snapshot position this
// platform was restored at, so sequence numbering continues where the
// snapshot's followers left off. Call once on the primary before serving.
func (p *Platform) EnableChangelog(retainQuads int) *store.Changelog {
	cl := p.Store.EnableChangelog(retainQuads)
	if p.restoredLogPos > 0 {
		cl.SeedFloor(p.restoredLogPos)
	}
	return cl
}

// ChangelogPosition returns the platform's position in the mutation
// changelog: the live head when a changelog is enabled, otherwise the
// position persisted in the snapshot this platform was restored from. A
// follower starts tailing from this cursor.
func (p *Platform) ChangelogPosition() uint64 {
	if cl := p.Store.Changelog(); cl != nil {
		return cl.Head()
	}
	return p.restoredLogPos
}

// emitDelta appends a platform delta to the changelog, when one is
// enabled. Gen stamps the store generation the delta is consistent with;
// followers do not gate on it for aux records (an AddPipelines running
// concurrently may interleave quad records), it is diagnostic only.
func (p *Platform) emitDelta(d *PlatformDelta) {
	if cl := p.Store.Changelog(); cl != nil {
		cl.AppendAux(d, p.Store.Generation())
	}
}

// ApplyPlatformDelta applies a replicated platform delta through the same
// apply the primary's own mutations end in; the store half arrives as
// separate quad records. Deltas must be applied in log order.
func (p *Platform) ApplyPlatformDelta(d *PlatformDelta) {
	p.ingestMu.Lock()
	defer p.ingestMu.Unlock()
	p.apply(d)
}
