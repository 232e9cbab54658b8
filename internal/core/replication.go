package core

import (
	"kglids/internal/embed"
	"kglids/internal/profiler"
	"kglids/internal/schema"
	"kglids/internal/store"
)

// PlatformDelta is one table mutation, whole: the tables it removes and the
// profiles, similarity edges and table embeddings it adds. An update is
// both, the old version removed and the new one added. It is what commit
// takes and what a changelog record holds; the mutation's quads are a
// function of it (schema.MetadataQuads, schema.EdgeQuads and the removed
// tables' resident edges), so they never travel.
type PlatformDelta struct {
	// Removed are the "dataset/table" IDs that leave the platform before
	// the additions: the table of a removal, or the versions an update
	// replaces.
	Removed []string
	// Profiles, Edges, and TableEmbeddings describe an addition (AddTables
	// / AddSource): the profiles added, the delta similarity edges in
	// schema.SortEdges order, and the new or updated table embeddings.
	Profiles        []*profiler.ColumnProfile
	Edges           []schema.Edge
	TableEmbeddings map[string]embed.Vector
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

// record appends a committed mutation to the changelog, when one is
// enabled, stamped with the store generation after it. Every quad the
// mutation added or removed bumped the generation once, so the distance
// from before is the record's weight. Caller holds ingestMu.
func (p *Platform) record(kind store.ChangeKind, body any, before uint64) {
	if cl := p.Store.Changelog(); cl != nil {
		gen := p.Store.Generation()
		cl.Append(kind, body, int(gen-before), gen)
	}
}

// ApplyPlatformDelta commits a replicated table mutation through the same
// commit the primary's own mutations are. Deltas must be applied in log
// order.
func (p *Platform) ApplyPlatformDelta(d *PlatformDelta) {
	p.ingestMu.Lock()
	defer p.ingestMu.Unlock()
	p.commit(d)
}
