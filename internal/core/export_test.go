package core

import "kglids/internal/schema"

// ExhaustiveEdges is the oracle the resident edge store is held to: the
// reference pair-by-pair build over the current profiles, configured as the
// platform's own mutations are, in schema.SortEdges order.
func (p *Platform) ExhaustiveEdges() []schema.Edge {
	edges := p.newBuilder().SimilarityEdgesExhaustive(p.ProfilesView())
	schema.SortEdges(edges)
	return edges
}

// RetractedEdges returns the edges a removal of table id would retract.
func (p *Platform) RetractedEdges(id string) []schema.Edge {
	p.ingestMu.Lock()
	defer p.ingestMu.Unlock()
	table, _ := p.Store.EncodeTerm(schema.TableIRI(id))
	return p.adj.tableEdges(table)
}
