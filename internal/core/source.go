package core

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"kglids/internal/connector"
)

// Source-based ingestion: tables arrive as connector chunks and are
// profiled by the same one-pass accumulators as in-memory frames (see
// internal/profiler), so the lake never has to fit in memory. The
// profiles enter the same addProfiles as Bootstrap's and AddTables', so
// both routes produce identical platforms for identical data.

// OpenSource opens a connector URI with the platform's streaming
// configuration.
func (p *Platform) OpenSource(uri string) (connector.Source, error) {
	return connector.OpenWith(uri, connector.Options{ChunkRows: p.cfg.ChunkRows})
}

// BootstrapSource streams a connector source and commits its profiles onto
// the empty platform — Bootstrap for lakes that don't fit in memory.
// Tables that fail to open or stream are skipped and reported in the
// returned map by table ID; enumeration failure or context cancellation
// fails the call.
func BootstrapSource(ctx context.Context, cfg Config, uri string) (*Platform, map[string]error, error) {
	src, err := connector.OpenWith(uri, connector.Options{ChunkRows: cfg.ChunkRows})
	if err != nil {
		return nil, nil, err
	}
	p, tableErrs, err := bootstrap(ctx, cfg, src)
	if err != nil {
		return nil, nil, err
	}
	if len(p.Profiles) == 0 {
		return nil, tableErrs, fmt.Errorf("core: no readable tables in source %s", uri)
	}
	return p, tableErrs, nil
}

// AddSourceTable streams one connector table into the live platform with
// AddTables' update semantics (an existing ID is replaced). Profiling
// happens outside the ingest lock — concurrent callers stream tables in
// parallel and only addProfiles is serialized.
func (p *Platform) AddSourceTable(ctx context.Context, src connector.Source, ref connector.TableRef) error {
	id, err := TableID(ref.Dataset, ref.Table)
	if err != nil {
		return err
	}
	r, err := src.Open(ctx, ref)
	if err != nil {
		return err
	}
	profiles, err := p.profiler.ProfileTableStream(ctx, ref.Dataset, ref.Table, r)
	r.Close()
	if err != nil {
		return err
	}
	p.addProfiles([]string{id}, profiles)
	return nil
}

// SourceReport summarizes a synchronous AddSource call.
type SourceReport struct {
	// Added lists the ingested table IDs (including updates), sorted.
	Added []string
	// Failed maps table IDs that could not be streamed to their errors.
	Failed map[string]error
}

// AddSource streams every table of a connector URI into the live
// platform, in parallel across the configured worker count.
func (p *Platform) AddSource(ctx context.Context, uri string) (*SourceReport, error) {
	src, err := p.OpenSource(uri)
	if err != nil {
		return nil, err
	}
	refs, err := src.Tables(ctx)
	if err != nil {
		return nil, err
	}
	rep := &SourceReport{Failed: map[string]error{}}
	var mu sync.Mutex
	var wg sync.WaitGroup
	ch := make(chan connector.TableRef)
	for w := 0; w < p.cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ref := range ch {
				err := p.AddSourceTable(ctx, src, ref)
				mu.Lock()
				if err != nil {
					rep.Failed[ref.ID()] = err
				} else {
					rep.Added = append(rep.Added, ref.ID())
				}
				mu.Unlock()
			}
		}()
	}
	for _, ref := range refs {
		ch <- ref
	}
	close(ch)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sort.Strings(rep.Added)
	return rep, nil
}
