package core

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"kglids/internal/connector"
)

// Source-based ingestion: the streaming twin of Bootstrap/AddTables.
// Tables arrive as connector chunks and are profiled by the one-pass
// accumulators in internal/profiler, so the lake never has to fit in
// memory — then the resulting profiles enter the same addProfiles as
// in-memory profiling, making the two routes produce identical platforms
// for identical data.

// connectorOpts derives the streaming options from the platform config.
func (p *Platform) connectorOpts() connector.Options {
	return connector.Options{ChunkRows: p.cfg.ChunkRows}
}

// OpenSource opens a connector URI with the platform's streaming
// configuration.
func (p *Platform) OpenSource(uri string) (connector.Source, error) {
	return connector.OpenWith(uri, p.connectorOpts())
}

// BootstrapSource streams a connector source and bootstraps a platform
// from its profiles — Bootstrap for lakes that don't fit in memory.
// Tables that fail to open or stream are skipped and reported in the
// returned map by table ID (mirroring the lake walker's skip-unreadable
// behavior); enumeration failure or context cancellation fails the call.
func BootstrapSource(ctx context.Context, cfg Config, uri string) (*Platform, map[string]error, error) {
	p := newPlatform(cfg)
	src, err := connector.OpenWith(uri, p.connectorOpts())
	if err != nil {
		return nil, nil, err
	}
	start := time.Now()
	profiles, tableErrs, err := p.profiler.ProfileSource(ctx, src)
	if err != nil {
		return nil, nil, err
	}
	if len(profiles) == 0 {
		return nil, tableErrs, fmt.Errorf("core: no readable tables in source %s", uri)
	}
	p.finishBootstrap(profiles, time.Since(start))
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
// platform, in parallel across the configured worker count. It is the
// synchronous convenience over AddSourceTable; the ingest job manager
// offers the same route asynchronously with fingerprint skipping
// (ingest.Manager.SubmitSource).
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
	workers := p.cfg.Workers
	if workers < 1 {
		workers = p.profiler.Workers
	}
	if workers < 1 {
		workers = 1
	}
	var wg sync.WaitGroup
	ch := make(chan connector.TableRef)
	for w := 0; w < workers; w++ {
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
