// Command kglids-server exposes a KGLiDS platform over HTTP: the
// versioned /api/v1 surface (stable DTOs, cursor pagination, generation
// ETags, SPARQL 1.1 protocol — consumed through the typed client in
// package kglids/client) plus the /healthz load-balancer probe, mirroring
// the KGLiDS Interfaces in service form (paper Section 5). See
// docs/SERVER_API.md for the endpoint reference.
//
// The platform comes from one of two sources:
//
//   - -source URI    bootstrap by streaming a lake connector (dir://,
//     jsonl://, http(s)://, lakegen://) through the one-pass profiler in
//     bounded memory (profile, build the LiDS graph, index embeddings) —
//     the lake never has to fit in RAM. -lake DIR is shorthand for
//     -source dir://DIR: a directory of <dataset>/<table>.csv or .tsv
//     files;
//   - -snapshot FILE load a snapshot previously written with
//     -save-snapshot (or kglids.Platform.Save) — milliseconds, with
//     query results identical to the bootstrap that produced it.
//
// Usage:
//
//	kglids-server -lake DIR [-save-snapshot FILE] [-addr :8080]
//	kglids-server -source dir:///data/lake [-chunk-rows N] [-reservoir N]
//	kglids-server -snapshot FILE [-addr :8080]
//	kglids-server -lake DIR -ingest [-ingest-workers N] [-ingest-queue N]
//	kglids-server -lake DIR -debug-addr :9090 [-pprof] [-slow-query-ms 250]
//	kglids-server -replica -follow http://primary:8080 [-replica-poll 500ms]
//
// -replica serves a read-only follower: it boots from a snapshot (a local
// -snapshot file when given, otherwise streamed from the primary's
// /api/v1/snapshot), then tails the primary's mutation changelog, applying
// each record in sequence so reads converge on the primary's state with
// bounded staleness. Mutations are rejected with 405; /healthz reports
// role "replica" with the applied generation and replication lag. The
// primary side needs no flag: every non-replica server keeps a bounded
// changelog (-changelog-retention tunes it) and serves /api/v1/changelog.
//
// -save-snapshot persists the platform after it is ready (from either
// source), so the next start can skip bootstrapping.
//
// -ingest enables live mutation: POST /api/v1/ingest submits tables that
// an asynchronous worker pool profiles and splices into the serving graph,
// DELETE /api/v1/tables/{id} retracts a table, and GET /api/v1/jobs
// reports job states — no restart, no re-bootstrap. On shutdown queued
// jobs drain before the process exits (and before -save-snapshot runs,
// when given, so the saved snapshot reflects every accepted job).
//
// -debug-addr starts a second listener serving the diagnostics surface —
// /metrics (Prometheus text exposition), /debug/vars (expvar), and with
// -pprof the runtime profiles under /debug/pprof — kept off the public
// API address so operators can firewall it separately. -slow-query-ms
// logs any SPARQL query slower than the threshold with its per-stage
// breakdown. See docs/OBSERVABILITY.md.
//
// Logs are structured (log/slog): -log-format json emits one JSON object
// per line for ingestion into log pipelines, -log-level sets the floor.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"kglids"
	"kglids/client"
	"kglids/internal/ingest"
	"kglids/internal/server"
)

func main() {
	lakeDir := flag.String("lake", "", "data lake directory of <dataset>/<table>.csv or .tsv files (shorthand for -source dir://DIR)")
	source := flag.String("source", "", "connector URI to bootstrap by streaming (dir://, jsonl://, http://, lakegen://)")
	var opts kglids.Options
	flag.IntVar(&opts.ChunkRows, "chunk-rows", 0, "streaming connectors: rows per chunk (0 = default)")
	flag.IntVar(&opts.ReservoirSize, "reservoir", 0, "streaming profiler: per-column sample reservoir size (0 = default)")
	snapshotPath := flag.String("snapshot", "", "snapshot file to load instead of bootstrapping")
	saveSnapshot := flag.String("save-snapshot", "", "write the ready platform to this snapshot file")
	addr := flag.String("addr", ":8080", "listen address")
	timeout := flag.Duration("request-timeout", server.DefaultRequestTimeout, "per-request deadline")
	ingestMode := flag.Bool("ingest", false, "enable live mutation endpoints (POST /api/v1/ingest, DELETE /api/v1/tables/{id})")
	ingestWorkers := flag.Int("ingest-workers", 2, "ingestion worker pool size")
	ingestQueue := flag.Int("ingest-queue", 64, "bounded ingestion job queue size")
	accessLog := flag.Bool("access-log", true, "log one structured line per request (request ID, route, status, bytes, duration)")
	debugAddr := flag.String("debug-addr", "", "listen address for the diagnostics mux (/metrics, /debug/vars); empty disables it")
	pprofFlag := flag.Bool("pprof", false, "serve runtime profiles under /debug/pprof on the diagnostics mux (needs -debug-addr)")
	slowQueryMS := flag.Int("slow-query-ms", 0, "log SPARQL queries slower than this many milliseconds with their stage breakdown (0 disables)")
	logFormat := flag.String("log-format", "text", "log output format: text or json")
	logLevel := flag.String("log-level", "info", "minimum log level: debug, info, warn, or error")
	replicaMode := flag.Bool("replica", false, "serve as a read-only replica following a primary (needs -follow)")
	follow := flag.String("follow", "", "primary base URL to follow in -replica mode (e.g. http://primary:8080)")
	replicaPoll := flag.Duration("replica-poll", 500*time.Millisecond, "replica: at-head changelog poll interval (the idle staleness bound)")
	changelogRetention := flag.Int("changelog-retention", 0, "primary: quad-weighted changelog retention budget (0 = default)")
	flag.Parse()
	if *source == "" && *lakeDir != "" {
		*source = "dir://" + *lakeDir
	}

	logger, err := buildLogger(*logFormat, *logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "kglids-server:", err)
		os.Exit(2)
	}
	slog.SetDefault(logger)

	if *replicaMode && *follow == "" {
		fmt.Fprintln(os.Stderr, "kglids-server: -replica needs -follow PRIMARY_URL")
		flag.Usage()
		os.Exit(2)
	}
	if *snapshotPath == "" && *source == "" && !*replicaMode {
		fmt.Fprintln(os.Stderr, "kglids-server: need -lake DIR, -source URI, or -snapshot FILE")
		flag.Usage()
		os.Exit(2)
	}

	var primary *client.Client
	if *replicaMode {
		if primary, err = client.New(*follow); err != nil {
			logger.Error("startup failed", "err", err)
			os.Exit(1)
		}
	}

	var plat *kglids.Platform
	if *replicaMode {
		// A replica boots from a snapshot — a local file when one is given
		// and loadable, otherwise streamed from the primary — and then
		// tails the primary's changelog from the snapshot's position.
		plat, err = replicaPlatform(logger, primary, *snapshotPath)
	} else {
		plat, err = ready(logger, *snapshotPath, *source, opts)
	}
	if err != nil {
		logger.Error("startup failed", "err", err)
		os.Exit(1)
	}
	if *slowQueryMS > 0 {
		plat.SetSlowQuery(time.Duration(*slowQueryMS) * time.Millisecond)
	}
	stats := plat.Stats()
	logger.Info("LiDS graph ready",
		"triples", stats.Triples, "tables", stats.Tables, "similarity_edges", stats.SimilarityEdges)

	if !*replicaMode {
		// Every primary keeps a bounded mutation changelog so replicas can
		// attach at any time (GET /api/v1/changelog). The budget bounds
		// memory; snapshot saves advance the compaction floor.
		plat.EnableChangelog(*changelogRetention)
	}

	var manager *ingest.Manager
	if *ingestMode && *replicaMode {
		logger.Warn("-ingest ignored in -replica mode; replicas are read-only")
	} else if *ingestMode {
		manager = ingest.New(plat.Core(), ingest.Options{Workers: *ingestWorkers, QueueSize: *ingestQueue})
		logger.Info("live ingestion enabled", "workers", *ingestWorkers, "queue", *ingestQueue)
	}

	saveIfAsked := func() {
		if *saveSnapshot == "" {
			return
		}
		start := time.Now()
		if err := plat.Save(*saveSnapshot); err != nil {
			logger.Error("snapshot save failed", "path", *saveSnapshot, "err", err)
			return
		}
		logger.Info("snapshot saved", "path", *saveSnapshot,
			"duration", time.Since(start).Round(time.Millisecond).String())
	}
	saveIfAsked()

	srvOpts := server.Options{
		RequestTimeout: *timeout,
		Ingest:         manager,
		Logger:         logger,
		AccessLog:      *accessLog,
	}

	// In replica mode, tail the primary's changelog in the background for
	// the life of the process; reads keep serving throughout, so staleness
	// is bounded by apply latency plus the poll interval.
	followCtx, stopFollow := context.WithCancel(context.Background())
	defer stopFollow()
	if *replicaMode {
		tracker := kglids.NewReplicaTracker()
		srvOpts.Replica = tracker
		follower := &client.Follower{
			Client: primary,
			Cursor: plat.ChangelogPosition(),
			Poll:   *replicaPoll,
			Apply: func(e client.ChangeEntry) error {
				if err := plat.ApplyChange(e.Kind, e.Generation, e.Payload); err != nil {
					return err
				}
				tracker.ObserveApplied(plat.Generation(), e.TS)
				return nil
			},
			OnProgress: func(cursor, head uint64) {
				if cursor >= head {
					tracker.ObserveAtHead()
				}
			},
		}
		logger.Info("following primary", "primary", *follow,
			"cursor", follower.Cursor, "poll", replicaPoll.String())
		go func() {
			err := follower.Run(followCtx)
			switch {
			case errors.Is(err, context.Canceled):
				// Normal shutdown.
			case errors.Is(err, client.ErrCursorGone):
				logger.Error("replica cursor lost to primary compaction; restart to re-seed from a fresh snapshot", "err", err)
				os.Exit(1)
			case err != nil:
				logger.Error("replication failed; restart to re-seed from a fresh snapshot", "err", err)
				os.Exit(1)
			}
		}()
	}
	srv := &http.Server{
		Addr:    *addr,
		Handler: server.New(plat, srvOpts),
		// The handler enforces its own per-request deadline; these bound
		// slow or stalled clients at the connection level.
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      *timeout + 10*time.Second,
		IdleTimeout:       120 * time.Second,
	}

	var debugSrv *http.Server
	if *debugAddr != "" {
		debugSrv = &http.Server{
			Addr:              *debugAddr,
			Handler:           server.NewDebugHandler(plat, *pprofFlag),
			ReadHeaderTimeout: 10 * time.Second,
		}
		go func() {
			logger.Info("diagnostics on", "addr", *debugAddr, "pprof", *pprofFlag)
			if err := debugSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("debug listener failed", "err", err)
			}
		}()
	} else if *pprofFlag {
		logger.Warn("-pprof has no effect without -debug-addr")
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		logger.Info("shutting down")
		stopFollow()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if debugSrv != nil {
			if err := debugSrv.Shutdown(ctx); err != nil {
				logger.Warn("debug shutdown", "err", err)
			}
		}
		if err := srv.Shutdown(ctx); err != nil {
			logger.Warn("shutdown", "err", err)
		}
	}()

	logger.Info("serving", "addr", *addr)
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Error("listen failed", "err", err)
		os.Exit(1)
	}
	<-done

	if manager != nil {
		// Stop accepting mutations and drain queued jobs, then persist the
		// final state if a snapshot path was given — accepted jobs must not
		// vanish on restart. The drain happens before the save, so the
		// snapshot's changelog position covers every accepted mutation: a
		// follower resuming from the saved snapshot sees no gap.
		logger.Info("draining ingestion jobs")
		manager.Close()
		if !*replicaMode {
			logger.Info("changelog tail flushed", "position", plat.ChangelogPosition())
		}
		saveIfAsked()
	}
}

// buildLogger assembles the process logger from the -log-format and
// -log-level flags.
func buildLogger(format, level string) (*slog.Logger, error) {
	var lvl slog.Level
	switch strings.ToLower(level) {
	case "debug":
		lvl = slog.LevelDebug
	case "info":
		lvl = slog.LevelInfo
	case "warn":
		lvl = slog.LevelWarn
	case "error":
		lvl = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown -log-level %q (want debug, info, warn, or error)", level)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch strings.ToLower(format) {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("unknown -log-format %q (want text or json)", format)
	}
}

// replicaPlatform boots a follower's platform: from a local snapshot file
// when one is given and loadable, otherwise by streaming the primary's
// current snapshot over /api/v1/snapshot. Either way the platform carries
// the changelog position to resume tailing from.
func replicaPlatform(logger *slog.Logger, primary *client.Client, snapshotPath string) (*kglids.Platform, error) {
	if snapshotPath != "" {
		plat, err := kglids.Open(snapshotPath)
		switch {
		case err == nil:
			logger.Info("replica booted from local snapshot", "path", snapshotPath,
				"position", plat.ChangelogPosition())
			return plat, nil
		case errors.Is(err, os.ErrNotExist):
			logger.Info("local snapshot absent; fetching from primary", "path", snapshotPath)
		default:
			logger.Warn("local snapshot unusable; fetching from primary", "path", snapshotPath, "err", err)
		}
	}
	start := time.Now()
	body, err := primary.Snapshot(context.Background())
	if err != nil {
		return nil, fmt.Errorf("fetch snapshot from primary: %w", err)
	}
	defer body.Close()
	plat, err := kglids.Read(body)
	if err != nil {
		return nil, fmt.Errorf("load primary snapshot: %w", err)
	}
	logger.Info("replica booted from primary snapshot",
		"position", plat.ChangelogPosition(),
		"duration", time.Since(start).Round(time.Millisecond).String())
	return plat, nil
}

// ready produces a serving-ready platform: it loads snapshotPath when
// given, even beside a source, and otherwise bootstraps by streaming the
// source URI under opts.
func ready(logger *slog.Logger, snapshotPath, source string, opts kglids.Options) (*kglids.Platform, error) {
	if snapshotPath != "" {
		if source != "" {
			logger.Info("multiple platform sources given; loading snapshot", "path", snapshotPath)
		}
		start := time.Now()
		plat, err := kglids.Open(snapshotPath)
		if err != nil {
			return nil, err
		}
		logger.Info("snapshot loaded (no re-profiling)", "path", snapshotPath,
			"duration", time.Since(start).Round(time.Millisecond).String())
		return plat, nil
	}

	logger.Info("bootstrapping from connector", "uri", source)
	start := time.Now()
	plat, failed, err := kglids.BootstrapSource(context.Background(), opts, source)
	if err != nil {
		return nil, err
	}
	for id, ferr := range failed {
		logger.Warn("skipping unreadable table", "table", id, "err", ferr)
	}
	logger.Info("bootstrap finished",
		"duration", time.Since(start).Round(time.Millisecond).String())
	return plat, nil
}
