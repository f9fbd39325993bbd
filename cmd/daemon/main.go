// Command daemon wires the operation engine to the v1 HTTP API and
// runs until interrupted, then drains in-flight operations before
// exiting. Past the drain deadline, every still-running operation's
// context is cancelled — the same signal DELETE /v1/operations/{id}
// delivers — and the process exits without waiting for handlers to
// unwind; an operation mid-unwind at that point never records its
// terminal state.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"opdaemon/internal/api"
	"opdaemon/internal/core"
	"opdaemon/internal/engine"
)

// daemonConfig collects every tunable so run stays testable and the
// flag list has one home.
type daemonConfig struct {
	addr           string
	debugAddr      string
	workers        int
	queueDepth     int
	drainTimeout   time.Duration
	opTTL          time.Duration
	gcInterval     time.Duration
	trustClientHdr bool
	store          string
	walDir         string
	walSync        string
}

func main() {
	var cfg daemonConfig
	// ExitOnError: a bad flag prints usage and exits 2, as flag.Parse does.
	_ = newFlagSet(&cfg).Parse(os.Args[1:])
	if err := run(cfg); err != nil {
		log.Fatalf("daemon: %v", err)
	}
}

// newFlagSet registers every daemon flag on a fresh FlagSet that parses
// into cfg; the drift test in main_test.go checks the set against the
// Tuning table of docs/architecture.md.
func newFlagSet(cfg *daemonConfig) *flag.FlagSet {
	fs := flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	fs.StringVar(&cfg.addr, "addr", "127.0.0.1:8712", "listen address")
	fs.StringVar(&cfg.debugAddr, "debug-addr", "", "serve net/http/pprof on this address (e.g. 127.0.0.1:6060); empty disables — never expose it publicly")
	fs.IntVar(&cfg.workers, "workers", 8, "concurrent operation workers")
	fs.IntVar(&cfg.queueDepth, "queue-depth", 1024, "max queued operations")
	fs.DurationVar(&cfg.drainTimeout, "drain-timeout", 30*time.Second, "max time to drain operations on shutdown")
	fs.DurationVar(&cfg.opTTL, "op-ttl", 0, "retention for terminal operations; 0 keeps them forever, >0 starts a janitor that evicts older ones")
	fs.DurationVar(&cfg.gcInterval, "gc-interval", 0, "how often the janitor sweeps (default op-ttl/2, min 1s); ignored when -op-ttl is 0")
	fs.StringVar(&cfg.store, "store", "memory", "operation store backend: memory (state dies with the process) or wal (persistent write-ahead log under -wal-dir with crash recovery)")
	fs.StringVar(&cfg.walDir, "wal-dir", "", "write-ahead log directory, required with -store=wal; created if absent")
	fs.StringVar(&cfg.walSync, "wal-sync", string(engine.WALSyncGroup), "wal fsync policy: always (fsync per mutation), group (commit as soon as anything is staged; whatever arrives during that fsync shares the next one; submissions wait, transitions are logged asynchronously), or none (never fsync)")
	fs.BoolVar(&cfg.trustClientHdr, "trust-client-header", true, "honour X-Client-Id for fair-queueing attribution; set false for untrusted clients (the header is unauthenticated, so a greedy client could mint fresh scheduler queues per request) to key on remote address only")
	return fs
}

// run wires the engine, store, and HTTP server together and blocks
// until a signal triggers the drain sequence.
func run(cfg daemonConfig) error {
	// The engine would quietly replace a non-positive size with its own
	// default, which the startup log would then misreport.
	if cfg.workers <= 0 {
		return fmt.Errorf("-workers must be positive, got %d", cfg.workers)
	}
	if cfg.queueDepth <= 0 {
		return fmt.Errorf("-queue-depth must be positive, got %d", cfg.queueDepth)
	}
	// A negative duration would otherwise read as "keep forever" (TTL),
	// "use the default" (GC interval) or an already expired drain.
	for _, d := range []struct {
		flag string
		v    time.Duration
	}{{"-op-ttl", cfg.opTTL}, {"-gc-interval", cfg.gcInterval}, {"-drain-timeout", cfg.drainTimeout}} {
		if d.v < 0 {
			return fmt.Errorf("%s must not be negative, got %s", d.flag, d.v)
		}
	}
	var store engine.Store
	var walStore *engine.WALStore
	switch cfg.store {
	case "memory":
		if cfg.walDir != "" {
			return fmt.Errorf("-wal-dir needs -store=wal: -store=memory writes nothing to %s", cfg.walDir)
		}
		// -wal-sync means nothing to this store, but a typo in it is
		// refused the way -store=wal refuses it.
		if m := engine.WALSyncMode(cfg.walSync); m != "" && !m.Valid() {
			return fmt.Errorf("wal: unknown sync mode %q (want %s, %s, or %s)",
				m, engine.WALSyncAlways, engine.WALSyncGroup, engine.WALSyncNone)
		}
		store = engine.NewShardedStore(0)
	case "wal":
		if cfg.walDir == "" {
			return fmt.Errorf("-store=wal requires -wal-dir")
		}
		ws, err := engine.OpenWALStore(engine.WALConfig{Dir: cfg.walDir, Sync: engine.WALSyncMode(cfg.walSync)})
		if err != nil {
			return fmt.Errorf("opening wal store: %w", err)
		}
		store, walStore = ws, ws
	default:
		return fmt.Errorf("unknown -store %q (want memory or wal)", cfg.store)
	}
	eng := engine.New(engine.Config{
		Workers:    cfg.workers,
		QueueDepth: cfg.queueDepth,
		Store:      store,
		OpTTL:      cfg.opTTL,
		GCInterval: cfg.gcInterval,
	})
	registerBuiltins(eng)

	// With a durable store, the replayed state may hold work from the
	// previous process: requeue what never ran, fail what was running
	// when it died. This must happen after handler registration and
	// before the listener opens.
	if walStore != nil {
		requeued, interrupted, err := eng.Recover(context.Background())
		if err != nil {
			return errors.Join(fmt.Errorf("recovering operations from wal: %w", err),
				drain(eng, walStore, cfg.drainTimeout))
		}
		if requeued > 0 || interrupted > 0 {
			log.Printf("daemon: wal recovery requeued %d operations, failed %d interrupted ones", requeued, interrupted)
		}
	}

	// The pprof endpoints live on their own listener so profiles can be
	// pulled from a live soak without exposing them on the API address;
	// off by default because they leak internals and cost CPU to serve.
	if cfg.debugAddr != "" {
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		dsrv := &http.Server{
			Addr:              cfg.debugAddr,
			Handler:           dmux,
			ReadHeaderTimeout: 5 * time.Second,
		}
		defer dsrv.Close()
		go func() {
			log.Printf("daemon: pprof on http://%s/debug/pprof/ (keep this address private)", cfg.debugAddr)
			if err := dsrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
				// A dead debug listener should not take the daemon down;
				// profiling is just unavailable.
				log.Printf("daemon: debug server: %v", err)
			}
		}()
	}

	srv := &http.Server{
		Addr:              cfg.addr,
		Handler:           api.New(eng, api.WithClientHeaderTrust(cfg.trustClientHdr)),
		ReadHeaderTimeout: 5 * time.Second,
		// Bound request reads, response writes, and idle keep-alives
		// so a client trickling bytes in either direction can't hold
		// a goroutine forever. The write timeout must outlast the
		// longest long-poll, or the server would cut ?wait=true
		// connections mid-wait; the margin covers writing the response
		// after the wait resolves.
		ReadTimeout:  30 * time.Second,
		WriteTimeout: api.MaxWait + 15*time.Second,
		IdleTimeout:  2 * time.Minute,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		log.Printf("daemon: listening on http://%s (store=%s workers=%d queue=%d shards=%d ttl=%s)",
			cfg.addr, cfg.store, cfg.workers, cfg.queueDepth, engine.DefaultShardCount(), cfg.opTTL)
		if err := srv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
			return
		}
		errc <- nil
	}()

	var serveErr error
	select {
	case err := <-errc:
		// Nothing was served, but recovery may have requeued work: it
		// drains and the log closes as on a signal.
		serveErr = fmt.Errorf("serving: %w", err)
	case <-ctx.Done():
		// Restore default signal disposition so a second SIGINT or
		// SIGTERM during the drain kills the process immediately.
		stop()
	}

	// HTTP shutdown and engine drain get separate budgets so a
	// stalled client connection cannot starve operation draining.
	// When the drain budget expires, engine.Shutdown cancels every
	// in-flight operation's context — the per-operation cancellation
	// path — and returns immediately; the process then exits without
	// waiting for handlers to unwind, so the budget must cover any
	// terminal-state bookkeeping that matters.
	log.Printf("daemon: shutting down, draining for up to %s", cfg.drainTimeout)
	httpCtx, cancelHTTP := context.WithTimeout(context.Background(), cfg.drainTimeout)
	defer cancelHTTP()
	if err := srv.Shutdown(httpCtx); err != nil {
		log.Printf("daemon: http shutdown: %v", err)
	}
	if err := drain(eng, walStore, cfg.drainTimeout); err != nil || serveErr != nil {
		return errors.Join(serveErr, err)
	}
	log.Print("daemon: drained cleanly")
	return nil
}

// drain shuts eng down within timeout, then closes the WAL store if
// there is one, which also releases its directory lock. The log closes
// even after a failed drain: whatever terminal states the drain did
// record should survive the restart.
func drain(eng *engine.Engine, walStore *engine.WALStore, timeout time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	err := eng.Shutdown(ctx)
	if walStore != nil {
		if cerr := walStore.Close(); cerr != nil {
			log.Printf("daemon: closing wal store: %v", cerr)
		}
	}
	if err != nil {
		return fmt.Errorf("draining engine: %w", err)
	}
	return nil
}

// noopResult is what every noop returns: already JSON, which the engine
// publishes as it is, and boxed once here rather than on every call.
var noopResult any = json.RawMessage(`{"ok":true}`)

// registerBuiltins installs the demo operation kinds the daemon ships
// with; real workloads register their own kinds here as the system
// grows.
func registerBuiltins(eng *engine.Engine) {
	eng.Register("noop", func(context.Context, *core.Operation) (any, error) {
		return noopResult, nil
	})
	eng.Register("echo", func(_ context.Context, op *core.Operation) (any, error) {
		return op.Params, nil
	})
	// sleep sleeps at most 60s, so its 90s deadline only fires for a
	// wedged handler; it doubles as the reference for WithDeadline.
	eng.Register("sleep", func(ctx context.Context, op *core.Operation) (any, error) {
		ms, ok := op.Params["ms"].(float64)
		if !ok || ms < 0 || ms > 60_000 {
			return nil, &core.InvalidError{Field: "ms", Reason: "must be a number between 0 and 60000"}
		}
		select {
		case <-time.After(time.Duration(ms) * time.Millisecond):
			return map[string]any{"slept_ms": ms}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}, engine.WithDeadline(90*time.Second))
	eng.Register("fail", func(context.Context, *core.Operation) (any, error) {
		return nil, errors.New("operation failed on request")
	})
}
