// Command anyscand serves anySCAN clustering over HTTP: a registry of loaded
// graphs, asynchronous anytime clustering jobs (submit / poll / snapshot /
// pause / resume / cancel), and interactive (μ, ε) queries on /v1/query,
// answered from a per-graph query index built with a single similarity pass
// per graph. Graphs are mutable while being served: POST
// /v1/graphs/{name}/edges applies a batch of edge mutations, patches the
// index incrementally, and publishes the result as a new epoch whose token
// gives read-your-writes on /v1/query via ?min_epoch=.
//
//	anyscand -addr :8080 -checkpoint-dir /var/lib/anyscand
//
// With -checkpoint-dir, unfinished jobs survive daemon restarts: each has a
// manifest and an atomic checkpoint, recovered into the paused state on
// startup. SIGINT/SIGTERM drains gracefully — running jobs park at a
// consistent point and checkpoint before the listener shuts down.
//
// Graphs can be preloaded at startup:
//
//	anyscand -preload graph.metis -preload name=web:web.bin -preload dataset:GR01L
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"anyscan/internal/server"
)

type preloadList []string

func (p *preloadList) String() string     { return strings.Join(*p, ",") }
func (p *preloadList) Set(v string) error { *p = append(*p, v); return nil }

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	ckptDir := flag.String("checkpoint-dir", "", "directory for job manifests and checkpoints (empty = jobs do not survive restarts)")
	workers := flag.Int("workers", 2, "concurrent clustering jobs")
	ckptSteps := flag.Int("checkpoint-every", 16, "checkpoint running jobs every N steps (0 = only on pause/drain)")
	indexThreads := flag.Int("index-threads", 0, "workers for query-index construction (0 = GOMAXPROCS)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "how long to wait for running jobs to park on shutdown")
	buildSlots := flag.Int("build-slots", 0, "concurrent index builds admitted (0 = default 2)")
	admissionQueue := flag.Int("admission-queue", 0, "bounded admission wait queue depth (0 = default 16, negative = shed immediately at saturation)")
	admissionWait := flag.Duration("admission-wait", 0, "max time a request waits in the admission queue before being shed (0 = default 2s)")
	queryTimeout := flag.Duration("query-timeout", 0, "default deadline on index-building routes (0 = default 60s, negative = none)")
	requestTimeout := flag.Duration("request-timeout", 0, "default deadline on all other routes (0 = default 15s, negative = none)")
	rateLimit := flag.Float64("rate-limit", 0, "per-client request rate limit in req/s (0 = unlimited)")
	rateBurst := flag.Int("rate-burst", 0, "per-client rate-limit burst (0 = 2x rate)")
	indexBudgetMB := flag.Int64("index-memory-budget-mb", 0, "resident query-index memory budget in MiB; LRU-evicted above it (0 = unlimited)")
	graphFormat := flag.String("graph-format", "", "storage backend for preloaded graphs: csr (flat, default) or compressed (varint; .csrz files stay mmap-backed)")
	pprofAddr := flag.String("pprof-addr", "", "serve net/http/pprof on this separate address (e.g. localhost:6060; empty = disabled)")
	var preloads preloadList
	flag.Var(&preloads, "preload", "graph to load at startup: PATH, name=NAME:PATH, or dataset:NAME (repeatable)")
	flag.Parse()

	log := slog.New(slog.NewTextHandler(os.Stderr, nil))
	srv, err := server.New(server.Config{
		Manager: server.ManagerConfig{
			Workers:              *workers,
			CheckpointDir:        *ckptDir,
			CheckpointEverySteps: *ckptSteps,
			Logger:               log,
		},
		IndexThreads: *indexThreads,
		Overload: server.OverloadConfig{
			BuildSlots:        *buildSlots,
			QueueDepth:        *admissionQueue,
			QueueWait:         *admissionWait,
			QueryTimeout:      *queryTimeout,
			RequestTimeout:    *requestTimeout,
			RatePerSec:        *rateLimit,
			RateBurst:         *rateBurst,
			IndexMemoryBudget: *indexBudgetMB << 20,
		},
		Logger: log,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "anyscand:", err)
		os.Exit(1)
	}

	for _, spec := range preloads {
		name, src, err := parsePreload(spec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "anyscand:", err)
			os.Exit(1)
		}
		src.Format = *graphFormat
		e, err := srv.Registry().Load(name, src)
		if err != nil {
			fmt.Fprintln(os.Stderr, "anyscand:", err)
			os.Exit(1)
		}
		log.Info("graph preloaded", "name", e.Name, "vertices", e.G.NumVertices(), "edges", e.G.NumEdges())
	}

	// The profiler gets its own listener and mux so the main API surface never
	// exposes pprof endpoints: bind it to localhost (or a firewalled port) and
	// it stays reachable to operators only, even when the service port is
	// public. Off unless -pprof-addr is set.
	if *pprofAddr != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		pprofSrv := &http.Server{Addr: *pprofAddr, Handler: mux, ReadHeaderTimeout: 10 * time.Second}
		go func() {
			if err := pprofSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				log.Error("pprof listener", "err", err)
			}
		}()
		defer pprofSrv.Close()
		log.Info("pprof listening", "addr", *pprofAddr)
	}

	// ReadHeaderTimeout bounds slow-loris header dribbling before a handler is
	// even picked; per-route body/write deadlines are set by the server's
	// deadline middleware.
	httpSrv := &http.Server{Addr: *addr, Handler: srv, ReadHeaderTimeout: 10 * time.Second}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	log.Info("anyscand listening", "addr", *addr, "checkpoint_dir", *ckptDir, "workers", *workers)

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errCh:
		fmt.Fprintln(os.Stderr, "anyscand:", err)
		os.Exit(1)
	case sig := <-sigCh:
		log.Info("draining on signal", "signal", sig.String())
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		log.Error("drain incomplete", "err", err)
	}
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Error("shutdown", "err", err)
	}
	log.Info("anyscand stopped")
}

// parsePreload parses one -preload value: "PATH", "name=NAME:PATH", or
// "dataset:NAME[@SCALE]".
func parsePreload(spec string) (string, server.GraphSource, error) {
	name := ""
	if rest, ok := strings.CutPrefix(spec, "name="); ok {
		n, p, ok := strings.Cut(rest, ":")
		if !ok || n == "" || p == "" {
			return "", server.GraphSource{}, fmt.Errorf("bad -preload %q: want name=NAME:PATH", spec)
		}
		name, spec = n, p
	}
	if ds, ok := strings.CutPrefix(spec, "dataset:"); ok {
		scale := 0.0
		if d, s, ok := strings.Cut(ds, "@"); ok {
			if _, err := fmt.Sscanf(s, "%g", &scale); err != nil {
				return "", server.GraphSource{}, fmt.Errorf("bad -preload scale in %q", spec)
			}
			ds = d
		}
		return name, server.GraphSource{Dataset: ds, Scale: scale}, nil
	}
	return name, server.GraphSource{Path: spec}, nil
}
