package main

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"anyscan/internal/graph"
	"anyscan/internal/index"
	"anyscan/internal/server"
)

// Operation kinds. Latencies are kept per kind; no percentile mixes kinds.
const (
	kindQuery       = "query"        // GET /v1/query with the full assignment
	kindProfile     = "profile"      // GET /v1/query with an ε list
	kindLocal       = "local"        // GET /v1/local with members
	kindMutate      = "mutate"       // POST /v1/graphs/{name}/edges
	kindBuild       = "build"        // evict, register, first exact answer
	kindBuildApprox = "build_approx" // the same at approx=buildApprox
)

// op is one request a client sends.
type op struct {
	kind     string
	cell     int // index into the workload's grid, for the checks
	mu       int
	eps      float64
	epsList  []float64
	seed     int32
	minEpoch int64
	approx   float64
	muts     []server.MutationSpec
}

// reply holds the decoded answer of one op.
type reply struct {
	query  server.QueryResponse
	local  server.LocalResponse
	mutate server.MutateResponse
}

// warmupLoop is the untimed closed loop that runs every client's request
// path, and in the traced run opens its keep-alive connection, before timing
// starts.
const warmupLoop = 300 * time.Millisecond

// bench is one running workload: the generated graph file, the in-process
// server, and the typed client that drives it. The untraced run's client
// hands each request to Server.ServeHTTP on its own goroutine; the traced
// run's client sends it over a loopback listener, so that its spans time the
// socket transport too.
type bench struct {
	cfg       config
	wl        workload
	out       io.Writer
	dir       string   // absolute work directory
	name      string   // registry name of the workload graph
	path      string   // the generated graph file
	files     []string // generated files, removed at close
	srv       *server.Server
	hs        *http.Server // the traced run's listener, else nil
	served    chan error
	transport *http.Transport
	th        *timedHandler // the traced run's server handler, else nil
	client    *server.Client
	setup     []float64 // seconds per setup sample
}

// start generates the graph, writes it to the work directory and starts the
// server and the client.
func start(cfg config, wl workload, out io.Writer) (*bench, error) {
	dir, err := filepath.Abs(cfg.workdir)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	g := wl.graph(cfg.seed, cfg.scale)
	wl.prepare(g)
	fmt.Fprintf(out, "# graph: %d vertices, %d edges\n", g.NumVertices(), g.NumEdges())
	path := filepath.Join(dir, fmt.Sprintf("%s-%d.bin", wl.name(), cfg.seed))
	if err := writeGraph(path, g); err != nil {
		return nil, err
	}
	srv, err := server.New(server.Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	if err != nil {
		os.Remove(path)
		return nil, err
	}
	b := &bench{cfg: cfg, wl: wl, out: out, dir: dir, name: wl.name(), path: path, files: []string{path}, srv: srv}
	// One attempt: a refused or failed request counts as failed instead of
	// being hidden by a retry.
	b.client = &server.Client{
		BaseURL: "http://anyscand",
		HTTP:    &http.Client{Transport: inProcess{srv}},
		Retry:   server.RetryPolicy{MaxAttempts: 1},
	}
	if !cfg.trace {
		return b, nil
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Drain(context.Background())
		os.Remove(path)
		return nil, err
	}
	// Traced requests carry their operation id to a handler that times
	// Server.ServeHTTP.
	b.th = &timedHandler{srv: srv}
	b.hs, b.served = &http.Server{Handler: b.th}, make(chan error, 1)
	b.transport = &http.Transport{MaxIdleConnsPerHost: 16, DisableCompression: true}
	b.client.BaseURL = "http://" + ln.Addr().String()
	b.client.HTTP.Transport = tagTransport{base: b.transport}
	go func() { b.served <- b.hs.Serve(ln) }()
	return b, nil
}

// inProcess serves each request by calling Server.ServeHTTP on the caller's
// goroutine: the whole server path (routing, parsing, admission, the index,
// JSON encoding) without a socket. Over loopback, every request also hands
// off between goroutines on both CPUs, and on a shared host that handoff
// waits for the host to run the other CPU: the same seeds, run in turn over
// loopback and in process, spread three times wider in CPU time per request
// on mixed_rw over loopback (README.md).
type inProcess struct{ h http.Handler }

func (t inProcess) RoundTrip(r *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, r)
	if r.Body != nil {
		r.Body.Close()
	}
	return rec.Result(), nil
}

func writeGraph(path string, g *graph.CSR) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := g.WriteBinary(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// close stops the listener, the server and its job pool, and removes the
// generated graph files (the span dump stays).
func (b *bench) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if b.hs != nil {
		if err := b.hs.Shutdown(ctx); err != nil {
			fmt.Fprintln(b.out, "# shutdown:", err)
		}
		<-b.served
		b.transport.CloseIdleConnections()
	}
	if err := b.srv.Drain(ctx); err != nil {
		fmt.Fprintln(b.out, "# drain:", err)
	}
	for _, f := range b.files {
		os.Remove(f)
	}
}

func (b *bench) load(ctx context.Context, name, path string) error {
	_, err := b.client.LoadGraph(ctx, server.LoadGraphRequest{Name: name, GraphSource: server.GraphSource{Path: path}})
	return err
}

// exactIndex builds the in-process reference index from the graph file.
func (b *bench) exactIndex() (*index.Index, error) {
	g, _, err := graph.LoadFile(b.path)
	if err != nil {
		return nil, err
	}
	return index.Build(g, 0), nil
}

func (b *bench) tracePath() string {
	return filepath.Join(b.dir, fmt.Sprintf("trace-%s-%d.jsonl", b.wl.name(), b.cfg.seed))
}

// do sends one op through the typed client.
func (b *bench) do(ctx context.Context, o *op) (*reply, error) {
	name := b.name
	r := &reply{}
	var err error
	switch o.kind {
	case kindQuery:
		r.query, err = b.client.QueryEpoch(ctx, name, o.mu, o.eps, o.minEpoch, true)
	case kindProfile:
		r.query, err = b.client.QueryProfile(ctx, name, o.mu, o.epsList, 0)
	case kindLocal:
		r.local, err = b.client.LocalEpoch(ctx, name, o.seed, o.mu, o.eps, o.minEpoch, true)
	case kindMutate:
		r.mutate, err = b.client.Mutate(ctx, name, o.muts)
	case kindBuild, kindBuildApprox:
		// A cold graph: drop it, register the file again and ask the first
		// question, which builds the index.
		if err = b.client.EvictGraph(ctx, name); err == nil {
			if err = b.load(ctx, name, b.path); err == nil {
				r.query, err = b.client.QueryApprox(ctx, name, o.mu, o.eps, o.approx, false)
			}
		}
	default:
		err = fmt.Errorf("unknown operation kind %q", o.kind)
	}
	return r, err
}

// measureSetup registers the graph file cfg.setups times, each time through
// its first answered request (which builds the index), and keeps the last
// registration for the timed phase.
func (b *bench) measureSetup(ctx context.Context) error {
	for k := 0; k < b.cfg.setups; k++ {
		if k > 0 {
			if err := b.client.EvictGraph(ctx, b.name); err != nil {
				return fmt.Errorf("setup: %w", err)
			}
		}
		runtime.GC()
		t := time.Now()
		if err := b.load(ctx, b.name, b.path); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		if _, err := b.do(ctx, b.wl.first()); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		b.setup = append(b.setup, time.Since(t).Seconds())
	}
	return nil
}

// warmup runs untimed: the workload's own touches (every core order and
// explorer the timed phase reuses), then a short closed loop of every
// client.
func (b *bench) warmup(ctx context.Context) error {
	if err := b.wl.warmup(ctx, b); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	if p := b.closedLoop(warmupLoop, b.untraced(ctx)); p.firstErr != nil {
		return fmt.Errorf("warm-up: %w", p.firstErr)
	}
	return nil
}

// phase is the outcome of one closed-loop phase.
type phase struct {
	lat       map[string][]float64 // milliseconds per operation kind
	attempted int64
	failed    int64
	elapsed   time.Duration
	firstErr  error
}

// stepFunc performs client c's next operation and returns its kind, its
// latency and whether it failed or was answered wrongly.
type stepFunc func(c int) (kind string, lat time.Duration, err error)

// closedLoop runs the workload's clients for d; each sends its next request
// only after the previous one was answered.
func (b *bench) closedLoop(d time.Duration, step stepFunc) *phase {
	parts := make([]phase, b.wl.clients())
	start := time.Now()
	var wg sync.WaitGroup
	for c := range parts {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			p := &parts[c]
			p.lat = map[string][]float64{}
			for time.Since(start) < d {
				kind, lat, err := step(c)
				p.attempted++
				if err != nil {
					p.failed++
					if p.firstErr == nil {
						p.firstErr = fmt.Errorf("%s: %w", kind, err)
					}
					continue
				}
				p.lat[kind] = append(p.lat[kind], ms(lat))
			}
		}(c)
	}
	wg.Wait()
	all := &phase{lat: map[string][]float64{}, elapsed: time.Since(start)}
	for _, p := range parts {
		all.attempted += p.attempted
		all.failed += p.failed
		if all.firstErr == nil {
			all.firstErr = p.firstErr
		}
		for k, v := range p.lat {
			all.lat[k] = append(all.lat[k], v...)
		}
	}
	return all
}

// untraced is the step of the untimed warm-up and of the timed phase.
func (b *bench) untraced(ctx context.Context) stepFunc {
	return func(c int) (string, time.Duration, error) {
		o := b.wl.next(c)
		t := time.Now()
		r, err := b.do(ctx, o)
		lat := time.Since(t)
		if err == nil {
			err = b.wl.observe(c, o, r)
		}
		return o.kind, lat, err
	}
}

// runTimed is the untraced run: setup samples, warm-up, the timed closed
// loop, then the checks.
func (b *bench) runTimed(rep *report) (*result, error) {
	ctx := context.Background()
	if err := b.measureSetup(ctx); err != nil {
		return nil, err
	}
	if err := b.warmup(ctx); err != nil {
		return nil, err
	}
	runtime.GC()
	cpu0 := processCPU()
	p := b.closedLoop(b.cfg.duration, b.untraced(ctx))
	cpu := processCPU() - cpu0
	if cpu <= 0 {
		return nil, fmt.Errorf("the timed phase measured no CPU time")
	}
	heap := liveHeapMB()
	if p.firstErr != nil {
		fmt.Fprintf(b.out, "# first failure: %v\n", p.firstErr)
	}
	requests, wrong, err := b.wl.verify(ctx, b)
	if err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}

	rep.set("setup_s", median(b.setup), "s")
	b.reportLatencies(rep, p)
	completed := float64(p.attempted - p.failed)
	rep.set("throughput_ops", completed/p.elapsed.Seconds(), "1/s")
	rep.set("cpu_ms_per_op", ms(cpu)/completed, "ms")
	rep.set("heap_mb", heap, "MB")
	attempted, failed := p.attempted+requests, p.failed+wrong
	rep.set("error_rate", float64(failed)/float64(attempted), "ratio")
	return rep.result(endToEnd, attempted, failed)
}

// reportLatencies prints, per operation kind, the sample count, p50 and —
// with at least 1000 samples — p99, and sets op_p50_ms from the workload's
// primary kind.
func (b *bench) reportLatencies(rep *report, p *phase) {
	kinds := make([]string, 0, len(p.lat))
	for k := range p.lat {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		v := p.lat[k]
		rep.set(k+"_samples", float64(len(v)), "count")
		rep.set(k+"_p50_ms", percentile(v, 0.5), "ms")
		if len(v) >= 1000 {
			rep.set(k+"_p99_ms", percentile(v, 0.99), "ms")
		}
	}
	rep.set("op_p50_ms", percentile(p.lat[b.wl.primary()], 0.5), "ms")
}
