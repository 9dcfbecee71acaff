package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"anyscan/internal/graph"
	"anyscan/internal/index"
	"anyscan/internal/live"
	"anyscan/internal/local"
	"anyscan/internal/simeval"
)

// censusOps is how many requests of each kind the census sends.
const censusOps = 20

// runTraced is the traced run. An untraced closed loop of half the run
// length comes first: its latencies are the reference for the tracing
// overhead, and it gives gc.cpu_frac. The same clients then replay the
// workload's seeded operation sequence with spans for --seconds. After the
// checks, the census measures on the same graph every layer that traffic did
// not reach.
func (b *bench) runTraced(rep *report) (*result, error) {
	ctx := context.Background()
	b.cfg.setups = 1
	if err := b.measureSetup(ctx); err != nil {
		return nil, err
	}
	if err := b.warmup(ctx); err != nil {
		return nil, err
	}
	runtime.GC()
	cpu0 := readCPU()
	base := b.closedLoop(b.cfg.duration/2, b.untraced(ctx))
	// The runtime's CPU classes are brought up to date by a GC cycle.
	runtime.GC()
	rep.set("gc.cpu_frac", gcFrac(cpu0, readCPU()), "ratio")

	t, err := b.wl.traceTarget(ctx, b)
	if err != nil {
		return nil, fmt.Errorf("trace target: %w", err)
	}
	tr, lay := newTracer(), newLayers()
	runtime.GC()
	traced := b.closedLoop(b.cfg.duration, func(c int) (string, time.Duration, error) {
		o := b.wl.next(c)
		d, r, err := b.tracedOp(ctx, tr, lay, t, o)
		if err == nil {
			err = b.wl.observe(c, o, r)
		}
		return o.kind, d, err
	})
	for _, p := range []*phase{base, traced} {
		if p.firstErr != nil {
			fmt.Fprintf(b.out, "# first failure: %v\n", p.firstErr)
		}
	}
	requests, wrong, err := b.wl.verify(ctx, b)
	if err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}
	if t.lg != nil {
		n, bad, err := checkEpoch(t.lg.Epoch())
		if err != nil {
			return nil, fmt.Errorf("verify: %w", err)
		}
		requests, wrong = requests+n, wrong+bad
	}
	// The server's counters cover the workload's own traffic, not the
	// census's.
	m := b.srv.Metrics()
	rep.set("server.index_hit_rate", m.IndexHitRate(), "ratio")
	rep.set("server.admission_queued", float64(m.AdmissionQueued.Load()), "count")
	rep.set("server.admission_shed", float64(m.AdmissionShed.Load()), "count")
	sent, err := b.census(ctx, tr, lay, t, traced)
	if err != nil {
		return nil, fmt.Errorf("census: %w", err)
	}

	for _, d := range perLayer {
		if lay.has(d.name) {
			rep.set(d.name, lay.median(d.name), d.unit)
		}
	}
	rep.set("index.build_speedup", lay.median("index.build_t1_ms")/lay.median("index.build_ms"), "ratio")
	rep.set("index.bytes", float64(t.idx.Bytes()), "bytes")
	primary := b.wl.primary()
	ref, got := percentile(base.lat[primary], 0.5), percentile(traced.lat[primary], 0.5)
	rep.set("trace.overhead_ms", got-ref, "ms")
	rep.set("trace.overhead_frac", (got-ref)/ref, "ratio")
	var rootSelf []float64
	for i, d := range selfTimes(tr.spans) {
		if tr.spans[i].Parent < 0 {
			rootSelf = append(rootSelf, ms(d))
		}
	}
	rep.set("trace.root_self_ms", median(rootSelf), "ms")
	rep.set("trace.spans", float64(len(tr.spans)), "count")
	if err := tr.dump(b.tracePath()); err != nil {
		return nil, err
	}
	attempted := base.attempted + traced.attempted + sent + requests
	failed := base.failed + traced.failed + wrong
	return rep.result(perLayer, attempted, failed)
}

// census runs after the checks. Every traced run's result line carries every
// per-layer metric, whatever the workload, so it measures, on the
// workload's own graph, the layers the traced traffic did not reach: traced
// requests of each kind the workload did not issue, direct reads of the
// index or epoch it did not read, and the probes that belong to no request
// (1-thread build, σ kernel replay, core order, allocations per request). It
// returns the number of requests it sent.
func (b *bench) census(ctx context.Context, tr *tracer, lay *layers, t *target, traced *phase) (int64, error) {
	g, _, err := graph.LoadFile(b.path)
	if err != nil {
		return 0, err
	}
	rng := stream(b.cfg.seed, 0xce)
	n := g.NumVertices()
	var sent int64
	send := func(o *op) error { sent++; _, err := b.do(ctx, o); return err }
	traceOp := func(t *target, o *op) error {
		sent++
		_, _, err := b.tracedOp(ctx, tr, lay, t, o)
		return err
	}
	issued := func(kind string) bool { return len(traced.lat[kind]) > 0 }
	randomQuery := func() *op { i := rng.IntN(len(exploreGrid)); return exploreGrid[i].query(i) }
	randomLocal := func() *op {
		i := rng.IntN(len(communityGrid))
		return communityGrid[i].local(i, int32(rng.IntN(n)))
	}

	// Cold builds re-register the generated file, so from here on the
	// served graph is the generated one on every workload (only mixed_rw
	// mutates it, and it issues no builds).
	for i := 0; i < 3 && !issued(kindBuild); i++ {
		for _, o := range []*op{buildOp(0), buildOp(buildApprox)} {
			if err := traceOp(t, o); err != nil {
				return sent, err
			}
		}
	}
	// An untraced pass derives the exact index and every core order the
	// traced reads use.
	for i, c := range exploreGrid {
		if err := send(c.query(i)); err != nil {
			return sent, err
		}
	}
	// The direct calls go to an index of the generated graph too, which
	// mixed_rw's trace target no longer holds.
	static := &target{idx: index.Build(g, 0)}
	for _, k := range []struct {
		kind string
		next func() *op
	}{{kindQuery, randomQuery}, {kindLocal, randomLocal}} {
		for i := 0; i < censusOps && !issued(k.kind); i++ {
			if err := traceOp(static, k.next()); err != nil {
				return sent, err
			}
		}
	}
	if !issued(kindProfile) {
		for _, mu := range exploreMus {
			if err := traceOp(static, profileOp(mu)); err != nil {
				return sent, err
			}
		}
	}

	// Mutations go to the served graph and to a live graph of the
	// benchmark's own, both starting from the generated graph.
	edges := newEdgeTracker(g)
	mt := &target{idx: static.idx, lg: live.FromIndex(static.idx)}
	nextBatch := func(i int) *op { return &op{kind: kindMutate, muts: edges.single(rng, i%2 == 0)} }
	if issued(kindMutate) {
		// The first mutation promotes the graph; keep it out of the
		// allocation count below.
		if err := send(nextBatch(0)); err != nil {
			return sent, err
		}
	}
	for i := 0; i < censusOps && !issued(kindMutate); i++ {
		if err := traceOp(mt, nextBatch(i)); err != nil {
			return sent, err
		}
	}
	if !lay.has("live.epoch_query_ms") {
		if err := directReads(tr, lay, mt.lg.Epoch(), "live.epoch_query", "live.epoch_local", randomLocal); err != nil {
			return sent, err
		}
	}
	if !lay.has("index.query_ms") {
		if err := directReads(tr, lay, t.idx, "index.query", "local.query", randomLocal); err != nil {
			return sent, err
		}
	}

	for i := 0; i < 3; i++ {
		d := tr.probe("index.build_t1", func() { _, err = index.BuildCtx(ctx, g, 1) })
		if err != nil {
			return sent, err
		}
		lay.add("index.build_t1_ms", ms(d))
	}
	lay.add("simeval.ns_per_eval", kernelReplay(tr, g))
	if err := coreOrderProbe(tr, lay, g); err != nil {
		return sent, err
	}

	// Allocations per request, one request at a time so every byte counted
	// belongs to it (server and client side together).
	for _, a := range []struct {
		kind string
		next func(i int) *op
	}{
		{kindQuery, func(int) *op { return randomQuery() }},
		{kindLocal, func(int) *op { return randomLocal() }},
		{kindMutate, nextBatch},
	} {
		var total float64
		for i := 0; i < censusOps; i++ {
			o := a.next(i + 1)
			before := readMetric("/gc/heap/allocs:bytes")
			if err := send(o); err != nil {
				return sent, err
			}
			total += readMetric("/gc/heap/allocs:bytes") - before
		}
		lay.add("alloc_kb_per_op."+a.kind, total/censusOps/1024)
	}
	return sent, nil
}

// directReads times Query and local.Query on v for censusOps random cells
// and seeds, under the given span names.
func directReads(tr *tracer, lay *layers, v queryView, queryName, localName string, next func() *op) error {
	var err error
	for i := 0; i < censusOps; i++ {
		o := next()
		d := tr.probe(queryName, func() { _, err = v.Query(o.mu, o.eps) })
		if err != nil {
			return err
		}
		lay.add(queryName+"_ms", ms(d))
		var res *local.Result
		d = tr.probe(localName, func() { res, err = local.Query(v, o.seed, o.mu, o.eps) })
		if err != nil {
			return err
		}
		lay.add(localName+"_us", us(d))
		addLocal(lay, res)
	}
	return nil
}

// sinkF keeps the kernel replay's result alive.
var sinkF float64

// kernelReplay times the σ kernel alone: one WorkerEngine evaluating
// EdgeNumerator over every canonical arc, single-threaded, in ns per
// evaluation.
func kernelReplay(tr *tracer, g *graph.CSR) float64 {
	we := simeval.New(g, 0, simeval.Options{}).ForWorker(0)
	var evals int64
	var acc float64
	d := tr.probe("simeval.replay", func() {
		for v := int32(0); v < int32(g.NumVertices()); v++ {
			g.EachNeighbor(v, func(_ int, q int32, w float32) bool {
				if v < q {
					num, denom := we.EdgeNumerator(v, q, w)
					acc += num / denom
					evals++
				}
				return true
			})
		}
	})
	sinkF = acc
	return float64(d.Nanoseconds()) / float64(evals)
}

// coreOrderProbe measures the per-μ core order: on a fresh index the first
// query at a μ derives it and a repeat of the same query does not.
func coreOrderProbe(tr *tracer, lay *layers, g *graph.CSR) error {
	fresh := index.Build(g, 0)
	var err error
	for _, mu := range exploreMus {
		first := tr.probe("index.first_query", func() { _, err = fresh.Query(mu, buildCell.eps) })
		if err != nil {
			return err
		}
		again := tr.probe("index.repeat_query", func() { _, err = fresh.Query(mu, buildCell.eps) })
		if err != nil {
			return err
		}
		lay.add("index.core_order_ms", ms(first-again))
	}
	return nil
}

// checkEpoch compares a live epoch's answers over the community grid with
// index.Build over the epoch's own graph (ToCSR).
func checkEpoch(ep *live.Epoch) (requests, wrong int64, err error) {
	g, err := ep.ToCSR()
	if err != nil {
		return 0, 0, err
	}
	idx := index.Build(g, 0)
	for _, c := range communityGrid {
		requests++
		got, err1 := ep.Query(c.mu, c.eps)
		want, err2 := idx.Query(c.mu, c.eps)
		if err1 != nil || err2 != nil || !sameResult(got, want) {
			wrong++
		}
	}
	return requests, wrong, nil
}
