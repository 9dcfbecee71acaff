package main

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"anyscan/internal/cluster"
	"anyscan/internal/graph"
	"anyscan/internal/index"
	"anyscan/internal/live"
	"anyscan/internal/local"
	"anyscan/internal/server"
	"anyscan/internal/sweep"
)

// span is one timed call. Spans of one operation share Op; Parent is the ID
// of the enclosing span, -1 for the operation's root.
type span struct {
	Op     int64  `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps every span in memory until the run ends.
type tracer struct {
	t0    time.Time
	ops   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(op int64, parent int, name string) int {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Op: op, ID: len(t.spans), Parent: parent, Name: name, Start: now})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) time.Duration {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	return time.Duration(now - t.spans[id].Start)
}

// timed runs fn as a child span of parent and returns its duration.
func (t *tracer) timed(op int64, parent int, name string, fn func()) time.Duration {
	id := t.begin(op, parent, name)
	fn()
	return t.end(id)
}

// probe runs fn as the only child of a new root span: a direct layer call
// that belongs to no request.
func (t *tracer) probe(name string, fn func()) time.Duration {
	op := t.ops.Add(1)
	root := t.begin(op, -1, "probe."+name)
	d := t.timed(op, root, name, fn)
	t.end(root)
	return d
}

// dump writes the spans as JSON lines.
func (t *tracer) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's duration minus the part of it its children
// cover (overlapping children count once).
func selfTimes(spans []span) []time.Duration {
	kids := make(map[int][]int)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s.ID)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		var iv [][2]int64
		for _, k := range kids[i] {
			if lo, hi := max(spans[k].Start, s.Start), min(spans[k].End, s.End); hi > lo {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		var covered, lo, hi int64
		for j, x := range iv {
			if j == 0 || x[0] > hi {
				covered += hi - lo
				lo, hi = x[0], x[1]
			} else if x[1] > hi {
				hi = x[1]
			}
		}
		covered += hi - lo
		out[i] = time.Duration(s.End - s.Start - covered)
	}
	return out
}

// layers collects the per-layer samples; a reported value is their median.
type layers struct {
	mu   sync.Mutex
	vals map[string][]float64
}

func newLayers() *layers { return &layers{vals: map[string][]float64{}} }

func (l *layers) add(name string, v float64) {
	l.mu.Lock()
	l.vals[name] = append(l.vals[name], v)
	l.mu.Unlock()
}

func (l *layers) has(name string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.vals[name]) > 0
}

func (l *layers) median(name string) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return median(l.vals[name])
}

// queryView is what a traced read calls directly: an *index.Index or a
// *live.Epoch.
type queryView interface {
	local.View
	Query(mu int, eps float64) (*cluster.Result, error)
}

// target is where a traced operation's direct layer calls go: idx, or lg's
// current epoch when lg is set. Its HTTP request goes to the served graph.
type target struct {
	idx *index.Index
	lg  *live.Graph
}

func (t *target) view() (v queryView, isLive bool) {
	if t.lg != nil {
		return t.lg.Epoch(), true
	}
	return t.idx, false
}

// opHeader carries a traced request's operation id from the client to the
// server side of the loopback connection.
const opHeader = "X-Perfbench-Op"

type opKey struct{}

// opTrace is one traced operation in flight: its span ids and the handler
// time its requests took on the server side.
type opTrace struct {
	tr      *tracer
	id      int64
	http    int // the span of the operation's HTTP exchange
	handler atomic.Int64
}

// tagTransport sets opHeader on the requests whose context carries an
// opTrace.
type tagTransport struct{ base http.RoundTripper }

func (t tagTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if ot, ok := r.Context().Value(opKey{}).(*opTrace); ok {
		r = r.Clone(r.Context())
		r.Header.Set(opHeader, strconv.FormatInt(ot.id, 10))
	}
	return t.base.RoundTrip(r)
}

// timedHandler serves through Server.ServeHTTP and times it, as a child of
// the HTTP span, for the requests of the traced operations in flight.
type timedHandler struct {
	srv      *server.Server
	inflight sync.Map // operation id → *opTrace
}

func (h *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseInt(r.Header.Get(opHeader), 10, 64)
	v, ok := h.inflight.Load(id)
	if err != nil || !ok {
		h.srv.ServeHTTP(w, r)
		return
	}
	ot := v.(*opTrace)
	d := ot.tr.timed(ot.id, ot.http, "server.handler", func() { h.srv.ServeHTTP(w, r) })
	ot.handler.Add(int64(d))
}

// tracedOp runs one operation as a root span. Under it are the HTTP
// exchange, with the server's handler time as its child, and the direct calls
// into the layers that answer the request. It records the per-layer samples
// and returns the HTTP latency and reply.
func (b *bench) tracedOp(ctx context.Context, tr *tracer, lay *layers, t *target, o *op) (time.Duration, *reply, error) {
	ot := &opTrace{tr: tr, id: tr.ops.Add(1)}
	root := tr.begin(ot.id, -1, "op."+o.kind)
	defer tr.end(root)

	ot.http = tr.begin(ot.id, root, "http."+o.kind)
	b.th.inflight.Store(ot.id, ot)
	r, err := b.do(context.WithValue(ctx, opKey{}, ot), o)
	httpD := tr.end(ot.http)
	b.th.inflight.Delete(ot.id)
	if err != nil {
		return httpD, nil, err
	}
	switch o.kind {
	case kindQuery, kindLocal, kindMutate:
		err = traceServed(tr, lay, t, o, r, ot.id, root, httpD, time.Duration(ot.handler.Load()))
	case kindProfile:
		d := tr.timed(ot.id, root, "sweep.profile", func() {
			var ex *sweep.Explorer
			if ex, err = sweep.FromIndex(t.idx, o.mu); err == nil {
				ex.SweepProfile(o.epsList)
			}
		})
		lay.add("sweep.profile_ms", ms(d))
	case kindBuild, kindBuildApprox:
		err = b.traceBuild(ctx, tr, lay, o, ot.id, root)
	}
	return httpD, r, err
}

// traceServed covers the requests answered from a resident index or epoch.
// The handler time less the direct call's compute is the server's own time
// (parse, wait, admission, encode), and the HTTP latency less the handler
// time is the transport. The encode span marshals the reply the client
// decoded, which is the response the handler wrote.
func traceServed(tr *tracer, lay *layers, t *target, o *op, r *reply, id int64, root int, httpD, handler time.Duration) error {
	v, isLive := t.view()
	var compute time.Duration
	var payload any
	var err error
	switch o.kind {
	case kindQuery:
		name := "index.query"
		if isLive {
			name = "live.epoch_query"
		}
		compute = tr.timed(id, root, name, func() { _, err = v.Query(o.mu, o.eps) })
		lay.add(name+"_ms", ms(compute))
		payload = &r.query
	case kindLocal:
		name := "local.query"
		if isLive {
			name = "live.epoch_local"
		}
		var res *local.Result
		compute = tr.timed(id, root, name, func() { res, err = local.Query(v, o.seed, o.mu, o.eps) })
		if err != nil {
			return err
		}
		lay.add(name+"_us", us(compute))
		addLocal(lay, res)
		payload = &r.local
	case kindMutate:
		var st live.ApplyStats
		compute = tr.timed(id, root, "live.apply", func() { _, st, err = t.lg.Apply(liveMutations(o.muts)) })
		lay.add("live.apply_ms", ms(compute))
		lay.add("live.publish_ms", ms(st.Publish))
		lay.add("live.sigma_recomputed_per_batch", float64(st.SigmaRecomputed))
	}
	if err != nil {
		return err
	}
	lay.add("server.handler_ms."+o.kind, ms(handler))
	lay.add("server.self_ms."+o.kind, ms(handler-compute))
	lay.add("http.transport_ms."+o.kind, ms(httpD-handler))
	if payload != nil {
		var buf []byte
		enc := tr.timed(id, root, "server.encode."+o.kind, func() { buf, err = json.Marshal(payload) })
		if err != nil {
			return err
		}
		lay.add("server.encode_ms."+o.kind, ms(enc))
		lay.add("server.response_kb."+o.kind, float64(len(buf))/1024)
	}
	return nil
}

func addLocal(lay *layers, res *local.Result) {
	lay.add("local.touched_per_query", float64(res.Touched))
	if res.Touched > 0 {
		lay.add("local.members_per_touched", float64(len(res.Members))/float64(res.Touched))
	}
}

// traceBuild times the two layers a cold registration runs: loading the
// graph file and building the exact or the sketch index.
func (b *bench) traceBuild(ctx context.Context, tr *tracer, lay *layers, o *op, id int64, root int) error {
	var g graph.Graph
	var err error
	d := tr.timed(id, root, "graph.load", func() { g, _, err = graph.LoadAny(b.path) })
	if err != nil {
		return err
	}
	lay.add("graph.load_ms", ms(d))
	var x *index.Index
	if o.kind == kindBuild {
		d = tr.timed(id, root, "index.build", func() { x, err = index.BuildCtx(ctx, g, 0) })
		if err != nil {
			return err
		}
		lay.add("index.build_ms", ms(d))
		lay.add("simeval.evals", float64(x.SimEvals()))
		return nil
	}
	d = tr.timed(id, root, "index.approx_build", func() { x, err = index.BuildApproxCtx(ctx, g, 0, o.approx) })
	if err != nil {
		return err
	}
	lay.add("index.approx_build_ms", ms(d))
	lay.add("index.approx_sketched_frac", float64(x.Approx().Sketched)/float64(g.NumEdges()))
	return nil
}

func liveMutations(ms []server.MutationSpec) []live.Mutation {
	out := make([]live.Mutation, len(ms))
	for i, m := range ms {
		op := live.OpAdd
		if m.Op == "delete" {
			op = live.OpDelete
		}
		out[i] = live.Mutation{Op: op, U: m.U, V: m.V, W: m.W}
	}
	return out
}
