// Package live serves (μ, ε) clustering queries over a *mutable* graph: a
// live.Graph owns an adjacency store, applies batched edge
// insert/delete/reweight operations, and incrementally patches the
// query-index structures of package index — recomputing σ only for arcs
// incident to touched vertices (mutating edge (u,v) perturbs norms, and
// hence σ, only for arcs touching u or v) and repairing the σ-sorted
// neighbor orders.
//
// Each applied batch publishes a new immutable Epoch through copy-on-write
// per-vertex segments: untouched vertices share their segment with the
// parent epoch, so publication allocates O(touched + ring) segments, not
// O(|V|), and in-flight Query calls — which resolved an epoch pointer before
// the publish — never block and never observe torn state.
//
// The ground truth is equivalence: after any mutation sequence,
// Epoch.Query(μ, ε) is byte-identical to index.Build on the equivalent
// static CSR (Epoch.ToCSR) followed by Query. The incremental σ patch uses
// the exact float expressions of the static build — simeval.SliceDot for
// the ascending-id merge join, simeval.Crossing for the activation
// threshold, and ascending-id norm accumulation matching graph.CSR — so the
// property holds bit-for-bit, which live_test.go asserts under randomized
// interleaved mutate/query workloads.
package live

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"anyscan/internal/graph"
	"anyscan/internal/index"
	"anyscan/internal/par"
	"anyscan/internal/simeval"
)

// Op is a mutation kind.
type Op uint8

// Mutation operations. OpAdd inserts the edge or updates its weight if
// present; OpDelete removes the edge and is a no-op when absent; OpReweight
// updates the weight of an edge that must already exist (it errors on an
// absent edge, catching callers whose view of the graph has drifted).
const (
	OpAdd Op = iota
	OpDelete
	OpReweight
)

func (o Op) String() string {
	switch o {
	case OpAdd:
		return "add"
	case OpDelete:
		return "delete"
	case OpReweight:
		return "reweight"
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// Mutation is one edge operation. Endpoints are unordered (the graph is
// undirected); W is ignored for OpDelete.
type Mutation struct {
	Op   Op
	U, V int32
	W    float32
}

// validate checks one mutation structurally against a graph of n vertices,
// with the same rejection rules (and error wording) as the edge-list
// hardening in package graph: self loops and NaN, infinite, or non-positive
// weights are errors, never silent corruption.
func (m Mutation) validate(n int32) error {
	if m.Op > OpReweight {
		return fmt.Errorf("unknown op %d", uint8(m.Op))
	}
	if m.U < 0 || m.U >= n {
		return fmt.Errorf("vertex %d out of range [0,%d)", m.U, n)
	}
	if m.V < 0 || m.V >= n {
		return fmt.Errorf("vertex %d out of range [0,%d)", m.V, n)
	}
	if m.U == m.V {
		return fmt.Errorf("self loop (%d,%d) is not a mutable edge", m.U, m.V)
	}
	if m.Op != OpDelete {
		switch w := float64(m.W); {
		case math.IsNaN(w):
			return errors.New("weight is NaN")
		case math.IsInf(w, 0):
			return errors.New("weight is infinite")
		case m.W <= 0:
			return fmt.Errorf("weight %g is not positive (edge weights must be > 0)", m.W)
		}
	}
	return nil
}

// ApplyStats reports what one Apply did.
type ApplyStats struct {
	// Applied is the number of effective edge changes vs the parent epoch
	// (inserts + deletes + weight changes after resolving the batch).
	Applied int
	// NoOps is len(batch) - Applied: operations whose net effect was nothing
	// (delete of an absent edge, add with the already-present weight, ops
	// cancelled out within the batch).
	NoOps int
	// Touched is the number of vertices whose σ stars were recomputed (the
	// mutation endpoints).
	Touched int
	// SigmaRecomputed is the number of arcs whose activation threshold was
	// re-evaluated: exactly the arcs incident to touched vertices.
	SigmaRecomputed int64
	// Publish is the wall time from entering Apply to the epoch being
	// visible to readers.
	Publish time.Duration
}

// Graph is a mutable graph serving immutable epochs. One writer at a time
// applies batches (Apply serializes internally); any number of readers
// resolve epochs and query them concurrently with writers and each other.
type Graph struct {
	writeMu sync.Mutex // serializes Apply

	mu  sync.Mutex // guards the (cur, pub) pair
	cur atomic.Pointer[Epoch]
	pub chan struct{} // closed and replaced on every publish

	// maxWant is the highest epoch any WaitEpoch caller has ever demanded;
	// Lag reports how far the published epoch trails it.
	maxWant atomic.Int64

	threads int
}

// FromIndex wraps an already-built query index as epoch 0 of a live graph.
// Zero-copy when the index was built over a flat *graph.CSR: the epoch's
// segments alias the index's neighbor orders and the CSR's adjacency and
// norms, so promotion of a served static index to a live graph costs O(|V|)
// pointers, not a rebuild. The index and its CSR must not be
// mutated afterwards (they are immutable by contract already).
//
// An index over any other backend — a read-only, possibly mmap-backed
// compressed graph in particular — cannot be aliased: mutations would write
// through to storage that cannot be written. FromIndex falls back to
// decompressing the graph into a private mutable CSR (one O(|V|+|E|)
// materialization, logged via slog.Default) and promotes that instead; the σ
// thresholds and neighbor orders still come from the index, so no similarity
// is recomputed either way.
func FromIndex(x *index.Index) *Graph {
	return FromIndexLogger(x, slog.Default())
}

// FromIndexLogger is FromIndex with an explicit logger for the
// decompress-fallback warning (nil disables logging).
//
// Approximate indexes (delta > 0) cannot seed a live graph: incremental
// maintenance patches σ values in place and would silently mix exact patches
// into sketch estimates whose error bands no longer describe them. Promotion
// therefore rebuilds the index exactly (one σ pass) and logs that the
// accuracy dial was dropped.
func FromIndexLogger(x *index.Index, lg *slog.Logger) *Graph {
	if a := x.Approx(); a.Delta > 0 && !a.ExactFallback {
		if lg != nil {
			lg.Warn("live: approximate index cannot back a mutable graph; rebuilding exact for promotion",
				"delta", a.Delta, "vertices", x.Graph().NumVertices(), "edges", x.Graph().NumEdges())
		}
		x = index.Build(x.Graph(), x.Threads())
	}
	g, ok := x.Graph().(*graph.CSR)
	if !ok {
		g = graph.Materialize(x.Graph())
		if lg != nil {
			lg.Warn("live: graph backend is read-only; decompressed to a mutable copy for promotion",
				"backend", fmt.Sprintf("%T", x.Graph()),
				"vertices", g.NumVertices(), "edges", g.NumEdges())
		}
	}
	n := g.NumVertices()
	arr := make([]seg, n)
	segs := make([]*seg, n)
	for v := int32(0); v < int32(n); v++ {
		adj, wt := g.Neighbors(v)
		onbr, osig := x.NeighborOrder(v)
		arr[v] = seg{
			nbr: adj, wt: wt,
			onbr: onbr, osig: osig,
			norm: g.Norm(v), sqrtNorm: g.SqrtNorm(v),
		}
		segs[v] = &arr[v]
	}
	e := &Epoch{segs: segs, edges: g.NumEdges(), threads: x.Threads()}
	out := &Graph{pub: make(chan struct{}), threads: x.Threads()}
	out.cur.Store(e)
	return out
}

// FromCSR builds the initial index for g (one full σ pass, cancellable) and
// wraps it as epoch 0.
func FromCSR(ctx context.Context, g *graph.CSR, threads int) (*Graph, error) {
	x, err := index.BuildCtx(ctx, g, threads)
	if err != nil {
		return nil, err
	}
	return FromIndex(x), nil
}

// Epoch returns the currently published epoch.
func (g *Graph) Epoch() *Epoch { return g.cur.Load() }

// NumVertices returns the vertex count (fixed for the graph's lifetime).
func (g *Graph) NumVertices() int { return len(g.cur.Load().segs) }

// Lag returns how many epochs the published state trails the newest epoch
// any WaitEpoch caller has demanded (0 when all demands are satisfied). The
// serving layer exports this as the anyscand_epoch_lag gauge.
func (g *Graph) Lag() int64 {
	if lag := g.maxWant.Load() - g.cur.Load().seq; lag > 0 {
		return lag
	}
	return 0
}

// WaitEpoch returns the current epoch once its sequence number is at least
// min, blocking until a writer publishes it or ctx expires. This is the
// read-your-writes primitive: a client that applied a batch and received
// epoch token s passes min=s and is guaranteed to observe its own write (or
// any later state). Waiting holds no locks and no admission resources — an
// abandoned waiter costs one parked goroutine until its ctx fires.
func (g *Graph) WaitEpoch(ctx context.Context, min int64) (*Epoch, error) {
	if e := g.cur.Load(); e.seq >= min {
		return e, nil
	}
	for {
		m := g.maxWant.Load()
		if m >= min || g.maxWant.CompareAndSwap(m, min) {
			break
		}
	}
	for {
		g.mu.Lock()
		e := g.cur.Load()
		ch := g.pub
		g.mu.Unlock()
		if e.seq >= min {
			return e, nil
		}
		select {
		case <-ch:
		case <-ctx.Done():
			return nil, fmt.Errorf("live: epoch %d not published within deadline (currently at %d): %w", min, e.seq, ctx.Err())
		}
	}
}

// publish makes e the current epoch and wakes every WaitEpoch waiter.
func (g *Graph) publish(e *Epoch) {
	g.mu.Lock()
	g.cur.Store(e)
	close(g.pub)
	g.pub = make(chan struct{})
	g.mu.Unlock()
}

// parallelPatchMin is the affected-arc count above which the σ patch fans
// out across workers; below it a sequential loop wins.
const parallelPatchMin = 2048

// pendState is the resolved in-batch state of one edge.
type pendState struct {
	w   float32
	del bool
}

// change is one effective edge change from a vertex's point of view.
type change struct {
	to  int32
	w   float32
	del bool
}

// Apply resolves one batch of mutations against the current epoch and
// publishes a new epoch with the index patched incrementally:
//
//   - the batch is atomic: any invalid mutation (bad vertex, self loop, bad
//     weight, reweight of an absent edge) rejects the whole batch with no
//     state change;
//   - operations resolve sequentially within the batch (add then delete of
//     the same edge cancels out), and only the net changes are applied;
//   - σ is recomputed only for arcs incident to touched vertices (the
//     mutation endpoints); ring vertices — their unmutated neighbors — get
//     copy-on-write segments with the affected order entries repaired in
//     place; everything else is shared with the parent epoch.
//
// A batch whose net effect is empty publishes nothing and returns the
// current epoch (its token already satisfies read-your-writes).
//
// Apply may be called concurrently; batches serialize internally. Readers
// are never blocked.
func (g *Graph) Apply(muts []Mutation) (*Epoch, ApplyStats, error) {
	start := time.Now()
	g.writeMu.Lock()
	defer g.writeMu.Unlock()

	parent := g.cur.Load()
	n := int32(len(parent.segs))
	var st ApplyStats

	for i := range muts {
		if err := muts[i].validate(n); err != nil {
			return nil, st, fmt.Errorf("live: mutation %d: %w", i, err)
		}
	}

	// Resolve the batch sequentially into per-edge net state.
	pend := make(map[[2]int32]pendState)
	lookup := func(u, v int32) (float32, bool) {
		if p, ok := pend[[2]int32{u, v}]; ok {
			return p.w, !p.del
		}
		if i, ok := parent.segs[u].find(v); ok {
			return parent.segs[u].wt[i], true
		}
		return 0, false
	}
	for i := range muts {
		u, v := muts[i].U, muts[i].V
		if u > v {
			u, v = v, u
		}
		key := [2]int32{u, v}
		w, present := lookup(u, v)
		switch muts[i].Op {
		case OpAdd:
			if present && w == muts[i].W {
				continue
			}
			pend[key] = pendState{w: muts[i].W}
		case OpDelete:
			if !present {
				continue
			}
			pend[key] = pendState{del: true}
		case OpReweight:
			if !present {
				return nil, st, fmt.Errorf("live: mutation %d: reweight of absent edge (%d,%d)", i, muts[i].U, muts[i].V)
			}
			if w == muts[i].W {
				continue
			}
			pend[key] = pendState{w: muts[i].W}
		}
	}

	// Net changes vs the parent epoch.
	delta := make(map[int32][]change)
	var inserts, deletes int64
	for key, p := range pend {
		w0, had := func() (float32, bool) {
			if i, ok := parent.segs[key[0]].find(key[1]); ok {
				return parent.segs[key[0]].wt[i], true
			}
			return 0, false
		}()
		switch {
		case p.del && !had:
			continue // add+delete cancelled within the batch
		case p.del:
			deletes++
		case had && w0 == p.w:
			continue // reweight+reweight back within the batch
		case !had:
			inserts++
		}
		st.Applied++
		delta[key[0]] = append(delta[key[0]], change{to: key[1], w: p.w, del: p.del})
		delta[key[1]] = append(delta[key[1]], change{to: key[0], w: p.w, del: p.del})
	}
	st.NoOps = len(muts) - st.Applied
	if st.Applied == 0 {
		st.Publish = time.Since(start)
		return parent, st, nil
	}

	newSegs := make([]*seg, n)
	copy(newSegs, parent.segs)

	// Touched vertices (mutation endpoints): rebuild adjacency with the net
	// changes merged in, recompute the norm from scratch in ascending id
	// order (the exact accumulation of graph.CSR), every incident σ pending.
	// tsig holds each touched vertex's σ row in adjacency order for the
	// length of this Apply only; segments keep σ in their sorted order alone.
	touched := make([]int32, 0, len(delta))
	for v := range delta {
		touched = append(touched, v)
	}
	sort.Slice(touched, func(a, b int) bool { return touched[a] < touched[b] })
	tsig := make(map[int32][]float64, len(touched))
	st.Touched = len(touched)
	for _, t := range touched {
		old := parent.segs[t]
		ch := delta[t]
		sort.Slice(ch, func(a, b int) bool { return ch[a].to < ch[b].to })
		s := &seg{
			nbr: make([]int32, 0, len(old.nbr)+len(ch)),
			wt:  make([]float32, 0, len(old.nbr)+len(ch)),
		}
		i, j := 0, 0
		for i < len(old.nbr) || j < len(ch) {
			switch {
			case j == len(ch) || (i < len(old.nbr) && old.nbr[i] < ch[j].to):
				s.nbr = append(s.nbr, old.nbr[i])
				s.wt = append(s.wt, old.wt[i])
				i++
			case i == len(old.nbr) || ch[j].to < old.nbr[i]:
				if !ch[j].del { // insert
					s.nbr = append(s.nbr, ch[j].to)
					s.wt = append(s.wt, ch[j].w)
				}
				j++
			default: // same id: delete or reweight
				if !ch[j].del {
					s.nbr = append(s.nbr, ch[j].to)
					s.wt = append(s.wt, ch[j].w)
				}
				i++
				j++
			}
		}
		l := float64(graph.SelfWeight) * float64(graph.SelfWeight)
		for _, w := range s.wt {
			l += float64(w) * float64(w)
		}
		s.norm = l
		s.sqrtNorm = math.Sqrt(l)
		tsig[t] = make([]float64, len(s.nbr))
		newSegs[t] = s
	}

	// Ring vertices: unmutated neighbors of touched vertices. Their
	// adjacency and norm are unchanged (shared with the parent segment), but
	// the σ of their arcs towards touched vertices moved, so they get a
	// repaired order, reading each moved σ from the touched side's row (σ is
	// symmetric). A deleted edge has both endpoints touched, so ring
	// membership is complete from the *new* adjacency.
	var ring []int32
	inR := make(map[int32]bool)
	for _, t := range touched {
		for _, q := range newSegs[t].nbr {
			if tsig[q] != nil || inR[q] {
				continue
			}
			inR[q] = true
			ring = append(ring, q)
		}
	}
	sort.Slice(ring, func(a, b int) bool { return ring[a] < ring[b] })
	for _, q := range ring {
		old := parent.segs[q]
		newSegs[q] = &seg{nbr: old.nbr, wt: old.wt, norm: old.norm, sqrtNorm: old.sqrtNorm}
	}

	// σ patch: re-evaluate exactly the arcs incident to touched vertices,
	// each undirected arc once, writing the row slot of every touched end.
	// Uses the simeval slice kernels and crossing, so every patched threshold
	// is bit-identical to what a full index.Build over the new adjacency
	// would produce.
	type arcref struct {
		u, v   int32
		ui, vi int32 // vi is -1 when v is a ring vertex
		w      float32
	}
	var arcs []arcref
	for _, t := range touched {
		s := newSegs[t]
		for i, q := range s.nbr {
			j := int32(-1)
			if tsig[q] != nil {
				if q < t {
					continue // evaluated from q's side
				}
				k, _ := newSegs[q].find(t)
				j = int32(k)
			}
			arcs = append(arcs, arcref{u: t, v: q, ui: int32(i), vi: j, w: s.wt[i]})
		}
	}
	st.SigmaRecomputed = int64(len(arcs))
	eval := func(a arcref) {
		su, sv := newSegs[a.u], newSegs[a.v]
		num := 2*float64(a.w)*float64(graph.SelfWeight) + simeval.SliceDot(su.nbr, su.wt, sv.nbr, sv.wt)
		denom := su.sqrtNorm * sv.sqrtNorm
		sg := simeval.Crossing(num, denom)
		tsig[a.u][a.ui] = sg
		if a.vi >= 0 {
			tsig[a.v][a.vi] = sg
		}
	}
	if g.threads != 1 && len(arcs) >= parallelPatchMin {
		par.For(len(arcs), g.threads, par.Adaptive, func(i int) { eval(arcs[i]) })
	} else {
		for _, a := range arcs {
			eval(a)
		}
	}

	// Order maintenance: touched vertices re-sort in full (every arc moved);
	// ring vertices repair incrementally (only arcs towards touched moved).
	// Touched rows sort copies of their tsig rows, so the ring repairs can
	// read tsig concurrently.
	work := append(append(make([]int32, 0, len(touched)+len(ring)), touched...), ring...)
	fix := func(v int32) {
		if sig := tsig[v]; sig != nil {
			newSegs[v].sortOrder(sig)
			return
		}
		newSegs[v].repairOrder(parent.segs[v], func(t int32) (float64, bool) {
			sig := tsig[t]
			if sig == nil {
				return 0, false
			}
			i, _ := newSegs[t].find(v)
			return sig[i], true
		})
	}
	if g.threads != 1 && len(work) >= 64 {
		par.For(len(work), g.threads, par.Adaptive, func(i int) { fix(work[i]) })
	} else {
		for _, v := range work {
			fix(v)
		}
	}

	child := &Epoch{
		seq:     parent.seq + 1,
		segs:    newSegs,
		edges:   parent.edges + inserts - deletes,
		threads: g.threads,
	}
	g.publish(child)
	st.Publish = time.Since(start)
	return child, st, nil
}
