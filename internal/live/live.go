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
// static CSR (Epoch.ToCSR) followed by Query, which live_test.go asserts
// under randomized interleaved mutate/query workloads. Beyond the
// 8 B/vertex segment table it copies, a batch costs what it touches:
//
//   - The σ patch runs the static build's kernel: each touched vertex's
//     weights are loaded once into a simeval.Row, and each of its arcs'
//     thresholds is then Row.Crossing, a branchless gather over the other
//     endpoint's adjacency. With norms from graph.NormOf, as graph.CSR
//     computes them, every patched threshold is bit-identical to the static
//     build's. The Graph keeps the rows for its lifetime: 4 B per vertex
//     per patch worker.
//   - Ring vertices, the unmutated neighbors of touched ones, repair their
//     parent's order: each moved entry is found by binary search on its old
//     (σ, id), its new position by a second search, and the unmoved runs
//     between are block copies, so a ring vertex allocates its two new
//     order arrays and nothing else.
package live

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"runtime"
	"slices"
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

	// scratch holds the σ patch's dense rows, one per worker, each 4 B per
	// vertex; guarded by writeMu.
	scratch []simeval.Row
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

// Fan-out thresholds of Apply's two phases: the σ patch goes parallel at
// parallelPatchMin recomputed arcs, the order maintenance at
// parallelRepairMin touched and ring vertices; below them a sequential loop
// wins.
const (
	parallelPatchMin  = 2048
	parallelRepairMin = 64
)

// workers returns the worker count for a phase of items work items: the
// graph's threads once items reach least, else one.
func (g *Graph) workers(items, least int) int {
	switch {
	case g.threads == 1 || items < least:
		return 1
	case g.threads <= 0:
		return runtime.GOMAXPROCS(0)
	}
	return g.threads
}

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
//     mutation endpoints), each numerator a gather against the touched
//     end's weights loaded once into a dense scratch row; ring vertices
//     (their unmutated neighbors) get copy-on-write segments whose orders
//     repair the parent's by binary search and block copy; everything else
//     is shared with the parent epoch, so beyond the 8 B/vertex segment
//     table the batch costs what it touches.
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
	// changes merged in, recompute the norm from scratch (graph.NormOf, the
	// accumulation of graph.CSR), every incident σ pending.
	// tsig[k] is touched[k]'s σ row in adjacency order until its order is
	// sorted, when it becomes the segment's osig.
	touched := make([]int32, 0, len(delta))
	for v := range delta {
		touched = append(touched, v)
	}
	slices.Sort(touched)
	tsig := make([][]float64, len(touched))
	st.Touched = len(touched)
	for k, t := range touched {
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
		s.norm = graph.NormOf(s.wt)
		s.sqrtNorm = math.Sqrt(s.norm)
		tsig[k] = make([]float64, len(s.nbr))
		newSegs[t] = s
	}

	// σ patch: re-evaluate exactly the arcs incident to touched vertices,
	// each undirected arc once, writing the row slot of every touched end.
	// An arc's threshold is Row.Crossing, a gather of its far end's
	// adjacency against the near end's weights loaded into a worker's
	// simeval.Row, so every patched threshold is bit-identical to what a
	// full index.Build over the new adjacency would produce. Arcs are listed
	// by near end, so a worker loads each touched vertex once per run of its
	// arcs.
	// An arc is listed from u = touched[uk]: v is u's ui-th neighbor and
	// tsig[uk][ui] the arc's slot at u; tsig[vk][vi] is its slot at v when
	// v is touched too, vk = -1 when it is not.
	type arcref struct{ uk, ui, v, vk, vi int32 }
	deg := 0 // bounds the arcs listed
	for _, t := range touched {
		deg += len(newSegs[t].nbr)
	}
	arcs := make([]arcref, 0, deg)
	for k, t := range touched {
		s := newSegs[t]
		for i, q := range s.nbr {
			a := arcref{uk: int32(k), ui: int32(i), v: q, vk: -1}
			if vk, ok := slices.BinarySearch(touched, q); ok {
				if q < t {
					continue // evaluated from q's side
				}
				vi, _ := newSegs[q].find(t)
				a.vk, a.vi = int32(vk), int32(vi)
			}
			arcs = append(arcs, a)
		}
	}
	st.SigmaRecomputed = int64(len(arcs))
	// One all-zero row per worker, allocating the ones no earlier Apply
	// needed.
	k := g.workers(len(arcs), parallelPatchMin)
	for len(g.scratch) < k {
		g.scratch = append(g.scratch, simeval.NewRow(int(n)))
	}
	scratch := g.scratch[:k]
	defer func() {
		for i := range scratch {
			scratch[i].Reset()
		}
	}()
	par.ForWorker(len(arcs), len(scratch), par.Adaptive, func(w, i int) {
		a := &arcs[i]
		u := touched[a.uk]
		su, sv := newSegs[u], newSegs[a.v]
		row := &scratch[w]
		if row.Vertex() != u {
			row.Load(u, su.nbr, su.wt)
		}
		sg := row.Crossing(su.wt[a.ui], sv.nbr, sv.wt, su.sqrtNorm*sv.sqrtNorm)
		tsig[a.uk][a.ui] = sg
		if a.vk >= 0 {
			tsig[a.vk][a.vi] = sg
		}
	})

	// Ring vertices: unmutated neighbors of touched vertices. Their
	// adjacency and norm are unchanged (shared with the parent segment), but
	// the σ of their arcs towards touched vertices moved. Each such arc is
	// listed once from its touched end, which holds both σ values: the old
	// one in its parent order, the new one in its patched row (σ is
	// symmetric). A deleted edge has both endpoints touched, so every ring
	// arc is in the touched end's parent and new adjacency alike.
	deg = 0 // bounds the moves listed
	for _, t := range touched {
		deg += len(parent.segs[t].nbr)
	}
	moves := make([]move, 0, deg)
	for k, t := range touched {
		po, s := parent.segs[t], newSegs[t]
		for i, q := range po.onbr {
			if _, ok := slices.BinarySearch(touched, q); ok {
				continue
			}
			j, _ := slices.BinarySearch(s.nbr, q)
			moves = append(moves, move{q: q, t: t, old: po.osig[i], new: tsig[k][j]})
		}
	}
	slices.SortFunc(moves, func(a, b move) int { return cmp.Compare(a.q, b.q) })
	// Ring vertex r's moves are moves[bounds[r]:bounds[r+1]].
	var ring []int32
	var bounds []int
	for i, m := range moves {
		if i == 0 || m.q != moves[i-1].q {
			old := parent.segs[m.q]
			newSegs[m.q] = &seg{nbr: old.nbr, wt: old.wt, norm: old.norm, sqrtNorm: old.sqrtNorm}
			ring = append(ring, m.q)
			bounds = append(bounds, i)
		}
	}
	bounds = append(bounds, len(moves))

	// Order maintenance: touched vertices sort their σ rows in full (every arc
	// moved); ring vertices repair their parent order from their moves.
	from := make([]int32, len(moves))
	fix := func(i int) {
		if i < len(touched) {
			newSegs[touched[i]].sortOrder(tsig[i])
			return
		}
		r := i - len(touched)
		q, lo, hi := ring[r], bounds[r], bounds[r+1]
		newSegs[q].repairOrder(parent.segs[q], moves[lo:hi], from[lo:hi])
	}
	work := len(touched) + len(ring)
	par.For(work, g.workers(work, parallelRepairMin), par.Adaptive, fix)

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
