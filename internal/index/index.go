// Package index implements a GS*-Index-style query structure for structural
// graph clustering: pay the Θ(|E|) similarity cost once per graph, then
// answer exact SCAN clusterings for *any* (μ, ε) parameter pair without
// recomputing a single σ. A full clustering costs O(|V|) for its per-query
// arrays and labels, plus the similar-neighborhood prefixes its cores walk,
// plus the arcs on the smaller side of the cut between labelled vertices
// (cores and borders) and noise, which the split of the noise into hubs and
// outliers reads. Below two clusters no vertex can be a hub and the split
// reads no arcs. Only a seed-centered query (package local) costs in
// proportion to its answer.
//
// This generalizes package sweep, which fixes μ at build time, to the full
// two-parameter query problem of GS*-Index (Tseng, Dhulipala & Shun;
// see PAPERS.md): because σ values do not depend on μ, one evaluation pass
// plus per-vertex neighbor orders sorted by descending σ suffice for every
// (μ, ε). From the sorted order,
//
//   - coreThr(v, μ) — the largest ε at which v is a core — is an O(1)
//     lookup: it is the (μ-1)-th largest σ among v's arcs (σ(v,v)=1
//     supplies the μ-th similar member);
//   - the ε-similar neighbors of v are exactly a prefix of v's order;
//   - the cores at (μ, ε) are exactly a prefix of the per-μ core order
//     (vertices sorted by descending coreThr), which the index derives
//     lazily and memoizes the first time a μ value is queried.
//
// A Query(μ, ε) therefore reads σ only from core-order and neighbor-order
// prefixes: it unions cores along similar core-core edges, attaches borders
// and splits the rest into hubs and outliers — the same replay semantics as
// sweep.Explorer.ClusteringAt, so results are byte-identical to
// cluster.Reference after canonicalization.
package index

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"anyscan/internal/cluster"
	"anyscan/internal/graph"
	"anyscan/internal/par"
	"anyscan/internal/simeval"
)

// Index answers exact (μ, ε) clustering queries for one graph.
//
// An Index is immutable after Build/Load apart from the lazily memoized
// per-μ core orders, which are guarded internally; every method is safe for
// any number of concurrent callers with no external locking. The anyscand
// service relies on this to cache a single Index per graph across requests.
type Index struct {
	g graph.Graph

	// nbr/nbrSig are the per-vertex neighbor orders, parallel to the CSR
	// offset ranges: within each vertex's range, neighbors sorted by σ
	// descending (ties by neighbor id ascending). nbrSig holds each arc's
	// activation threshold — the largest representable ε at which the
	// similarity predicate of its endpoints still holds (simeval.Crossing of
	// the exact numerator and denominator) — and is the only in-memory copy
	// of σ: CSR arc order exists only in the persisted file (persist.go).
	// The ε-similar neighbors of v are the maximal prefix with nbrSig ≥ ε.
	nbr    []int32
	nbrSig []float64

	simEvals int64         // exact σ values produced by the build (0 for loads)
	buildTau time.Duration // wall time of Build (0 for loads)
	threads  int           // worker count for large parallel queries

	// approx is non-nil for indexes built with BuildApprox at δ>0: the σ
	// slice then holds sketch estimates with per-arc error bands and queries
	// take the band-aware path (see approx.go). nil means every σ is exact.
	approx *approxState

	mu     sync.Mutex
	orders map[int]*CoreOrder // μ → memoized core order
}

// Build evaluates all |E| similarities with the given number of workers and
// sorts every vertex's neighbor order; this is the only σ pass the index
// will ever perform. One exact kernel serves every weight (sigmaPass): each
// edge is one gather over its lower-ranked endpoint's adjacency against the
// other endpoint's weights, scattered into a dense row. The O(|E| log d_max)
// sort that follows permutes the thresholds into σ order in place; both
// phases are parallel.
func Build(g graph.Graph, threads int) *Index {
	x, _ := BuildCtx(context.Background(), g, threads)
	return x
}

// BuildCtx is Build with cooperative cancellation: the σ pass and the
// neighbor-order sort poll ctx between chunks, so an expensive build whose
// every requester has gone away (an abandoned single-flight build in a
// serving cache, a shut-down daemon) stops burning cores within one chunk
// instead of running to completion. On cancellation BuildCtx returns
// ctx.Err() and no Index — a partially evaluated σ slice is never exposed.
func BuildCtx(ctx context.Context, g graph.Graph, threads int) (*Index, error) {
	start := time.Now()
	x := &Index{
		g:        g,
		simEvals: g.NumEdges(),
		threads:  threads,
		orders:   map[int]*CoreOrder{},
	}
	var err error
	if x.nbr, x.nbrSig, err = sigmaPass(ctx, g, threads); err != nil {
		return nil, err
	}
	if err := x.sortNeighborsCtx(ctx, threads); err != nil {
		return nil, err
	}
	x.buildTau = time.Since(start)
	return x, nil
}

// sigmaPass is the exact σ pass, one kernel for every weight. It returns
// every vertex's adjacency copied into nbr (a compressed backend decodes
// each list once, here) and every arc's threshold in sig, both in CSR arc
// order.
//
// Vertices rank by (degree, id). A worker takes a vertex u, loads u's
// weights into its simeval.Row, and evaluates every edge from u to a
// lower-ranked q as one Row.Crossing, a gather of that row over q's ids in
// nbr, reading q's weights in place (graph.NeighborWeights, no decode).
// The ranking makes every gather run over the shorter of the two lists
// (the GS*-index similarity pass of Tseng, Dhulipala & Shun; see
// PAPERS.md). The threshold goes to both arc slots, u's by position and q's
// by a binary search of q's ids. Only the worker holding an edge's
// higher-ranked end writes its two slots, so no write needs an atomic.
//
// Thresholds are bit-identical to the reference merge join of the two
// adjacencies, passed through simeval.Crossing, on every backend and thread
// count (see simeval.Row).
//
// Transient memory is one float32 per vertex per worker, plus a cursor's
// decode buffer on a compressed backend.
func sigmaPass(ctx context.Context, g graph.Graph, threads int) ([]int32, []float64, error) {
	n := g.NumVertices()
	nbr := make([]int32, g.NumArcs())
	sig := make([]float64, g.NumArcs())
	if threads <= 0 {
		threads = runtime.GOMAXPROCS(0)
	}
	type scratch struct {
		cur *graph.Cursor
		row simeval.Row // holds u's weights; nbr keeps the ids it clears
	}
	scr := make([]scratch, threads)
	for i := range scr {
		scr[i].row = simeval.NewRow(n)
	}
	err := par.ForWorkerCtx(ctx, n, threads, par.Adaptive, func(w, i int) {
		s := &scr[w]
		if s.cur == nil {
			s.cur = graph.NewCursor(g)
		}
		lo, _ := g.NeighborRange(int32(i))
		ids, _ := s.cur.Neighbors(int32(i))
		copy(nbr[lo:], ids)
	})
	if err != nil {
		return nil, nil, err
	}
	err = par.ForWorkerCtx(ctx, n, threads, par.Adaptive, func(w, i int) {
		u := int32(i)
		lo, hi := g.NeighborRange(u)
		ids, wu := nbr[lo:hi], graph.NeighborWeights(g, u)
		row := &scr[w].row
		for j, q := range ids {
			qlo, qhi := g.NeighborRange(q)
			if qhi-qlo > hi-lo || qhi-qlo == hi-lo && q > u {
				continue // q ranks above u: evaluated from q
			}
			if row.Vertex() != u {
				row.Load(u, ids, wu)
			}
			qids := nbr[qlo:qhi]
			t := row.Crossing(wu[j], qids, graph.NeighborWeights(g, q), g.SqrtNorm(u)*g.SqrtNorm(q))
			k, _ := slices.BinarySearch(qids, u)
			sig[lo+int64(j)], sig[qlo+int64(k)] = t, t
		}
	})
	if err != nil {
		return nil, nil, err
	}
	return nbr, sig, nil
}

// sortNeighborsCtx turns the arc-order nbrSig (and, for an approximate
// index, nbrBand) into the σ-sorted neighbor orders, sorting every vertex's
// range of the three parallel arrays in place. An nbr already set
// (sigmaPass copies each adjacency there) is sorted as it is; an unset one
// is filled from the graph first. A nil ctx disables polling and never
// errors.
func (x *Index) sortNeighborsCtx(ctx context.Context, threads int) error {
	g := x.g
	fill := x.nbr == nil
	if fill {
		x.nbr = make([]int32, g.NumArcs())
	}
	var band []float32
	if x.approx != nil {
		band = x.approx.nbrBand
	}
	return par.ForCtx(ctx, g.NumVertices(), threads, 32, func(i int) {
		v := int32(i)
		lo, hi := g.NeighborRange(v)
		ids := x.nbr[lo:hi]
		if fill {
			// On a flat CSR this is a storage alias; a compressed backend
			// decodes once per vertex here (amortized against the
			// O(deg log deg) sort).
			adj, _ := g.Neighbors(v)
			copy(ids, adj)
		}
		var b []float32
		if band != nil {
			// Approximate indexes carry the per-arc error band through the
			// same permutation, so the sorted order and its bands stay
			// parallel.
			b = band[lo:hi]
		}
		sortOrder(ids, x.nbrSig[lo:hi], b)
	})
}

// Graph returns the graph the index was built over (whichever backend the
// caller supplied to Build or Load).
func (x *Index) Graph() graph.Graph { return x.g }

// NumVertices returns the vertex count of the indexed graph. Together with
// NeighborOrder and CoreThreshold it makes the index a local.View, so
// seed-centered community queries can run straight off the index.
func (x *Index) NumVertices() int { return x.g.NumVertices() }

// SimEvals returns the number of exact σ values the build produced, not the
// adjacency joins it ran: one per undirected edge for an exact build; the
// edges an approximate build evaluated exactly; 0 for an index restored by
// Load.
func (x *Index) SimEvals() int64 { return x.simEvals }

// BuildTime returns the wall time Build took (0 for an index restored by
// Load).
func (x *Index) BuildTime() time.Duration { return x.buildTau }

// Bytes returns the approximate resident size of the index's own storage
// (sorted neighbor orders with their σ thresholds, memoized core orders) —
// the graph itself is owned by the caller and not counted. Serving caches use
// this to enforce a memory budget with LRU eviction.
func (x *Index) Bytes() int64 {
	b := int64(len(x.nbr))*4 + int64(len(x.nbrSig))*8
	if a := x.approx; a != nil {
		b += int64(len(a.nbrBand))*4 + int64(len(a.maxBand))*8 + int64(len(a.resolved))*8
	}
	x.mu.Lock()
	for _, co := range x.orders {
		b += int64(len(co.Verts))*4 + int64(len(co.Thr))*8
	}
	if a := x.approx; a != nil {
		for _, co := range a.ordersU {
			b += int64(len(co.Verts))*4 + int64(len(co.Thr))*8
		}
	}
	x.mu.Unlock()
	return b
}

// NeighborOrder returns v's σ-sorted neighbor order: neighbor ids sorted by
// σ descending (ties by id ascending) and the parallel activation thresholds.
// The slices alias the index's backing storage — callers must treat them as
// read-only. Package live uses them to seed epoch 0 of a mutable graph
// without copying the index.
func (x *Index) NeighborOrder(v int32) (ids []int32, sigs []float64) {
	lo, hi := x.g.NeighborRange(v)
	return x.nbr[lo:hi], x.nbrSig[lo:hi]
}

// Threads returns the worker count the index was built with (what Build was
// given, normalized at the par layer when 0).
func (x *Index) Threads() int { return x.threads }

// CoreThreshold returns the largest ε at which v is a core at the given μ
// (0 = never a core). O(1), read off the sorted neighbor order
// (CoreThresholdOf).
func (x *Index) CoreThreshold(v int32, mu int) float64 {
	lo, hi := x.g.NeighborRange(v)
	return CoreThresholdOf(x.nbrSig[lo:hi], mu)
}

// CoreThresholdOf is the core threshold at μ of a vertex whose σ-sorted
// neighbor thresholds are sigs: the (μ-1)-th largest σ among its arcs, as
// σ(v,v)=1 supplies the vertex's own membership; 1 for μ ≤ 1 and 0 when the
// vertex has fewer than μ-1 arcs. Both row layouts — the index and a live
// epoch's segments — answer CoreThreshold through it.
//
// The threshold is capped at 1, the largest valid ε: simeval.Crossing gives
// an edge whose σ is exactly 1 the threshold 1+2⁻⁵², and for every ε ≤ 1,
// t ≥ ε holds exactly when min(t, 1) ≥ ε, so no clustering changes.
func CoreThresholdOf(sigs []float64, mu int) float64 {
	if mu <= 1 {
		return 1
	}
	if len(sigs) < mu-1 {
		return 0
	}
	return min(sigs[mu-2], 1)
}

// CoreOrder returns the memoized core order for μ, deriving it on first use.
// The order is shared and immutable: callers must treat it as read-only.
func (x *Index) CoreOrder(mu int) *CoreOrder {
	x.mu.Lock()
	defer x.mu.Unlock()
	co, ok := x.orders[mu]
	if !ok {
		co = newCoreOrder(x.NumVertices(), func(v int32) float64 { return x.CoreThreshold(v, mu) })
		x.orders[mu] = co
	}
	return co
}

// Query returns the exact SCAN clustering at (μ, ε) without recomputing any
// similarity. Beyond the O(|V|) per-query arrays and result, it walks the
// similar-neighborhood prefixes of the cores at (μ, ε), and its hub/outlier
// split reads the arcs on the smaller side of the labelled/noise cut, or
// none when there are fewer than two clusters (Replay).
//
// Borders claimed by several clusters attach to their smallest qualifying
// core, making the output deterministic: after canonicalization it is
// byte-identical to cluster.Reference (and to sweep.Explorer.ClusteringAt).
func (x *Index) Query(mu int, eps float64) (*cluster.Result, error) {
	if mu < 1 {
		return nil, fmt.Errorf("index: mu must be >= 1, got %d", mu)
	}
	if !(eps > 0 && eps <= 1) {
		return nil, fmt.Errorf("index: eps must be in (0,1], got %v", eps)
	}
	if x.approx != nil && !x.approx.exactFallback {
		return x.queryApprox(mu, eps)
	}
	return Replay(x, x.CoreOrder(mu).Prefix(eps), eps, x.threads), nil
}
