// Package simeval evaluates the weighted structural similarity of
// Definition 1 and implements the Section III-D optimizations (Lemma 5
// upper-bound pruning and early success/failure exits inside the sort-merge
// join). Every clustering algorithm in this repository funnels its
// similarity work through an Engine, so the "number of structural similarity
// calculations" axis of Fig. 7 is measured uniformly.
//
// Similarity uses the closed-neighborhood convention (see package graph):
//
//	σ(p,q) = (Σ_{r∈N[p]∩N[q]} w_pr·w_qr) / √(l_p·l_q)
//
// with implicit self-loops of weight graph.SelfWeight. For adjacent p,q the
// intersection always contains p and q themselves, contributing
// w_qp·SelfWeight + w_pq·SelfWeight to the numerator. By Cauchy–Schwarz,
// σ(p,q) ∈ [0,1].
package simeval

import (
	"math"
	"sync"
	"sync/atomic"

	"anyscan/internal/graph"
)

// counterPad separates counter cache lines. 128 bytes covers the spatial
// prefetcher pulling adjacent lines on current x86 parts.
const counterPad = 128

// PaddedInt64 is an atomic counter padded out to its own cache-line pair, so
// two adjacent counters hammered by different cores never cause false
// sharing. It embeds atomic.Int64, so Add/Load/Store work as usual.
type PaddedInt64 struct {
	atomic.Int64
	_ [counterPad - 8]byte
}

// Counters tallies similarity work.
//
// Memory-ordering contract: all writes are atomic adds and all reads are
// atomic loads, so any concurrent Snapshot observes a consistent (if
// momentarily stale) value per counter without tearing. Counter totals are
// exact only at quiescent points — after a parallel phase has joined — which
// is when the anytime machinery (Progress, Metrics, checkpoints) reads them.
// Each field sits on its own cache-line pair; sequential algorithms update
// the fields directly, while parallel algorithms route updates through
// per-worker Shards (see Shard) and pay a single uncontended atomic add.
type Counters struct {
	// Sims is the number of full similarity evaluations (a join was
	// executed, possibly with an early exit). This is the quantity plotted
	// on the left of Fig. 7.
	Sims PaddedInt64
	// Pruned counts O(1) Lemma-5 rejections that avoided a join entirely.
	Pruned PaddedInt64
	// EarlyYes / EarlyNo count joins cut short by the running-sum bounds.
	EarlyYes PaddedInt64
	EarlyNo  PaddedInt64
	// Shared counts memoized lookups that avoided recomputation (the
	// "similarity sharing" evaluations of SCAN++ in Fig. 7).
	Shared PaddedInt64

	shardMu sync.Mutex
	shards  atomic.Pointer[[]*Shard]
}

// Shard is a per-worker slice of Counters. A shard has exactly one writer
// (its worker), so its adds never contend; fields are still atomic so that a
// concurrent Snapshot (progress reporting) reads without tearing. The
// trailing pad keeps distinct shards off each other's cache lines.
type Shard struct {
	Sims, Pruned, EarlyYes, EarlyNo, Shared atomic.Int64
	_                                       [counterPad - 40]byte
}

// Shard returns worker w's counter shard, creating it on first use. The fast
// path is a single atomic pointer load; growth takes a mutex but happens at
// most O(log workers) times per Counters value.
func (c *Counters) Shard(w int) *Shard {
	if p := c.shards.Load(); p != nil && w < len(*p) && (*p)[w] != nil {
		return (*p)[w]
	}
	return c.growShard(w)
}

func (c *Counters) growShard(w int) *Shard {
	c.shardMu.Lock()
	defer c.shardMu.Unlock()
	var cur []*Shard
	if p := c.shards.Load(); p != nil {
		cur = *p
	}
	if w < len(cur) && cur[w] != nil {
		return cur[w]
	}
	next := make([]*Shard, len(cur))
	copy(next, cur)
	for len(next) <= w {
		next = append(next, nil)
	}
	for i := range next {
		if next[i] == nil {
			next[i] = new(Shard)
		}
	}
	c.shards.Store(&next)
	return next[w]
}

// Snapshot returns a plain-value copy of the counters, merging every worker
// shard into the base fields. Exact at quiescent points; see the type comment
// for the concurrent-read semantics.
func (c *Counters) Snapshot() CounterValues {
	v := CounterValues{
		Sims:     c.Sims.Load(),
		Pruned:   c.Pruned.Load(),
		EarlyYes: c.EarlyYes.Load(),
		EarlyNo:  c.EarlyNo.Load(),
		Shared:   c.Shared.Load(),
	}
	if p := c.shards.Load(); p != nil {
		for _, s := range *p {
			v.Sims += s.Sims.Load()
			v.Pruned += s.Pruned.Load()
			v.EarlyYes += s.EarlyYes.Load()
			v.EarlyNo += s.EarlyNo.Load()
			v.Shared += s.Shared.Load()
		}
	}
	return v
}

// CounterValues is a point-in-time copy of Counters.
type CounterValues struct {
	Sims, Pruned, EarlyYes, EarlyNo, Shared int64
}

// Options selects which Section III-D optimizations the engine applies.
type Options struct {
	// Lemma5 enables the O(1) upper-bound rejection of Lemma 5.
	Lemma5 bool
	// EarlyExit enables terminating the merge join as soon as the running
	// numerator crosses (success) or can no longer reach (failure) the
	// ε threshold. Only affects threshold queries, never exact Sigma values.
	EarlyExit bool
}

// AllOptimizations enables everything (the configuration anySCAN, SCAN-B and
// pSCAN run with in Section IV).
var AllOptimizations = Options{Lemma5: true, EarlyExit: true}

// Engine evaluates similarities on one graph at one ε. Safe for concurrent
// use: it is stateless apart from the atomic counters. Parallel hot paths
// should go through ForWorker, which returns a per-worker view with sharded
// counters and degree-adaptive, allocation-free join kernels.
//
// The engine works on any graph.Graph backend. On a flat *graph.CSR every
// neighbor access is a slice alias; on a compressed backend the sequential
// Engine methods decode per call, while WorkerEngine routes all accesses
// through per-worker cursors so the parallel hot paths stay allocation-free
// there too.
type Engine struct {
	G   graph.Graph
	Eps float64
	Opt Options
	C   Counters

	weMu sync.Mutex
	wes  atomic.Pointer[[]*WorkerEngine]
}

// New returns an Engine for g at threshold eps.
func New(g graph.Graph, eps float64, opt Options) *Engine {
	return &Engine{G: g, Eps: eps, Opt: opt}
}

// Sigma returns the exact similarity σ(p,q). It always runs the full join
// (no early exits) so the value is exact; it still counts as one evaluation.
func (e *Engine) Sigma(p, q int32) float64 {
	e.C.Sims.Add(1)
	num := e.closedDot(p, q)
	return num / (e.G.SqrtNorm(p) * e.G.SqrtNorm(q))
}

// SimilarEdge reports whether σ(p,q) ≥ ε for the *adjacent* pair (p,q) with
// known edge weight wpq, applying the enabled optimizations. This is the hot
// path of every core check.
func (e *Engine) SimilarEdge(p, q int32, wpq float32) bool {
	// Parenthesized so the predicate is exactly num >= eps*(√l_p·√l_q),
	// the form EdgeNumerator documents and package sweep replays.
	threshold := e.Eps * (e.G.SqrtNorm(p) * e.G.SqrtNorm(q))
	if e.Opt.Lemma5 {
		dp, dq := e.G.Degree(p), e.G.Degree(q)
		minD := dp
		if dq < minD {
			minD = dq
		}
		// num ≤ min(d_p,d_q)·w_p·w_q (open intersection) + 2·w_pq·SelfWeight
		// (the two closed self terms). Tighter than the paper's bound, same
		// purpose.
		bound := float64(minD)*float64(e.G.MaxWeight(p))*float64(e.G.MaxWeight(q)) +
			2*float64(wpq)*graph.SelfWeight
		if bound < threshold {
			e.C.Pruned.Add(1)
			return false
		}
	}
	e.C.Sims.Add(1)
	selfTerms := 2 * float64(wpq) * graph.SelfWeight
	if e.Opt.EarlyExit {
		return e.joinThreshold(p, q, selfTerms, threshold)
	}
	num := selfTerms + e.openDot(p, q)
	return num >= threshold
}

// Similar reports whether σ(p,q) ≥ ε for an arbitrary pair (adjacent or
// not). Slightly slower than SimilarEdge because it must look up the edge.
func (e *Engine) Similar(p, q int32) bool {
	w := e.G.EdgeWeight(p, q)
	return e.SimilarEdge(p, q, w)
}

// joinThreshold runs the merge join with running upper/lower bound exits
// (shared kernel in worker.go). The decision value is always computed as
// selfTerms + (running dot), the exact float expression of the non-early
// path, so enabling EarlyExit can never flip a boundary decision.
func (e *Engine) joinThreshold(p, q int32, selfTerms, threshold float64) bool {
	pAdj, pW := e.G.Neighbors(p)
	qAdj, qW := e.G.Neighbors(q)
	maxTerm := float64(e.G.MaxWeight(p)) * float64(e.G.MaxWeight(q))
	return mergeJoinThreshold(pAdj, pW, qAdj, qW, maxTerm, selfTerms, threshold,
		&e.C.EarlyYes.Int64, &e.C.EarlyNo.Int64)
}

// EdgeNumerator returns the closed-neighborhood numerator for the adjacent
// pair (p,q) with edge weight wpq, computed with the exact float expression
// SimilarEdge uses, plus the denominator factor √(l_p·l_q). The engine's
// similarity predicate is precisely num >= eps*denom; package sweep uses
// these to derive per-edge activation thresholds that agree bit-for-bit
// with every algorithm in this repository.
func (e *Engine) EdgeNumerator(p, q int32, wpq float32) (num, denom float64) {
	selfTerms := 2 * float64(wpq) * graph.SelfWeight
	num = selfTerms + e.openDot(p, q)
	denom = e.G.SqrtNorm(p) * e.G.SqrtNorm(q)
	return num, denom
}

// Crossing returns the largest float64 t with num >= t*denom, i.e. the
// exact boundary of the engine's similarity predicate as a function of ε.
// The sweep explorer and the query index precompute per-edge activation
// thresholds with it: computing the exact crossing (rather than the rounded
// quotient num/denom) keeps threshold replays bit-for-bit consistent with
// every algorithm that evaluates the predicate directly, even on unweighted
// graphs where σ values hit rational boundaries exactly.
func Crossing(num, denom float64) float64 {
	if denom <= 0 {
		return 0
	}
	t := num / denom
	for num < t*denom {
		t = math.Nextafter(t, math.Inf(-1))
	}
	for {
		u := math.Nextafter(t, math.Inf(1))
		if num < u*denom {
			break
		}
		t = u
	}
	return t
}

// openDot returns Σ_{r∈N(p)∩N(q)} w_pr·w_qr over the open neighborhoods.
func (e *Engine) openDot(p, q int32) float64 {
	pAdj, pW := e.G.Neighbors(p)
	qAdj, qW := e.G.Neighbors(q)
	return mergeDotSlices(pAdj, pW, qAdj, qW)
}

// closedDot returns the closed-neighborhood numerator.
func (e *Engine) closedDot(p, q int32) float64 {
	acc := e.openDot(p, q)
	// Self terms: r=p contributes w_pp·w_qp, r=q contributes w_pq·w_qq.
	if w := e.G.EdgeWeight(p, q); w > 0 {
		acc += 2 * float64(w) * graph.SelfWeight
	}
	if p == q {
		acc += graph.SelfWeight * graph.SelfWeight
	}
	return acc
}

// Restore resets the counters to previously snapshotted values (used when
// resuming a checkpointed run). Quiescent-only: it zeroes every worker shard,
// so it must not race with workers updating them.
func (c *Counters) Restore(v CounterValues) {
	c.Sims.Store(v.Sims)
	c.Pruned.Store(v.Pruned)
	c.EarlyYes.Store(v.EarlyYes)
	c.EarlyNo.Store(v.EarlyNo)
	c.Shared.Store(v.Shared)
	if p := c.shards.Load(); p != nil {
		for _, s := range *p {
			s.Sims.Store(0)
			s.Pruned.Store(0)
			s.EarlyYes.Store(0)
			s.EarlyNo.Store(0)
			s.Shared.Store(0)
		}
	}
}
