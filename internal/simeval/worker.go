package simeval

import (
	"sync/atomic"

	"anyscan/internal/graph"
)

// Kernel selection thresholds. The join kernels are decision-equivalent (see
// the WorkerEngine comment), so these only trade constant factors:
//
//   - gallopRatio: once one adjacency list is this many times longer than the
//     other, scanning the short list and galloping through the long one does
//     O(d_min·log d_max) work instead of the merge join's O(d_min + d_max).
//   - hubMinDegree: once the tail vertex is this heavy, materializing its
//     neighborhood as a bitset (plus dense weight array) turns every
//     subsequent join against it into an O(d_other) probe. The build cost is
//     amortized because core checks evaluate all arcs of a tail vertex
//     back-to-back on the same worker.
const (
	gallopRatio  = 8
	hubMinDegree = 512
)

// WorkerEngine is a per-worker view of an Engine for parallel hot paths. It
// routes counters to the worker's private Shard (one uncontended atomic add
// instead of a line bouncing between every core) and evaluates joins with a
// degree-adaptive kernel backed by reusable per-worker scratch, so the steady
// state performs zero allocations per similarity evaluation.
//
// Every kernel accumulates the common-neighbor products in ascending
// neighbor-id order with the exact float expression of the sort-merge join,
// and every early exit uses a conservative bound, so a WorkerEngine returns
// bit-identical σ values and threshold decisions to its Engine — the property
// tests in worker_test.go assert exact equality, and the clustering
// equivalence suites depend on it.
//
// A WorkerEngine must only be used by the worker id it was created for; the
// Engine itself remains safe for concurrent use.
type WorkerEngine struct {
	e   *Engine
	c   *Shard
	hub hubScratch
	// pc/qc are this worker's decode cursors: every kernel holds p's and q's
	// adjacency simultaneously, so each endpoint gets its own cursor. On a
	// flat CSR a cursor access is a plain slice alias; on a compressed backend
	// it decodes into the cursor's reusable buffer, keeping the parallel hot
	// path allocation-free on every graph.Graph implementation.
	pc, qc *graph.Cursor
}

// hubScratch caches one tail vertex's neighborhood as a membership bitset
// plus a dense weight array, both sized to the graph once per worker.
type hubScratch struct {
	v    int32 // vertex currently materialized; -1 when none
	bits []uint64
	wt   []float32
}

// ForWorker returns worker w's engine view, creating it (and its counter
// shard) on first use. The fast path is one atomic pointer load, so calling
// it per item inside a parallel loop is fine.
func (e *Engine) ForWorker(w int) *WorkerEngine {
	if p := e.wes.Load(); p != nil && w < len(*p) && (*p)[w] != nil {
		return (*p)[w]
	}
	return e.growWorker(w)
}

func (e *Engine) growWorker(w int) *WorkerEngine {
	e.weMu.Lock()
	defer e.weMu.Unlock()
	var cur []*WorkerEngine
	if p := e.wes.Load(); p != nil {
		cur = *p
	}
	if w < len(cur) && cur[w] != nil {
		return cur[w]
	}
	next := make([]*WorkerEngine, len(cur))
	copy(next, cur)
	for len(next) <= w {
		next = append(next, nil)
	}
	for i := range next {
		if next[i] == nil {
			next[i] = &WorkerEngine{
				e: e, c: e.C.Shard(i), hub: hubScratch{v: -1},
				pc: graph.NewCursor(e.G), qc: graph.NewCursor(e.G),
			}
		}
	}
	e.wes.Store(&next)
	return next[w]
}

// Sigma returns the exact similarity σ(p,q), bit-identical to Engine.Sigma.
func (we *WorkerEngine) Sigma(p, q int32) float64 {
	we.c.Sims.Add(1)
	e := we.e
	acc := we.adaptiveDot(p, q)
	if w := e.G.EdgeWeight(p, q); w > 0 {
		acc += 2 * float64(w) * graph.SelfWeight
	}
	if p == q {
		acc += graph.SelfWeight * graph.SelfWeight
	}
	return acc / (e.G.SqrtNorm(p) * e.G.SqrtNorm(q))
}

// SimilarEdge reports whether σ(p,q) ≥ ε for the adjacent pair (p,q) with
// known edge weight wpq. Decision-identical to Engine.SimilarEdge.
func (we *WorkerEngine) SimilarEdge(p, q int32, wpq float32) bool {
	e := we.e
	threshold := e.Eps * (e.G.SqrtNorm(p) * e.G.SqrtNorm(q))
	if e.Opt.Lemma5 {
		dp, dq := e.G.Degree(p), e.G.Degree(q)
		minD := dp
		if dq < minD {
			minD = dq
		}
		bound := float64(minD)*float64(e.G.MaxWeight(p))*float64(e.G.MaxWeight(q)) +
			2*float64(wpq)*graph.SelfWeight
		if bound < threshold {
			we.c.Pruned.Add(1)
			return false
		}
	}
	we.c.Sims.Add(1)
	selfTerms := 2 * float64(wpq) * graph.SelfWeight
	if e.Opt.EarlyExit {
		return we.adaptiveThreshold(p, q, selfTerms, threshold)
	}
	return selfTerms+we.adaptiveDot(p, q) >= threshold
}

// EdgeNumerator mirrors Engine.EdgeNumerator with the adaptive kernels.
func (we *WorkerEngine) EdgeNumerator(p, q int32, wpq float32) (num, denom float64) {
	selfTerms := 2 * float64(wpq) * graph.SelfWeight
	num = selfTerms + we.adaptiveDot(p, q)
	denom = we.e.G.SqrtNorm(p) * we.e.G.SqrtNorm(q)
	return num, denom
}

// adaptiveThreshold picks the join kernel from the endpoint degrees. The
// bitset probe keys on the tail p so consecutive evaluations of p's arcs
// reuse one materialization.
func (we *WorkerEngine) adaptiveThreshold(p, q int32, selfTerms, threshold float64) bool {
	if selfTerms >= threshold {
		we.c.EarlyYes.Add(1)
		return true
	}
	dp, dq := we.e.G.Degree(p), we.e.G.Degree(q)
	switch {
	case dp >= hubMinDegree && dp >= dq:
		return we.bitsetThreshold(p, q, selfTerms, threshold)
	case dp >= gallopRatio*dq || dq >= gallopRatio*dp:
		return we.gallopThreshold(p, q, selfTerms, threshold)
	default:
		g := we.e.G
		pAdj, pW := we.pc.Neighbors(p)
		qAdj, qW := we.qc.Neighbors(q)
		maxTerm := float64(g.MaxWeight(p)) * float64(g.MaxWeight(q))
		return mergeJoinThreshold(pAdj, pW, qAdj, qW, maxTerm, selfTerms, threshold,
			&we.c.EarlyYes, &we.c.EarlyNo)
	}
}

// adaptiveDot returns the open-neighborhood dot product, bit-identical to
// Engine.openDot, with the kernel chosen as in adaptiveThreshold.
func (we *WorkerEngine) adaptiveDot(p, q int32) float64 {
	dp, dq := we.e.G.Degree(p), we.e.G.Degree(q)
	switch {
	case dp >= hubMinDegree && dp >= dq:
		return we.bitsetDot(p, q)
	case dp >= gallopRatio*dq || dq >= gallopRatio*dp:
		pAdj, pW := we.pc.Neighbors(p)
		qAdj, qW := we.qc.Neighbors(q)
		return gallopDotSlices(pAdj, pW, qAdj, qW)
	default:
		pAdj, pW := we.pc.Neighbors(p)
		qAdj, qW := we.qc.Neighbors(q)
		return mergeDotSlices(pAdj, pW, qAdj, qW)
	}
}

// loadHub materializes p's neighborhood into the worker's bitset scratch,
// clearing the previous hub's bits first (only its own words, so a switch
// costs O(deg(old)) — the same order as the build it replaces).
func (we *WorkerEngine) loadHub(p int32) {
	if we.hub.v == p {
		return
	}
	g := we.e.G
	if we.hub.bits == nil {
		n := g.NumVertices()
		we.hub.bits = make([]uint64, (n+63)/64)
		we.hub.wt = make([]float32, n)
	}
	if we.hub.v >= 0 {
		adj, _ := we.pc.Neighbors(we.hub.v)
		for _, r := range adj {
			we.hub.bits[r>>6] = 0
		}
	}
	adj, w := we.pc.Neighbors(p)
	for i, r := range adj {
		we.hub.bits[r>>6] |= 1 << (uint(r) & 63)
		we.hub.wt[r] = w[i]
	}
	we.hub.v = p
}

// bitsetThreshold probes p's cached bitset with q's adjacency. Common
// neighbors surface in ascending id order (q's list is sorted), and the
// remaining-work bound counts only q's unscanned entries — at least the
// merge join's min-based bound, so an early exit here implies the merge join
// would decide identically.
func (we *WorkerEngine) bitsetThreshold(p, q int32, selfTerms, threshold float64) bool {
	we.loadHub(p)
	g := we.e.G
	qAdj, qW := we.qc.Neighbors(q)
	maxTerm := float64(g.MaxWeight(p)) * float64(g.MaxWeight(q))
	bits, wt := we.hub.bits, we.hub.wt
	dot := 0.0
	for j := 0; j < len(qAdj); j++ {
		if selfTerms+dot+float64(len(qAdj)-j)*maxTerm < threshold {
			we.c.EarlyNo.Add(1)
			return false
		}
		r := qAdj[j]
		if bits[r>>6]&(1<<(uint(r)&63)) != 0 {
			dot += float64(wt[r]) * float64(qW[j])
			if selfTerms+dot >= threshold {
				we.c.EarlyYes.Add(1)
				return true
			}
		}
	}
	return selfTerms+dot >= threshold
}

// bitsetDot is bitsetThreshold without the exits (exact dot product).
func (we *WorkerEngine) bitsetDot(p, q int32) float64 {
	we.loadHub(p)
	qAdj, qW := we.qc.Neighbors(q)
	bits, wt := we.hub.bits, we.hub.wt
	dot := 0.0
	for j, r := range qAdj {
		if bits[r>>6]&(1<<(uint(r)&63)) != 0 {
			dot += float64(wt[r]) * float64(qW[j])
		}
	}
	return dot
}

// gallopThreshold scans the shorter adjacency list and gallops through the
// longer one. Matches appear in ascending id order; the remaining-work bound
// counts the short list's unscanned entries (≥ the merge join's bound).
func (we *WorkerEngine) gallopThreshold(p, q int32, selfTerms, threshold float64) bool {
	g := we.e.G
	sAdj, sW := we.pc.Neighbors(p)
	lAdj, lW := we.qc.Neighbors(q)
	if len(sAdj) > len(lAdj) {
		sAdj, lAdj = lAdj, sAdj
		sW, lW = lW, sW
	}
	maxTerm := float64(g.MaxWeight(p)) * float64(g.MaxWeight(q))
	dot := 0.0
	j := 0
	for i := 0; i < len(sAdj); i++ {
		if selfTerms+dot+float64(len(sAdj)-i)*maxTerm < threshold {
			we.c.EarlyNo.Add(1)
			return false
		}
		j = gallopSearch(lAdj, j, sAdj[i])
		if j >= len(lAdj) {
			break
		}
		if lAdj[j] == sAdj[i] {
			dot += float64(sW[i]) * float64(lW[j])
			j++
			if selfTerms+dot >= threshold {
				we.c.EarlyYes.Add(1)
				return true
			}
		}
	}
	return selfTerms+dot >= threshold
}

// gallopSearch returns the smallest index k ≥ lo with a[k] ≥ target
// (len(a) if none), by exponential probing followed by binary search —
// O(log gap) instead of O(gap).
func gallopSearch(a []int32, lo int, target int32) int {
	if lo >= len(a) || a[lo] >= target {
		return lo
	}
	// Invariant from here: a[lo] < target.
	step := 1
	hi := lo + 1
	for hi < len(a) && a[hi] < target {
		lo = hi
		step <<= 1
		hi = lo + step
	}
	if hi > len(a) {
		hi = len(a)
	}
	for lo+1 < hi {
		mid := int(uint(lo+hi) >> 1)
		if a[mid] < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// mergeJoinThreshold is the classic sort-merge join with running bound exits,
// shared verbatim between Engine (base counters) and WorkerEngine (shard
// counters). It takes the two sorted adjacency slices (however the caller's
// backend produced them) plus maxTerm = MaxWeight(p)·MaxWeight(q). The
// decision value is always selfTerms + (running dot), the exact float
// expression of the non-early path, so the exits never flip a boundary
// decision.
func mergeJoinThreshold(pAdj []int32, pW []float32, qAdj []int32, qW []float32, maxTerm, selfTerms, threshold float64, earlyYes, earlyNo *atomic.Int64) bool {
	i, j := 0, 0
	// Upper bound on the remaining numerator contribution.
	remaining := func() float64 {
		r := len(pAdj) - i
		if s := len(qAdj) - j; s < r {
			r = s
		}
		return float64(r) * maxTerm
	}
	if selfTerms >= threshold {
		earlyYes.Add(1)
		return true
	}
	dot := 0.0
	for i < len(pAdj) && j < len(qAdj) {
		switch {
		case pAdj[i] < qAdj[j]:
			i++
		case pAdj[i] > qAdj[j]:
			j++
		default:
			dot += float64(pW[i]) * float64(qW[j])
			i++
			j++
			if selfTerms+dot >= threshold {
				earlyYes.Add(1)
				return true
			}
		}
		if selfTerms+dot+remaining() < threshold {
			earlyNo.Add(1)
			return false
		}
	}
	return selfTerms+dot >= threshold
}
