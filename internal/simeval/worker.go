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
//   - hubMinDegree: once the tail vertex is this heavy, loading its weights
//     into the worker's dense Row turns every subsequent join against it
//     into an O(d_other) gather. The load is amortized because core checks
//     evaluate all arcs of a tail vertex back-to-back on the same worker.
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
	e *Engine
	c *Shard
	// pc/qc are this worker's decode cursors: every kernel holds p's and q's
	// adjacency simultaneously, so each endpoint gets its own cursor. On a
	// flat CSR a cursor access is a plain slice alias; on a compressed backend
	// it decodes into the cursor's reusable buffer, keeping the parallel hot
	// path allocation-free on every graph.Graph implementation.
	pc, qc *graph.Cursor
	// hub holds the last hub tail's weights, and hc decodes hub adjacencies
	// only, so the ids the row keeps to clear itself survive the joins'
	// decodes. Both are made on the worker's first hub (hubRow).
	hub Row
	hc  *graph.Cursor
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
				e: e, c: e.C.Shard(i),
				pc: graph.NewCursor(e.G), qc: graph.NewCursor(e.G),
			}
		}
	}
	e.wes.Store(&next)
	return next[w]
}

// SimilarEdge reports whether σ(p,q) ≥ ε for the adjacent pair (p,q) with
// known edge weight wpq. Decision-identical to Engine.SimilarEdge.
func (we *WorkerEngine) SimilarEdge(p, q int32, wpq float32) bool {
	self, threshold, pruned := we.e.predicate(p, q, wpq)
	if pruned {
		we.c.Pruned.Add(1)
		return false
	}
	we.c.Sims.Add(1)
	if we.e.Opt.EarlyExit {
		return we.adaptiveThreshold(p, q, self, threshold)
	}
	return self+we.adaptiveDot(p, q) >= threshold
}

// EdgeNumerator mirrors Engine.EdgeNumerator with the adaptive kernels.
func (we *WorkerEngine) EdgeNumerator(p, q int32, wpq float32) (num, denom float64) {
	num = selfTerms(wpq) + we.adaptiveDot(p, q)
	denom = we.e.G.SqrtNorm(p) * we.e.G.SqrtNorm(q)
	return num, denom
}

// adaptiveThreshold picks the join kernel from the endpoint degrees. The
// hub gather keys on the tail p so consecutive evaluations of p's arcs
// reuse one loaded row.
func (we *WorkerEngine) adaptiveThreshold(p, q int32, selfTerms, threshold float64) bool {
	if selfTerms >= threshold {
		we.c.EarlyYes.Add(1)
		return true
	}
	dp, dq := we.e.G.Degree(p), we.e.G.Degree(q)
	switch {
	case dp >= hubMinDegree && dp >= dq:
		return we.hubThreshold(p, q, selfTerms, threshold)
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
		qAdj, qW := we.qc.Neighbors(q)
		return we.hubRow(p).Dot(qAdj, qW)
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

// hubRow returns the worker's row holding p's weights, loading it unless p
// was the last hub. The row is cleared before hc decodes p, because on a
// compressed backend that decode overwrites the previous hub's ids.
func (we *WorkerEngine) hubRow(p int32) *Row {
	if we.hub.w == nil {
		we.hub, we.hc = NewRow(we.e.G.NumVertices()), graph.NewCursor(we.e.G)
	} else if we.hub.v == p {
		return &we.hub
	}
	we.hub.Reset()
	ids, w := we.hc.Neighbors(p)
	we.hub.Load(p, ids, w)
	return &we.hub
}

// hubThreshold gathers q's adjacency against hub p's row with running
// bound exits. A non-neighbor adds an exact +0 and leaves the sum as it
// was, so the success exit can fire only after a common neighbor, at the
// sum the merge join reaches there. The remaining-work bound counts q's
// unscanned entries, at least the merge join's min-based bound, so an early
// failure here implies the merge join would decide identically.
func (we *WorkerEngine) hubThreshold(p, q int32, selfTerms, threshold float64) bool {
	row := we.hubRow(p).w
	g := we.e.G
	qAdj, qW := we.qc.Neighbors(q)
	maxTerm := float64(g.MaxWeight(p)) * float64(g.MaxWeight(q))
	dot := 0.0
	for j, r := range qAdj {
		if selfTerms+dot+float64(len(qAdj)-j)*maxTerm < threshold {
			we.c.EarlyNo.Add(1)
			return false
		}
		dot += float64(row[r]) * float64(qW[j])
		if selfTerms+dot >= threshold {
			we.c.EarlyYes.Add(1)
			return true
		}
	}
	return selfTerms+dot >= threshold
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
