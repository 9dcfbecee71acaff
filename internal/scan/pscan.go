package scan

import (
	"sort"
	"time"

	"anyscan/internal/cluster"
	"anyscan/internal/graph"
	"anyscan/internal/simeval"
	"anyscan/internal/unionfind"
)

// PSCAN runs pSCAN (Chang et al., ICDE 2016), the paper's strongest exact
// sequential competitor. It maintains, per vertex, a similar-degree lower
// bound sd (confirmed similar neighbors, including self) and an effective-
// degree upper bound ed (sd plus unresolved neighbors), shares every σ
// evaluation between both endpoints through a per-edge memo, checks cores in
// non-increasing degree order with early termination, clusters cores first
// through a disjoint-set, and only then attaches non-core members.
func PSCAN(g *graph.CSR, mu int, eps float64) (*cluster.Result, Metrics) {
	start := time.Now()
	n := g.NumVertices()
	eng := simeval.New(g, eps, simeval.AllOptimizations)
	rev := g.ReverseEdgeIndex()

	sd := make([]int32, n) // similar-degree lower bound, incl. self
	ed := make([]int32, n) // effective-degree upper bound, incl. self
	for v := 0; v < n; v++ {
		sd[v] = 1
		ed[v] = int32(g.Degree(int32(v))) + 1
	}
	memo := make([]simeval.MemoState, g.NumArcs())

	// resolve evaluates σ for arc e = u→v (if unknown) and updates the
	// sd/ed bounds of both endpoints. Returns whether σ(u,v) ≥ ε.
	resolve := func(u int32, e int64) bool {
		switch memo[e] {
		case simeval.Similar:
			eng.C.Shared.Add(1)
			return true
		case simeval.Dissimilar:
			eng.C.Shared.Add(1)
			return false
		}
		v, w := g.Arc(e)
		ok := eng.SimilarEdge(u, v, w)
		if ok {
			memo[e], memo[rev[e]] = simeval.Similar, simeval.Similar
			sd[u]++
			sd[v]++
		} else {
			memo[e], memo[rev[e]] = simeval.Dissimilar, simeval.Dissimilar
			ed[u]--
			ed[v]--
		}
		return ok
	}

	// checkCore resolves arcs of u until its coreness is decided.
	checkCore := func(u int32) bool {
		if sd[u] >= int32(mu) {
			return true
		}
		if ed[u] < int32(mu) {
			return false
		}
		lo, hi := g.NeighborRange(u)
		for e := lo; e < hi; e++ {
			if memo[e] != simeval.Unknown {
				continue
			}
			resolve(u, e)
			if sd[u] >= int32(mu) {
				return true
			}
			if ed[u] < int32(mu) {
				return false
			}
		}
		return sd[u] >= int32(mu)
	}

	// The lock-free structure is driven sequentially here (pSCAN is the
	// paper's sequential competitor); union-by-min with path halving matches
	// the rank-based forest's complexity on this workload, and sharing one
	// structure keeps the merge-phase instrumentation uniform.
	ds := unionfind.NewConcurrent(n)

	// Phase 1: discover cores in non-increasing degree order and union
	// adjacent similar cores. An edge whose second endpoint's coreness is
	// still unknown is deferred: the later endpoint performs the union.
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(i, j int) bool {
		return g.Degree(order[i]) > g.Degree(order[j])
	})

	coreKnown := make([]int8, n) // 0 unknown, 1 core, 2 non-core
	for _, u := range order {
		if coreKnown[u] == 0 {
			if checkCore(u) {
				coreKnown[u] = 1
			} else {
				coreKnown[u] = 2
			}
		}
		if coreKnown[u] != 1 {
			continue
		}
		// ClusterCore(u): try to union u with core neighbors.
		lo, hi := g.NeighborRange(u)
		for e := lo; e < hi; e++ {
			v, _ := g.Arc(e)
			if ed[v] < int32(mu) && coreKnown[v] != 1 {
				continue // v can no longer be a core
			}
			if coreKnown[v] == 1 && ds.Connected(u, v) {
				continue // already same cluster: skip the evaluation
			}
			if !resolve(u, e) {
				continue
			}
			// σ(u,v) ≥ ε. Union only when v is a *known* core; otherwise
			// defer to v's own turn (σ is memoized, so no recomputation).
			if coreKnown[v] == 0 && sd[v] >= int32(mu) {
				coreKnown[v] = 1
			}
			if coreKnown[v] == 1 {
				ds.Union(u, v)
			}
		}
	}

	// Phase 2: attach non-core members to the cluster of a similar core.
	labels := make([]int32, n)
	isCore := make([]bool, n)
	for i := range labels {
		labels[i] = unclassified
	}
	for v := int32(0); v < int32(n); v++ {
		if coreKnown[v] == 1 {
			isCore[v] = true
			labels[v] = ds.Find(v)
		}
	}
	for u := int32(0); u < int32(n); u++ {
		if !isCore[u] {
			continue
		}
		lo, hi := g.NeighborRange(u)
		for e := lo; e < hi; e++ {
			v, _ := g.Arc(e)
			if isCore[v] || labels[v] != unclassified {
				continue // cores handled; first border assignment wins
			}
			if resolve(u, e) {
				labels[v] = labels[u]
			}
		}
	}

	res := buildResult(g, labels, isCore)
	m := Metrics{
		Sim:     eng.C.Snapshot(),
		Unions:  int64(n - ds.Sets()),
		Elapsed: time.Since(start),
	}
	return res, m
}
