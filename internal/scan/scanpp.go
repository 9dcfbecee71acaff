package scan

import (
	"time"

	"anyscan/internal/cluster"
	"anyscan/internal/graph"
	"anyscan/internal/simeval"
	"anyscan/internal/unionfind"
)

// SCANPP runs SCAN++ (Shiokawa et al., PVLDB 2015). It selects *pivots* by
// expanding to directly two-hop-away vertices (DTAR), performs a full
// ε-neighborhood query per pivot, and lets non-pivot vertices reuse the
// similarities already evaluated from the pivot side ("similarity sharing",
// the Shared counter) before finishing their core checks. Local clusters
// around pivots are then merged through bridge vertices.
//
// As the paper observes (Fig. 6/7 discussion), SCAN++ computes full
// neighborhood queries for its pivots without early termination, so with
// small ε or μ its true-similarity count approaches SCAN's while paying the
// extra DTAR maintenance overhead.
func SCANPP(g *graph.CSR, mu int, eps float64) (*cluster.Result, Metrics) {
	start := time.Now()
	n := g.NumVertices()
	eng := simeval.New(g, eps, simeval.Options{}) // SCAN++ has no Lemma-5 pruning
	rev := g.ReverseEdgeIndex()

	memo := make([]simeval.MemoState, g.NumArcs())
	sd := make([]int32, n)
	ed := make([]int32, n)
	for v := 0; v < n; v++ {
		sd[v] = 1
		ed[v] = int32(g.Degree(int32(v))) + 1
	}

	// evaluate resolves arc e = u→v, updating both endpoints' bounds.
	evaluate := func(u int32, e int64) bool {
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

	// Phase 1: pivot expansion. Pivots get full range queries; two-hop-away
	// unvisited vertices of core pivots join the pivot frontier.
	isPivot := make([]bool, n)
	visited := make([]bool, n) // enqueued as pivot or processed
	coreKnown := make([]int8, n)
	var frontier []int32
	inNbr := make([]bool, n) // scratch: marks N(u) while expanding DTAR

	processPivot := func(u int32) {
		isPivot[u] = true
		lo, hi := g.NeighborRange(u)
		for e := lo; e < hi; e++ {
			if memo[e] == simeval.Unknown {
				evaluate(u, e)
			} else {
				eng.C.Shared.Add(1)
			}
		}
		if sd[u] >= int32(mu) {
			coreKnown[u] = 1
		} else {
			coreKnown[u] = 2
		}
		if coreKnown[u] != 1 {
			return
		}
		// DTAR expansion: enqueue unvisited vertices exactly two hops away
		// through similar neighbors.
		for e := lo; e < hi; e++ {
			v, _ := g.Arc(e)
			inNbr[v] = true
		}
		for e := lo; e < hi; e++ {
			if memo[e] != simeval.Similar {
				continue
			}
			v, _ := g.Arc(e)
			vAdj, _ := g.Neighbors(v)
			for _, w := range vAdj {
				if w != u && !visited[w] && !inNbr[w] {
					visited[w] = true
					frontier = append(frontier, w)
				}
			}
		}
		for e := lo; e < hi; e++ {
			v, _ := g.Arc(e)
			inNbr[v] = false
		}
	}

	for v := int32(0); v < int32(n); v++ {
		if visited[v] {
			continue
		}
		visited[v] = true
		frontier = append(frontier[:0], v)
		for len(frontier) > 0 {
			u := frontier[0]
			frontier = frontier[1:]
			processPivot(u)
		}
	}

	// Phase 2: finish core checks for non-pivot vertices, reusing shared
	// similarities; a vertex whose bounds already decide coreness costs
	// nothing beyond the memo lookups counted as Shared.
	for u := int32(0); u < int32(n); u++ {
		if coreKnown[u] != 0 {
			continue
		}
		if sd[u] >= int32(mu) {
			coreKnown[u] = 1
			continue
		}
		if ed[u] < int32(mu) {
			coreKnown[u] = 2
			continue
		}
		lo, hi := g.NeighborRange(u)
		for e := lo; e < hi && sd[u] < int32(mu) && ed[u] >= int32(mu); e++ {
			if memo[e] == simeval.Unknown {
				evaluate(u, e)
			} else {
				eng.C.Shared.Add(1)
			}
		}
		if sd[u] >= int32(mu) {
			coreKnown[u] = 1
		} else {
			coreKnown[u] = 2
		}
	}

	// Phase 3: merge local clusters — union every similar core-core edge,
	// skipping pairs already connected.
	ds := unionfind.NewConcurrent(n)
	for u := int32(0); u < int32(n); u++ {
		if coreKnown[u] != 1 {
			continue
		}
		lo, hi := g.NeighborRange(u)
		for e := lo; e < hi; e++ {
			v, _ := g.Arc(e)
			if coreKnown[v] != 1 || v < u {
				continue
			}
			if ds.Connected(u, v) {
				continue
			}
			similar := false
			switch memo[e] {
			case simeval.Similar:
				eng.C.Shared.Add(1)
				similar = true
			case simeval.Dissimilar:
				eng.C.Shared.Add(1)
			default:
				similar = evaluate(u, e)
			}
			if similar {
				ds.Union(u, v)
			}
		}
	}

	// Phase 4: attach borders.
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
				continue
			}
			similar := false
			switch memo[e] {
			case simeval.Similar:
				eng.C.Shared.Add(1)
				similar = true
			case simeval.Dissimilar:
				eng.C.Shared.Add(1)
			default:
				similar = evaluate(u, e)
			}
			if similar {
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
