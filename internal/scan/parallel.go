package scan

import (
	"time"

	"anyscan/internal/cluster"
	"anyscan/internal/graph"
	"anyscan/internal/par"
	"anyscan/internal/simeval"
	"anyscan/internal/unionfind"
)

// ParallelSCAN is the naive parallelization of SCAN the paper argues
// against (Section V): evaluate every edge similarity in parallel — that
// part scales perfectly — then run the label propagation sequentially over
// the precomputed similar-edge set. It is exact, and its similarity work is
// always the full 2|E| evaluations' worth (each edge once thanks to the
// precomputed table), so unlike anySCAN it is not work-efficient: even with
// perfect scaling of the similarity phase it cannot beat a work-efficient
// sequential algorithm until the thread count exceeds the work ratio.
func ParallelSCAN(g graph.Graph, mu int, eps float64, threads int) (*cluster.Result, Metrics) {
	start := time.Now()
	n := g.NumVertices()
	eng := simeval.New(g, eps, simeval.AllOptimizations)

	// Phase 1 (parallel): one σ per undirected edge, through the per-worker
	// engines (sharded counters, degree-adaptive kernels). Canonical slots
	// (v < q) are decided here; mirrors are filled by one PropagateMirrors
	// pass, which works on every backend without a reverse-edge index.
	similar := make([]bool, g.NumArcs())
	par.ForWorker(n, threads, par.Adaptive, func(w, i int) {
		we := eng.ForWorker(w)
		v := int32(i)
		lo, _ := g.NeighborRange(v)
		g.EachNeighbor(v, func(j int, q int32, wt float32) bool {
			if v < q {
				similar[lo+int64(j)] = we.SimilarEdge(v, q, wt)
			}
			return true
		})
	})
	graph.PropagateMirrors(g, similar)

	// Phase 2 (parallel): core flags from similar-degree counts.
	isCore := make([]bool, n)
	par.For(n, threads, par.Adaptive, func(i int) {
		v := int32(i)
		lo, hi := g.NeighborRange(v)
		cnt := 1
		for e := lo; e < hi; e++ {
			if similar[e] {
				cnt++
			}
		}
		isCore[v] = cnt >= mu
	})

	// Phase 3 (parallel): label propagation — the part the paper calls
	// "highly sequential" for SCAN-family algorithms. The lock-free
	// union-find lets workers merge core-core edges concurrently; the
	// resulting partition (hence the canonicalized result) is independent of
	// the union order.
	ds := unionfind.NewConcurrent(n)
	par.For(n, threads, par.Adaptive, func(i int) {
		v := int32(i)
		if !isCore[v] {
			return
		}
		lo, _ := g.NeighborRange(v)
		g.EachNeighbor(v, func(j int, q int32, _ float32) bool {
			if similar[lo+int64(j)] && q > v && isCore[q] {
				ds.Union(v, q)
			}
			return true
		})
	})
	labels := make([]int32, n)
	par.For(n, threads, par.Adaptive, func(i int) {
		if isCore[i] {
			labels[i] = ds.Find(int32(i))
		} else {
			labels[i] = unclassified
		}
	})
	// Border attachment reads only core labels, which the previous barrier
	// finalized; each border picks its first similar core neighbor in arc
	// order, so the choice is deterministic.
	par.For(n, threads, par.Adaptive, func(i int) {
		v := int32(i)
		if isCore[v] || labels[v] != unclassified {
			return
		}
		lo, _ := g.NeighborRange(v)
		g.EachNeighbor(v, func(j int, q int32, _ float32) bool {
			if similar[lo+int64(j)] && isCore[q] {
				labels[v] = labels[q]
				return false
			}
			return true
		})
	})

	res := buildResult(g, labels, isCore)
	m := Metrics{
		Sim:     eng.C.Snapshot(),
		Unions:  int64(n - ds.Sets()),
		Elapsed: time.Since(start),
	}
	return res, m
}
