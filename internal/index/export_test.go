package index

import (
	"context"
	"math"
	"sync/atomic"

	"anyscan/internal/graph"
)

// BuildApproxK exposes the k/seed-parameterized approximate build to the
// external test package, so property tests can force wide bands (tiny k) or
// tight ones without changing the public default.
func BuildApproxK(g graph.Graph, threads int, delta float64, k int, seed uint64) (*Index, error) {
	return buildApproxCtx(context.Background(), g, threads, delta, k, seed)
}

// ArcOrder returns the index's σ and error bands in CSR arc order, the
// persisted layout (band is nil for an exact index), so tests can tie a
// value to its arc.
func (x *Index) ArcOrder() (sig []float64, band []float32) {
	p := x.payload()
	return p.Sigma, p.Band
}

// ParallelQueryMin is the core count from which a replay fans its walks
// out across workers.
const ParallelQueryMin = parallelQueryMin

// ResolvedArcs calls fn for every slot of an approximate index that a query
// or a local read has resolved exactly: the slot's vertex, its neighbor and
// the memoized threshold.
func (x *Index) ResolvedArcs(fn func(v, q int32, sig float64)) {
	a := x.approx
	for v := int32(0); v < int32(x.NumVertices()); v++ {
		lo, hi := x.g.NeighborRange(v)
		for e := lo; e < hi; e++ {
			if bits := atomic.LoadUint64(&a.resolved[e]); bits != approxUnresolved {
				fn(v, x.nbr[e], math.Float64frombits(bits))
			}
		}
	}
}
