package index

import (
	"context"

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
