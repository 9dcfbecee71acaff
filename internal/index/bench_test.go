package index_test

import (
	"fmt"
	"testing"

	"anyscan/internal/gen"
	"anyscan/internal/graph"
	"anyscan/internal/index"
)

// BenchmarkBuild times a full exact build (σ pass and neighbor sort) on a
// GR05L-shaped R-MAT (8192 vertices, ~352k edges, skewed degrees), once with
// unit weights, which run the triangle kernel, and once with uniform weights,
// which run the per-edge kernel, at 1 and 2 workers.
func BenchmarkBuild(b *testing.B) {
	for _, w := range []struct {
		name string
		wc   gen.WeightConfig
	}{
		{"unit", gen.WeightConfig{}},
		{"weighted", gen.WeightConfig{Mode: gen.WeightUniform, Min: 0.5, Max: 1.5}},
	} {
		g := gen.RMAT(13, 8192*43, 0.45, 0.22, 0.22, w.wc, 1)
		if graph.UnitWeights(g) != (w.name == "unit") {
			b.Fatalf("%s graph: UnitWeights = %v", w.name, graph.UnitWeights(g))
		}
		for _, threads := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/threads=%d", w.name, threads), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if x := index.Build(g, threads); x.SimEvals() != g.NumEdges() {
						b.Fatalf("%d σ values for %d edges", x.SimEvals(), g.NumEdges())
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(g.NumArcs()), "ns/arc")
			})
		}
	}
}
