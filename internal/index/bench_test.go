package index_test

import (
	"fmt"
	"runtime"
	"testing"

	"anyscan/internal/cluster"
	"anyscan/internal/gen"
	"anyscan/internal/graph"
	"anyscan/internal/index"
	"anyscan/internal/live"
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

// BenchmarkQuery times full exact clusterings, one op being one pass over a
// (μ, ε) grid, and reports the time per query:
//   - rmat: BenchmarkBuild's unit-weight R-MAT on perfbench explore's 4×5
//     grid, where most cells have at most one cluster;
//   - rmat-epoch: the same grid against the live epoch one single-edge
//     Apply publishes, which finds its cores by a threshold scan;
//   - social: perfbench mixed_rw's GR01L-shaped social circles on its 2×3
//     grid, where every cell has several clusters.
func BenchmarkQuery(b *testing.B) {
	rmat := gen.RMAT(13, 8192*43, 0.45, 0.22, 0.22, gen.WeightConfig{}, 1)
	x := index.Build(rmat, runtime.GOMAXPROCS(0))
	lg := live.FromIndex(x)
	v := int32(1)
	for rmat.HasEdge(0, v) {
		v++
	}
	epoch, _, err := lg.Apply([]live.Mutation{{Op: live.OpAdd, U: 0, V: v, W: 1}})
	if err != nil {
		b.Fatal(err)
	}
	social := gen.SocialCircles(gen.SocialCirclesConfig{
		N: 4096, Regions: 4096 / 400, CrossP: 0.06, CirclesPerV: 4.2,
		CircleSize: 48, CircleSizeJit: 24, IntraP: 0.76, Seed: 1,
	})
	exploreMus, exploreEps := []int{2, 4, 8, 16}, []float64{0.2, 0.35, 0.5, 0.65, 0.8}
	for _, c := range []struct {
		name  string
		query func(mu int, eps float64) (*cluster.Result, error)
		mus   []int
		eps   []float64
	}{
		{"rmat", x.Query, exploreMus, exploreEps},
		{"rmat-epoch", epoch.Query, exploreMus, exploreEps},
		{"social", index.Build(social, runtime.GOMAXPROCS(0)).Query, []int{4, 8}, []float64{0.4, 0.55, 0.7}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, mu := range c.mus {
					for _, eps := range c.eps {
						if _, err := c.query(mu, eps); err != nil {
							b.Fatal(err)
						}
					}
				}
			}
			queries := b.N * len(c.mus) * len(c.eps)
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(queries), "us/query")
		})
	}
}
