package index_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"anyscan/internal/cluster"
	"anyscan/internal/gen"
	"anyscan/internal/graph"
	"anyscan/internal/index"
	"anyscan/internal/live"
)

// BenchmarkBuild times a full exact build (σ pass and neighbor sort) on a
// GR05L-shaped R-MAT (8192 vertices, ~352k edges, skewed degrees), with unit
// and with uniform weights, on the flat and the compressed backend, at 1 and
// 2 workers. Every row runs the one exact σ kernel; a compressed row adds
// its one decode of every adjacency. The unit-approx rows time what
// perfbench build's approximate request pays on the unit graph: BuildApprox
// at δ = 0.01 plus the first Query at (5, 0.5), which resolves the arcs in
// its error bands; query-ms is that query alone.
func BenchmarkBuild(b *testing.B) {
	for _, w := range []struct {
		name string
		wc   gen.WeightConfig
	}{
		{"unit", gen.WeightConfig{}},
		{"weighted", gen.WeightConfig{Mode: gen.WeightUniform, Min: 0.5, Max: 1.5}},
	} {
		csr := gen.RMAT(13, 8192*43, 0.45, 0.22, 0.22, w.wc, 1)
		if graph.UnitWeights(csr) != (w.name == "unit") {
			b.Fatalf("%s graph: UnitWeights = %v", w.name, graph.UnitWeights(csr))
		}
		for _, backend := range []struct {
			suffix string
			g      graph.Graph
		}{{"", csr}, {"-compressed", graph.Compress(csr)}} {
			g := backend.g
			for _, threads := range []int{1, 2} {
				b.Run(fmt.Sprintf("%s%s/threads=%d", w.name, backend.suffix, threads), func(b *testing.B) {
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
		if w.name != "unit" {
			continue
		}
		for _, threads := range []int{1, 2} {
			b.Run(fmt.Sprintf("unit-approx/threads=%d", threads), func(b *testing.B) {
				b.ReportAllocs()
				var query time.Duration
				for i := 0; i < b.N; i++ {
					x, err := index.BuildApprox(csr, threads, 0.01)
					if err != nil {
						b.Fatal(err)
					}
					start := time.Now()
					if _, err := x.Query(5, 0.5); err != nil {
						b.Fatal(err)
					}
					query += time.Since(start)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(csr.NumArcs()), "ns/arc")
				b.ReportMetric(float64(query.Microseconds())/1000/float64(b.N), "query-ms")
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
//     grid, where every cell has several clusters;
//   - social-epoch: the same grid against the epoch of one single-edge
//     Apply, what mixed_rw's reader queries.
func BenchmarkQuery(b *testing.B) {
	rmat, social := benchRMAT(), benchSocial()
	x := index.Build(rmat, runtime.GOMAXPROCS(0))
	xs := index.Build(social, runtime.GOMAXPROCS(0))
	exploreMus, exploreEps := []int{2, 4, 8, 16}, []float64{0.2, 0.35, 0.5, 0.65, 0.8}
	socialMus, socialEps := []int{4, 8}, []float64{0.4, 0.55, 0.7}
	for _, c := range []struct {
		name  string
		query func(mu int, eps float64) (*cluster.Result, error)
		mus   []int
		eps   []float64
	}{
		{"rmat", x.Query, exploreMus, exploreEps},
		{"rmat-epoch", oneEdgeEpoch(b, rmat, x).Query, exploreMus, exploreEps},
		{"social", xs.Query, socialMus, socialEps},
		{"social-epoch", oneEdgeEpoch(b, social, xs).Query, socialMus, socialEps},
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

// oneEdgeEpoch returns the epoch a live graph over x publishes for one
// single-edge batch: the add of g's first absent edge from vertex 0.
func oneEdgeEpoch(b *testing.B, g *graph.CSR, x *index.Index) *live.Epoch {
	v := int32(1)
	for g.HasEdge(0, v) {
		v++
	}
	epoch, _, err := live.FromIndex(x).Apply([]live.Mutation{{Op: live.OpAdd, U: 0, V: v, W: 1}})
	if err != nil {
		b.Fatal(err)
	}
	return epoch
}

// BenchmarkApply times live.Apply, one op being one published batch, and
// reports the time and the bytes allocated per batch:
//   - social: perfbench mixed_rw's writer on its GR01L-shaped graph, the
//     delete of an existing edge and the add of an absent one in turn;
//   - rmat: one-edge adds of absent edges on BenchmarkBuild's R-MAT;
//   - rmat-batch: one batch of absent-edge adds, 1% of that R-MAT's |E|,
//     applied to a fresh live graph at 1 and 2 threads.
func BenchmarkApply(b *testing.B) {
	social, rmat := benchSocial(), benchRMAT()
	xs := index.Build(social, runtime.GOMAXPROCS(0))
	xr := index.Build(rmat, runtime.GOMAXPROCS(0))
	b.Run("social", func(b *testing.B) {
		benchApplySequence(b, live.FromIndex(xs), writerScript(social, b.N, rand.New(rand.NewSource(1))))
	})
	b.Run("rmat", func(b *testing.B) {
		benchApplySequence(b, live.FromIndex(xr), absentAdds(rmat, b.N, rand.New(rand.NewSource(1))))
	})
	batch := absentAdds(rmat, int(rmat.NumEdges()/100), rand.New(rand.NewSource(1)))
	for _, threads := range []int{1, 2} {
		x := xr
		if threads != x.Threads() {
			x = index.Build(rmat, threads)
		}
		b.Run(fmt.Sprintf("rmat-batch/threads=%d", threads), func(b *testing.B) {
			var before, after runtime.MemStats
			var bytes uint64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				lg := live.FromIndex(x)
				runtime.ReadMemStats(&before)
				b.StartTimer()
				if _, _, err := lg.Apply(batch); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				runtime.ReadMemStats(&after)
				bytes += after.TotalAlloc - before.TotalAlloc
				b.StartTimer()
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N), "us/batch")
			b.ReportMetric(float64(bytes)/float64(b.N), "B/batch")
		})
	}
}

// benchApplySequence applies muts to lg one mutation per batch, a batch
// being one op, and reports the time and bytes allocated per batch.
func benchApplySequence(b *testing.B, lg *live.Graph, muts []live.Mutation) {
	var before, after runtime.MemStats
	b.ResetTimer()
	runtime.ReadMemStats(&before)
	for i := range muts {
		if _, st, err := lg.Apply(muts[i : i+1]); err != nil || st.Applied != 1 {
			b.Fatalf("batch %d: applied %d, err %v", i, st.Applied, err)
		}
	}
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(len(muts)), "us/batch")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(len(muts)), "B/batch")
}

// benchRMAT is BenchmarkBuild's unit-weight R-MAT: 8,192 vertices, about
// 352k edges, skewed degrees.
func benchRMAT() *graph.CSR {
	return gen.RMAT(13, 8192*43, 0.45, 0.22, 0.22, gen.WeightConfig{}, 1)
}

// benchSocial is perfbench mixed_rw's GR01L-shaped social circles at
// scale 1, seed 1: 4,096 vertices.
func benchSocial() *graph.CSR {
	return gen.SocialCircles(gen.SocialCirclesConfig{
		N: 4096, Regions: 4096 / 400, CrossP: 0.06, CirclesPerV: 4.2,
		CircleSize: 48, CircleSizeJit: 24, IntraP: 0.76, Seed: 1,
	})
}

// writerScript returns n one-edge mutations in perfbench mixed_rw's writer
// shape: the delete of a uniformly drawn existing edge and the add of an
// absent one in turn, each effective on g as the earlier ones left it.
func writerScript(g *graph.CSR, n int, rng *rand.Rand) []live.Mutation {
	var list [][2]int32
	pos := make(map[[2]int32]int, g.NumEdges())
	for v := int32(0); v < int32(g.NumVertices()); v++ {
		adj, _ := g.Neighbors(v)
		for _, q := range adj {
			if v < q {
				pos[[2]int32{v, q}] = len(list)
				list = append(list, [2]int32{v, q})
			}
		}
	}
	muts := make([]live.Mutation, 0, n)
	for len(muts) < n {
		if len(muts)%2 == 0 {
			i := rng.Intn(len(list))
			e, last := list[i], list[len(list)-1]
			list[i], pos[last] = last, i
			list = list[:len(list)-1]
			delete(pos, e)
			muts = append(muts, live.Mutation{Op: live.OpDelete, U: e[0], V: e[1]})
			continue
		}
		u, v := rng.Int31n(int32(g.NumVertices())), rng.Int31n(int32(g.NumVertices()))
		e := [2]int32{min(u, v), max(u, v)}
		if _, ok := pos[e]; ok || u == v {
			continue
		}
		pos[e] = len(list)
		list = append(list, e)
		muts = append(muts, live.Mutation{Op: live.OpAdd, U: u, V: v, W: 1})
	}
	return muts
}

// absentAdds returns n adds of distinct edges absent from g.
func absentAdds(g *graph.CSR, n int, rng *rand.Rand) []live.Mutation {
	seen := make(map[[2]int32]bool, n)
	muts := make([]live.Mutation, 0, n)
	for len(muts) < n {
		u, v := rng.Int31n(int32(g.NumVertices())), rng.Int31n(int32(g.NumVertices()))
		e := [2]int32{min(u, v), max(u, v)}
		if u == v || seen[e] || g.HasEdge(u, v) {
			continue
		}
		seen[e] = true
		muts = append(muts, live.Mutation{Op: live.OpAdd, U: u, V: v, W: 1})
	}
	return muts
}
