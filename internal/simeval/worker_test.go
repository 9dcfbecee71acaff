package simeval

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"anyscan/internal/graph"
	"anyscan/internal/par"
)

// hubHeavy builds a graph engineered to hit all three join kernels: a few
// hubs whose degree clears hubMinDegree (dense-row gather), many low-degree
// leaves adjacent to hubs (gallop, from both the small and the large side),
// and a random background of leaf-leaf edges (sort-merge) that creates
// triangles so the dot products are non-trivial. Weights include values the
// Builder clamps (NaN, zero, negative) plus denormal-small and large ones,
// so the float paths see awkward magnitudes.
func hubHeavy(n, hubs, m int, seed int64) *graph.CSR {
	rng := rand.New(rand.NewSource(seed))
	var b graph.Builder
	b.SetNumVertices(n)
	weight := func() float32 {
		switch rng.Intn(8) {
		case 0:
			return float32(math.NaN()) // clamped to 1 by the Builder
		case 1:
			return 0 // clamped to 1
		case 2:
			return -3 // clamped to 1
		case 3:
			return 1e-30
		case 4:
			return 1e6
		default:
			return 0.25 + rng.Float32()
		}
	}
	for h := 0; h < hubs; h++ {
		for v := hubs; v < n; v++ {
			if rng.Intn(3) > 0 { // ~2n/3 neighbors per hub
				b.AddEdge(int32(h), int32(v), weight())
			}
		}
	}
	for k := 0; k < m; k++ {
		b.AddEdge(int32(hubs+rng.Intn(n-hubs)), int32(hubs+rng.Intn(n-hubs)), weight())
	}
	return b.MustBuild()
}

// TestWorkerEngineBitIdentical is the central property test: across skewed
// random graphs and every optimization combination, the degree-adaptive
// worker kernels must return bit-identical numerators and threshold
// decisions to the reference sort-merge Engine on the flat graph. The last
// input is a compressed graph, whose cursors decode into reused buffers, so
// a kernel that keeps an alias of a decoded adjacency past the next decode
// shows there; tails come in a shuffled order, so hub loads interleave with
// the other kernels' decodes.
func TestWorkerEngineBitIdentical(t *testing.T) {
	type input struct {
		name string
		flat *graph.CSR
		g    graph.Graph
	}
	var inputs []input
	for _, seed := range []int64{1, 2, 3} {
		g := hubHeavy(1200, 3, 4000, seed)
		inputs = append(inputs, input{fmt.Sprintf("seed=%d", seed), g, g})
	}
	inputs = append(inputs, input{"compressed seed=1", inputs[0].flat, graph.Compress(inputs[0].flat)})
	for _, in := range inputs {
		g := in.flat
		if d := g.Degree(0); d < hubMinDegree {
			t.Fatalf("%s: hub degree %d below the hub threshold %d — graph too small to exercise the kernel", in.name, d, hubMinDegree)
		}
		for _, opt := range []Options{{}, {Lemma5: true}, {EarlyExit: true}, AllOptimizations} {
			for _, eps := range []float64{0.1, 0.4, 0.7, 0.95} {
				ref := New(g, eps, opt)
				we := New(in.g, eps, opt).ForWorker(0)
				for _, vi := range rand.New(rand.NewSource(1)).Perm(g.NumVertices()) {
					v := int32(vi)
					adj, wts := g.Neighbors(v)
					for i, q := range adj {
						if ref.SimilarEdge(v, q, wts[i]) != we.SimilarEdge(v, q, wts[i]) {
							t.Fatalf("%s opt=%+v eps=%v: decision differs on edge (%d,%d) deg=(%d,%d)",
								in.name, opt, eps, v, q, g.Degree(v), g.Degree(q))
						}
						rn, rd := ref.EdgeNumerator(v, q, wts[i])
						wn, wd := we.EdgeNumerator(v, q, wts[i])
						if math.Float64bits(rn) != math.Float64bits(wn) || math.Float64bits(rd) != math.Float64bits(wd) {
							t.Fatalf("%s eps=%v: numerator differs on edge (%d,%d): %v vs %v",
								in.name, eps, v, q, rn, wn)
						}
					}
				}
			}
		}
	}
}

// Sims and Pruned are decision-coupled, so the sharded counters must match
// the reference exactly; the early-exit split may shift between buckets
// (different kernels exit at different points) but never exceed the joins.
func TestWorkerEngineCounterConsistency(t *testing.T) {
	g := hubHeavy(900, 2, 3000, 7)
	ref := New(g, 0.6, AllOptimizations)
	eng := New(g, 0.6, AllOptimizations)
	we := eng.ForWorker(0)
	for v := int32(0); v < int32(g.NumVertices()); v++ {
		adj, wts := g.Neighbors(v)
		for i, q := range adj {
			ref.SimilarEdge(v, q, wts[i])
			we.SimilarEdge(v, q, wts[i])
		}
	}
	rc, wc := ref.C.Snapshot(), eng.C.Snapshot()
	if wc.Sims != rc.Sims || wc.Pruned != rc.Pruned {
		t.Fatalf("sharded counters diverge: sims %d/%d pruned %d/%d",
			wc.Sims, rc.Sims, wc.Pruned, rc.Pruned)
	}
	if wc.Sims == 0 || wc.Pruned == 0 {
		t.Fatal("test graph exercised no joins or no prunes")
	}
	if wc.EarlyYes+wc.EarlyNo > wc.Sims {
		t.Fatalf("more early exits (%d+%d) than joins (%d)", wc.EarlyYes, wc.EarlyNo, wc.Sims)
	}
}

// TestWorkerEnginesParallel drives one engine from many workers over all
// arcs (the real usage pattern) and checks every decision against the
// sequential reference. Run under -race in CI: it also exercises concurrent
// shard growth and Snapshot during updates.
func TestWorkerEnginesParallel(t *testing.T) {
	g := hubHeavy(1000, 2, 3000, 11)
	ref := New(g, 0.5, AllOptimizations)
	eng := New(g, 0.5, AllOptimizations)
	n := g.NumVertices()
	want := make([][]bool, n)
	for v := int32(0); v < int32(n); v++ {
		adj, wts := g.Neighbors(v)
		want[v] = make([]bool, len(adj))
		for i, q := range adj {
			want[v][i] = ref.SimilarEdge(v, q, wts[i])
		}
	}
	got := make([][]bool, n)
	par.ForWorker(n, 8, par.Adaptive, func(w, vi int) {
		we := eng.ForWorker(w)
		v := int32(vi)
		adj, wts := g.Neighbors(v)
		row := make([]bool, len(adj))
		for i, q := range adj {
			row[i] = we.SimilarEdge(v, q, wts[i])
			_ = eng.C.Snapshot() // concurrent progress read must not tear or race
		}
		got[vi] = row
	})
	for v := range want {
		for i := range want[v] {
			if want[v][i] != got[v][i] {
				t.Fatalf("parallel decision differs at vertex %d arc %d", v, i)
			}
		}
	}
	if s := eng.C.Snapshot(); s.Sims != ref.C.Snapshot().Sims {
		t.Fatalf("merged sims %d, want %d", s.Sims, ref.C.Snapshot().Sims)
	}
}

func TestWorkerEngineZeroAllocSteadyState(t *testing.T) {
	g := hubHeavy(1100, 2, 3000, 5)
	we := New(g, 0.5, AllOptimizations).ForWorker(0)
	adj0, w0 := g.Neighbors(0)   // hub tail: dense-row kernel
	adjL, wL := g.Neighbors(600) // leaf tail: gallop/merge kernels
	warm := func() {
		for i, q := range adj0 {
			we.SimilarEdge(0, q, w0[i])
		}
		for i, q := range adjL {
			we.SimilarEdge(600, q, wL[i])
		}
	}
	warm() // first pass sizes the per-worker scratch
	if avg := testing.AllocsPerRun(5, warm); avg != 0 {
		t.Fatalf("steady-state σ evaluation allocates: %v allocs per sweep", avg)
	}
}

func TestGallopSearch(t *testing.T) {
	a := []int32{2, 3, 5, 8, 13, 21, 34, 55}
	cases := []struct {
		lo     int
		target int32
		want   int
	}{
		{0, 1, 0}, {0, 2, 0}, {0, 3, 1}, {0, 4, 2}, {0, 55, 7}, {0, 56, 8},
		{3, 13, 4}, {3, 9, 4}, {7, 55, 7}, {8, 1, 8},
	}
	for _, c := range cases {
		if got := gallopSearch(a, c.lo, c.target); got != c.want {
			t.Errorf("gallopSearch(a, %d, %d) = %d, want %d", c.lo, c.target, got, c.want)
		}
	}
	// Exhaustive cross-check against linear scan on random sorted slices.
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(40)
		s := make([]int32, n)
		for i := range s {
			s[i] = int32(rng.Intn(60))
		}
		for i := 1; i < n; i++ {
			if s[i] < s[i-1] {
				s[i] = s[i-1]
			}
		}
		lo := 0
		if n > 0 {
			lo = rng.Intn(n)
		}
		target := int32(rng.Intn(70))
		want := lo
		for want < n && s[want] < target {
			want++
		}
		if got := gallopSearch(s, lo, target); got != want {
			t.Fatalf("gallopSearch(%v, %d, %d) = %d, want %d", s, lo, target, got, want)
		}
	}
}

// BenchmarkSigma measures one full σ sweep over every arc of a hub-heavy
// graph: the reference merge-join Engine against the degree-adaptive
// WorkerEngine. ReportAllocs substantiates the zero-allocation claim.
func BenchmarkSigma(b *testing.B) {
	g := hubHeavy(2000, 3, 8000, 1)
	sweep := func(b *testing.B, eval func(p, q int32, w float32) bool) {
		b.ReportAllocs()
		b.ResetTimer()
		for it := 0; it < b.N; it++ {
			for v := int32(0); v < int32(g.NumVertices()); v++ {
				adj, wts := g.Neighbors(v)
				for i, q := range adj {
					eval(v, q, wts[i])
				}
			}
		}
	}
	b.Run("merge-join", func(b *testing.B) {
		e := New(g, 0.5, AllOptimizations)
		sweep(b, e.SimilarEdge)
	})
	b.Run("adaptive", func(b *testing.B) {
		we := New(g, 0.5, AllOptimizations).ForWorker(0)
		we.SimilarEdge(0, 1, 1) // size scratch outside the timed region
		sweep(b, we.SimilarEdge)
	})
}
