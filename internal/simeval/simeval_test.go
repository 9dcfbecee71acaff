package simeval

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"anyscan/internal/graph"
)

func triangle(t *testing.T) *graph.CSR {
	t.Helper()
	g, err := graph.FromUnweightedEdges(3, [][2]int32{{0, 1}, {1, 2}, {0, 2}})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestSigmaTriangleUnweighted(t *testing.T) {
	g := triangle(t)
	e := New(g, 0.5, Options{})
	// Closed neighborhoods are all {0,1,2}: σ = (1+1+1)/sqrt(3·3) = 1.
	for _, pair := range [][2]int32{{0, 1}, {1, 2}, {0, 2}} {
		if got := e.Sigma(pair[0], pair[1]); math.Abs(got-1) > 1e-12 {
			t.Errorf("σ(%d,%d) = %v, want 1", pair[0], pair[1], got)
		}
	}
}

func TestSigmaSelfIsOne(t *testing.T) {
	g := triangle(t)
	e := New(g, 0.5, Options{})
	for v := int32(0); v < 3; v++ {
		if got := e.Sigma(v, v); math.Abs(got-1) > 1e-12 {
			t.Errorf("σ(%d,%d) = %v, want 1", v, v, got)
		}
	}
}

func TestSigmaMatchesOriginalSCANFormula(t *testing.T) {
	// Path 0-1-2-3: for the edge (1,2): Γ(1)={0,1,2}, Γ(2)={1,2,3},
	// |Γ(1)∩Γ(2)| = 2, σ = 2/sqrt(3·3) = 2/3.
	g, err := graph.FromUnweightedEdges(4, [][2]int32{{0, 1}, {1, 2}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	e := New(g, 0.5, Options{})
	if got := e.Sigma(1, 2); math.Abs(got-2.0/3) > 1e-12 {
		t.Errorf("σ(1,2) = %v, want 2/3", got)
	}
	// Edge (0,1): Γ(0)={0,1}, Γ(1)={0,1,2}: common 2, σ = 2/sqrt(2·3).
	want := 2 / math.Sqrt(6)
	if got := e.Sigma(0, 1); math.Abs(got-want) > 1e-12 {
		t.Errorf("σ(0,1) = %v, want %v", got, want)
	}
	// Non-adjacent (0,2): common closed neighbors {1,2}∩... Γ(0)={0,1},
	// Γ(2)={1,2,3}: common {1}, σ = 1/sqrt(2·3).
	want = 1 / math.Sqrt(6)
	if got := e.Sigma(0, 2); math.Abs(got-want) > 1e-12 {
		t.Errorf("σ(0,2) = %v, want %v", got, want)
	}
}

func TestSigmaWeighted(t *testing.T) {
	// Triangle with weights: (0,1)=2, (1,2)=1, (0,2)=3.
	g, err := graph.FromEdges(3, [][3]float64{{0, 1, 2}, {1, 2, 1}, {0, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	e := New(g, 0.5, Options{})
	// σ(0,1): common open neighbor r=2: w_02·w_12 = 3·1 = 3.
	// Self terms: w_01 + w_10 = 4. Numerator = 7.
	// l_0 = 1+4+9 = 14, l_1 = 1+4+1 = 6. σ = 7/sqrt(84).
	want := 7 / math.Sqrt(14*6)
	if got := e.Sigma(0, 1); math.Abs(got-want) > 1e-9 {
		t.Errorf("σ(0,1) = %v, want %v", got, want)
	}
}

func TestSimilarEdgeAgreesWithSigma(t *testing.T) {
	g := randomWeighted(120, 700, 5)
	for _, opt := range []Options{{}, {Lemma5: true}, {EarlyExit: true}, AllOptimizations} {
		for _, eps := range []float64{0.2, 0.5, 0.8} {
			plain := New(g, eps, Options{})
			tested := New(g, eps, opt)
			for v := int32(0); v < int32(g.NumVertices()); v++ {
				adj, wts := g.Neighbors(v)
				for i, q := range adj {
					want := plain.Sigma(v, q) >= eps
					got := tested.SimilarEdge(v, q, wts[i])
					if got != want {
						t.Fatalf("opt=%+v eps=%v: SimilarEdge(%d,%d)=%v, σ=%v",
							opt, eps, v, q, got, plain.Sigma(v, q))
					}
				}
			}
		}
	}
}

func TestSimilarNonAdjacent(t *testing.T) {
	g, err := graph.FromUnweightedEdges(4, [][2]int32{{0, 1}, {1, 2}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	e := New(g, 0.5, Options{})
	if e.Similar(0, 3) {
		t.Errorf("vertices two hops apart with no shared neighbors must not be similar")
	}
}

// Property: σ is symmetric and within [0,1] (Cauchy–Schwarz).
func TestSigmaSymmetryAndRange(t *testing.T) {
	f := func(seed int64) bool {
		g := randomWeighted(60, 300, seed)
		e := New(g, 0.5, Options{})
		rng := rand.New(rand.NewSource(seed ^ 0x5a5a))
		for k := 0; k < 200; k++ {
			p := int32(rng.Intn(60))
			q := int32(rng.Intn(60))
			s1, s2 := e.Sigma(p, q), e.Sigma(q, p)
			if math.Abs(s1-s2) > 1e-9 {
				return false
			}
			if s1 < 0 || s1 > 1+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestCountersAccumulate(t *testing.T) {
	g := randomWeighted(50, 300, 1)
	e := New(g, 0.99, AllOptimizations) // high ε: Lemma-5 prunes fire
	for v := int32(0); v < 50; v++ {
		adj, wts := g.Neighbors(v)
		for i, q := range adj {
			e.SimilarEdge(v, q, wts[i])
		}
	}
	c := e.C.Snapshot()
	if c.Sims+c.Pruned == 0 {
		t.Fatal("no work recorded")
	}
	if c.Pruned == 0 {
		t.Error("expected Lemma-5 prunes at ε=0.99")
	}
}

func randomWeighted(n, m int, seed int64) *graph.CSR {
	rng := rand.New(rand.NewSource(seed))
	var b graph.Builder
	b.SetNumVertices(n)
	for i := 0; i < m; i++ {
		b.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)), 0.5+rng.Float32())
	}
	return b.MustBuild()
}
