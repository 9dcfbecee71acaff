package scan

import (
	"testing"

	"anyscan/internal/cluster"
	"anyscan/internal/eval"
	"anyscan/internal/graph"
	"anyscan/internal/testutil"
)

// algorithms under test, all of which must be exact.
var algorithms = []struct {
	name string
	run  func(g *graph.CSR, mu int, eps float64) (*cluster.Result, Metrics)
}{
	{"SCAN", func(g *graph.CSR, mu int, eps float64) (*cluster.Result, Metrics) { return SCAN(g, mu, eps) }},
	{"SCAN-B", func(g *graph.CSR, mu int, eps float64) (*cluster.Result, Metrics) { return SCANB(g, mu, eps) }},
	{"pSCAN", PSCAN},
	{"SCAN++", SCANPP},
}

func TestAlgorithmsMatchReferenceOnFixtures(t *testing.T) {
	fixtures := []struct {
		name string
		g    *graph.CSR
		mu   int
		eps  float64
	}{
		{"two-triangles", testutil.TwoTriangles(), 3, 0.6},
		{"karate-mu2", testutil.Karate(), 2, 0.5},
		{"karate-mu3", testutil.Karate(), 3, 0.6},
		{"karate-mu5", testutil.Karate(), 5, 0.4},
	}
	for _, f := range fixtures {
		for _, a := range algorithms {
			t.Run(f.name+"/"+a.name, func(t *testing.T) {
				res, _ := a.run(f.g, f.mu, f.eps)
				if err := cluster.Validate(f.g, f.mu, f.eps, res); err != nil {
					t.Fatalf("%s invalid on %s: %v", a.name, f.name, err)
				}
			})
		}
	}
}

func TestTwoTrianglesKnownClustering(t *testing.T) {
	g := testutil.TwoTriangles()
	// With μ=3, ε=0.6: each triangle's vertices are cores (σ within a
	// triangle is high), the two bridge vertices 3 and 7 have degree 2 and
	// low similarity to both sides.
	res, m := SCAN(g, 3, 0.6)
	if res.NumClusters != 2 {
		t.Fatalf("want 2 clusters, got %d", res.NumClusters)
	}
	if res.Labels[0] != res.Labels[1] || res.Labels[1] != res.Labels[2] {
		t.Errorf("triangle A split: labels %v", res.Labels[:3])
	}
	if res.Labels[4] != res.Labels[5] || res.Labels[5] != res.Labels[6] {
		t.Errorf("triangle B split: labels %v", res.Labels[4:7])
	}
	if res.Labels[0] == res.Labels[4] {
		t.Errorf("triangles merged")
	}
	if m.Sim.Sims == 0 {
		t.Errorf("no similarity evaluations recorded")
	}
}

func TestHubDetection(t *testing.T) {
	g := testutil.TwoTriangles()
	res, _ := SCAN(g, 3, 0.6)
	// Vertices 3 and 7 bridge the two clusters: they are noise and their
	// neighbors lie in two different clusters, so they are hubs.
	for _, v := range []int32{3, 7} {
		if !res.Roles[v].IsNoise() {
			t.Fatalf("vertex %d: want noise, got %v", v, res.Roles[v])
		}
		if res.Roles[v] != cluster.Hub {
			t.Errorf("vertex %d: want hub, got %v", v, res.Roles[v])
		}
	}
}

func TestWorkOrdering(t *testing.T) {
	// pSCAN must not do more similarity evaluations than SCAN; SCAN must
	// evaluate each arc exactly once per side (2|E| total since every
	// vertex is range-queried exactly once).
	for _, tc := range testutil.RandomCases(1)[:4] {
		_, mScan := SCAN(tc.G, tc.Mu, tc.Eps)
		_, mPscan := PSCAN(tc.G, tc.Mu, tc.Eps)
		if want := tc.G.NumArcs(); mScan.Sim.Sims != want {
			t.Errorf("%s: SCAN sims = %d, want %d", tc.Name, mScan.Sim.Sims, want)
		}
		pscanWork := mPscan.Sim.Sims + mPscan.Sim.Pruned
		if pscanWork > mScan.Sim.Sims {
			t.Errorf("%s: pSCAN work %d exceeds SCAN %d", tc.Name, pscanWork, mScan.Sim.Sims)
		}
	}
}

func TestIdealEvaluatesEveryEdge(t *testing.T) {
	g := testutil.Karate()
	for _, threads := range []int{1, 2, 4} {
		m := Ideal(g, 0.5, threads)
		if m.Sim.Sims != g.NumEdges() {
			t.Errorf("threads=%d: sims = %d, want %d", threads, m.Sim.Sims, g.NumEdges())
		}
	}
}

func TestParallelSCANMatchesReference(t *testing.T) {
	for _, tc := range testutil.RandomCases(1) {
		for _, threads := range []int{1, 4} {
			res, m := ParallelSCAN(tc.G, tc.Mu, tc.Eps, threads)
			if err := cluster.Validate(tc.G, tc.Mu, tc.Eps, res); err != nil {
				t.Fatalf("%s threads=%d: %v", tc.Name, threads, err)
			}
			// One evaluation (or prune) per undirected edge, regardless of
			// thread count.
			if work := m.Sim.Sims + m.Sim.Pruned; work != tc.G.NumEdges() {
				t.Fatalf("%s: work %d != |E| %d", tc.Name, work, tc.G.NumEdges())
			}
		}
	}
}

func TestApproxSCANQualityImprovesWithBudget(t *testing.T) {
	tc := testutil.RandomCases(1)[3] // planted partition: clear structure
	truth, _ := SCAN(tc.G, tc.Mu, tc.Eps)
	low, _ := ApproxSCAN(tc.G, tc.Mu, tc.Eps, 0.15, 1)
	high, _ := ApproxSCAN(tc.G, tc.Mu, tc.Eps, 1.0, 1)
	nmiLow := eval.NMI(low, truth)
	nmiHigh := eval.NMI(high, truth)
	if nmiHigh < nmiLow-0.05 {
		t.Fatalf("quality fell with budget: rho=0.15 → %v, rho=1.0 → %v", nmiLow, nmiHigh)
	}
	if nmiHigh < 0.9 {
		t.Fatalf("full-budget sampling NMI = %v, want ≥0.9", nmiHigh)
	}
	// Approximate results must still be structurally sound (valid labels).
	for v := 0; v < low.N(); v++ {
		if low.Roles[v].IsNoise() && low.Labels[v] != cluster.NoLabel {
			t.Fatalf("noise vertex %d labeled", v)
		}
	}
}

func TestApproxSCANDeterministicPerSeed(t *testing.T) {
	tc := testutil.RandomCases(1)[0]
	a, _ := ApproxSCAN(tc.G, tc.Mu, tc.Eps, 0.5, 42)
	b, _ := ApproxSCAN(tc.G, tc.Mu, tc.Eps, 0.5, 42)
	for v := 0; v < a.N(); v++ {
		if a.Labels[v] != b.Labels[v] || a.Roles[v] != b.Roles[v] {
			t.Fatalf("same seed diverged at vertex %d", v)
		}
	}
}
