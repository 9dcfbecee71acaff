package sweep

import (
	"math"
	"testing"
	"testing/quick"

	"anyscan/internal/cluster"
	"anyscan/internal/eval"
	"anyscan/internal/gen"
	"anyscan/internal/simeval"
	"anyscan/internal/testutil"
	"anyscan/internal/unionfind"
)

func TestExplorerOneSigmaPerEdge(t *testing.T) {
	g := testutil.Karate()
	ex, err := NewExplorer(g, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Querying many ε values must not change any state or recompute σ; we
	// just verify repeated queries are consistent.
	a := ex.ClusteringAt(0.5)
	for i := 0; i < 3; i++ {
		b := ex.ClusteringAt(0.5)
		if nmi := eval.NMI(a, b); nmi != 1 {
			t.Fatalf("repeated query differs: NMI=%v", nmi)
		}
	}
}

func TestCoreThresholdSemantics(t *testing.T) {
	g := testutil.TwoTriangles()
	ex, err := NewExplorer(g, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	for v := int32(0); v < int32(g.NumVertices()); v++ {
		thr := ex.CoreThreshold(v)
		if thr > 0 {
			at := ex.ClusteringAt(thr)
			if at.Roles[v] != cluster.Core {
				t.Errorf("vertex %d not core at its own threshold %v", v, thr)
			}
			above := ex.ClusteringAt(thr + 1e-9)
			if above.Roles[v] == cluster.Core {
				t.Errorf("vertex %d still core above its threshold %v", v, thr)
			}
		}
	}
}

func TestClusterCountMonotoneAtMergeEvents(t *testing.T) {
	// As ε decreases through the interesting thresholds, the core set only
	// grows. (Cluster counts can go up when new cores appear and down when
	// clusters merge, but cores are monotone.)
	tc := testutil.RandomCases(1)[5]
	ex, err := NewExplorer(tc.G, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	thresholds := ex.InterestingThresholds(50)
	prevCores := -1
	for _, eps := range thresholds {
		c := ex.ClusteringAt(eps).RoleCounts().Cores
		if prevCores >= 0 && c < prevCores {
			t.Fatalf("core count shrank from %d to %d as ε decreased to %v", prevCores, c, eps)
		}
		prevCores = c
	}
}

func TestSweepProfile(t *testing.T) {
	g := testutil.Karate()
	ex, err := NewExplorer(g, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	profiles := ex.SweepProfile([]float64{0.3, 0.5, 0.7})
	if len(profiles) != 3 {
		t.Fatalf("got %d profiles", len(profiles))
	}
	for i, p := range profiles {
		total := p.Counts.Cores + p.Counts.Borders + p.Counts.Noise() + p.Counts.Unclassified
		if total != g.NumVertices() {
			t.Errorf("profile %d: counts sum to %d", i, total)
		}
	}
	// Higher ε can only lose cores.
	if profiles[0].Counts.Cores < profiles[2].Counts.Cores {
		t.Errorf("cores increased with ε: %+v", profiles)
	}
}

func TestExplorerRejectsBadMu(t *testing.T) {
	if _, err := NewExplorer(testutil.Karate(), 0, 1); err == nil {
		t.Fatal("mu=0 accepted")
	}
}

func TestMuOneEverythingCore(t *testing.T) {
	g := testutil.Karate()
	ex, err := NewExplorer(g, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	res := ex.ClusteringAt(0.99)
	for v := 0; v < res.N(); v++ {
		if res.Roles[v] != cluster.Core {
			t.Fatalf("vertex %d not core at μ=1", v)
		}
	}
}

func TestDendrogramConsistentWithClusteringAt(t *testing.T) {
	tc := testutil.RandomCases(1)[3] // planted partition
	ex, err := NewExplorer(tc.G, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	merges := ex.Dendrogram()
	for i := 1; i < len(merges); i++ {
		if merges[i].Thr > merges[i-1].Thr {
			t.Fatalf("dendrogram not sorted at %d", i)
		}
	}
	if len(merges) >= tc.G.NumVertices() {
		t.Fatalf("too many merges: %d", len(merges))
	}
	// Cutting the dendrogram at ε must reproduce the core partition.
	for _, eps := range []float64{0.35, 0.5, 0.65} {
		ds := unionfind.NewConcurrent(tc.G.NumVertices())
		for _, m := range merges {
			if m.Thr < eps {
				break
			}
			ds.Union(m.A, m.B)
		}
		want := ex.ClusteringAt(eps)
		for v := int32(0); v < int32(want.N()); v++ {
			for q := v + 1; q < int32(want.N()); q++ {
				if want.Roles[v] != cluster.Core || want.Roles[q] != cluster.Core {
					continue
				}
				same := want.Labels[v] == want.Labels[q]
				if ds.Connected(v, q) != same {
					t.Fatalf("eps=%v: dendrogram cut disagrees on cores %d,%d", eps, v, q)
				}
			}
		}
	}
}

// Property: the crossing function returns the exact predicate boundary —
// the predicate holds at the returned t and fails one ulp above.
func TestCrossingProperty(t *testing.T) {
	f := func(numRaw, denomRaw uint32) bool {
		num := float64(numRaw%10000) / 100
		denom := float64(denomRaw%10000)/100 + 0.01
		c := simeval.Crossing(num, denom)
		if num < c*denom {
			return false // predicate must hold at the crossing
		}
		up := math.Nextafter(c, math.Inf(1))
		return num < up*denom // and fail just above it
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: core thresholds never exceed 1 and isolated vertices never
// become cores at μ ≥ 2.
func TestCoreThresholdBounds(t *testing.T) {
	f := func(seed int64) bool {
		g := gen.ErdosRenyi(60, 150, gen.WeightConfig{}, seed)
		ex, err := NewExplorer(g, 3, 1)
		if err != nil {
			return false
		}
		for v := int32(0); v < int32(g.NumVertices()); v++ {
			thr := ex.CoreThreshold(v)
			if thr < 0 || thr > 1 {
				return false
			}
			if g.Degree(v) < 2 && thr != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}
