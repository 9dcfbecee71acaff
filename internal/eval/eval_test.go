package eval

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"anyscan/internal/cluster"
	"anyscan/internal/graph"
)

func mk(labels []int32, k int) *cluster.Result {
	r := cluster.NewResult(len(labels))
	copy(r.Labels, labels)
	for i, l := range labels {
		if l == cluster.NoLabel {
			r.Roles[i] = cluster.Outlier
		} else {
			r.Roles[i] = cluster.Border
		}
	}
	r.NumClusters = k
	return r
}

func TestNMIIdentical(t *testing.T) {
	a := mk([]int32{0, 0, 1, 1, cluster.NoLabel}, 2)
	if got := NMI(a, a); math.Abs(got-1) > 1e-12 {
		t.Errorf("NMI(a,a) = %v, want 1", got)
	}
	if got := ARI(a, a); math.Abs(got-1) > 1e-12 {
		t.Errorf("ARI(a,a) = %v, want 1", got)
	}
}

func TestNMIRelabelInvariant(t *testing.T) {
	a := mk([]int32{0, 0, 1, 1, 2, 2}, 3)
	b := mk([]int32{2, 2, 0, 0, 1, 1}, 3)
	if got := NMI(a, b); math.Abs(got-1) > 1e-12 {
		t.Errorf("NMI under relabeling = %v, want 1", got)
	}
	if got := ARI(a, b); math.Abs(got-1) > 1e-12 {
		t.Errorf("ARI under relabeling = %v, want 1", got)
	}
}

func TestNMIIndependentPartitions(t *testing.T) {
	// a splits front/back, b splits even/odd: on 4k elements MI ≈ 0.
	n := 4000
	la := make([]int32, n)
	lb := make([]int32, n)
	for i := 0; i < n; i++ {
		if i >= n/2 {
			la[i] = 1
		}
		lb[i] = int32(i % 2)
	}
	got := NMI(mk(la, 2), mk(lb, 2))
	if got > 0.01 {
		t.Errorf("NMI of independent partitions = %v, want ≈0", got)
	}
}

func TestNMIDegenerate(t *testing.T) {
	// Both single-cluster: identical.
	a := mk([]int32{0, 0, 0}, 1)
	if got := NMI(a, a); got != 1 {
		t.Errorf("single cluster NMI = %v, want 1", got)
	}
	// One trivial vs one split: 0.
	b := mk([]int32{0, 1, 0}, 2)
	if got := NMI(a, b); got != 0 {
		t.Errorf("trivial-vs-split NMI = %v, want 0", got)
	}
	// Empty results.
	if got := NMI(mk(nil, 0), mk(nil, 0)); got != 0 {
		t.Errorf("empty NMI = %v", got)
	}
}

func TestNoiseTreatedAsOneCluster(t *testing.T) {
	// Two results identical except noise: both map noise to one special
	// cluster, so agreement is perfect.
	a := mk([]int32{0, 0, cluster.NoLabel, cluster.NoLabel, 1}, 2)
	b := mk([]int32{1, 1, cluster.NoLabel, cluster.NoLabel, 0}, 2)
	if got := NMI(a, b); math.Abs(got-1) > 1e-12 {
		t.Errorf("NMI = %v, want 1", got)
	}
}

func TestKnownNMIValue(t *testing.T) {
	// Hand-computable 2×2 case: n=4, a = {0,0,1,1}, b = {0,1,1,1}.
	a := mk([]int32{0, 0, 1, 1}, 2)
	b := mk([]int32{0, 1, 1, 1}, 2)
	// H(a) = ln2. H(b) = -(1/4)ln(1/4)-(3/4)ln(3/4).
	// MI = Σ p_ij ln(p_ij/(p_i p_j)) over cells (0,0)=1/4, (0,1)=1/4, (1,1)=1/2.
	ha := math.Ln2
	hb := -(0.25*math.Log(0.25) + 0.75*math.Log(0.75))
	mi := 0.25*math.Log(0.25/(0.5*0.25)) + 0.25*math.Log(0.25/(0.5*0.75)) + 0.5*math.Log(0.5/(0.5*0.75))
	want := mi / math.Sqrt(ha*hb)
	if got := NMI(a, b); math.Abs(got-want) > 1e-12 {
		t.Errorf("NMI = %v, want %v", got, want)
	}
}

func TestARISplitPenalty(t *testing.T) {
	a := mk([]int32{0, 0, 0, 0, 1, 1, 1, 1}, 2)
	b := mk([]int32{0, 0, 1, 1, 2, 2, 3, 3}, 4)
	got := ARI(a, b)
	if got <= 0 || got >= 1 {
		t.Errorf("ARI of refinement = %v, want in (0,1)", got)
	}
}

// Property: NMI and ARI are symmetric and bounded.
func TestMeasureProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 60
		ka, kb := rng.Intn(5)+1, rng.Intn(5)+1
		la := make([]int32, n)
		lb := make([]int32, n)
		for i := 0; i < n; i++ {
			la[i] = int32(rng.Intn(ka+1) - 1) // may be -1 (noise)
			lb[i] = int32(rng.Intn(kb+1) - 1)
		}
		a, b := mk(la, ka), mk(lb, kb)
		n1, n2 := NMI(a, b), NMI(b, a)
		if math.Abs(n1-n2) > 1e-9 {
			return false
		}
		if n1 < 0 || n1 > 1 {
			return false
		}
		a1, a2 := ARI(a, b), ARI(b, a)
		if math.Abs(a1-a2) > 1e-9 {
			return false
		}
		return a1 <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestModularity(t *testing.T) {
	// Two disjoint triangles, clustered correctly: Q = 1 - 2·(1/2)² = 0.5.
	g, err := graph.FromUnweightedEdges(6, [][2]int32{
		{0, 1}, {0, 2}, {1, 2},
		{3, 4}, {3, 5}, {4, 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	r := mk([]int32{0, 0, 0, 1, 1, 1}, 2)
	if q := Modularity(g, r); math.Abs(q-0.5) > 1e-12 {
		t.Fatalf("Q = %v, want 0.5", q)
	}
	// Everything in one cluster: Q = 0 (all internal, expectation 1).
	one := mk([]int32{0, 0, 0, 0, 0, 0}, 1)
	if q := Modularity(g, one); math.Abs(q) > 1e-12 {
		t.Fatalf("single-cluster Q = %v, want 0", q)
	}
	// A good clustering scores above a random-ish split.
	bad := mk([]int32{0, 1, 0, 1, 0, 1}, 2)
	if Modularity(g, bad) >= Modularity(g, r) {
		t.Fatalf("shuffled split should score below the true one")
	}
	// Empty graph.
	empty, _ := graph.FromUnweightedEdges(0, nil)
	if q := Modularity(empty, mk(nil, 0)); q != 0 {
		t.Fatalf("empty Q = %v", q)
	}
}

func TestAgreementMatchesResultScores(t *testing.T) {
	a := mk([]int32{0, 0, 1, 1, cluster.NoLabel, 2}, 3)
	b := mk([]int32{1, 1, 0, 0, 2, cluster.NoLabel}, 3)
	ari, nmi := Agreement(a, b)
	if want := ARI(a, b); math.Abs(ari-want) > 1e-12 {
		t.Errorf("Agreement ARI = %v, ARI = %v", ari, want)
	}
	if want := NMI(a, b); math.Abs(nmi-want) > 1e-12 {
		t.Errorf("Agreement NMI = %v, NMI = %v", nmi, want)
	}
	lari, lnmi := AgreementLabels(a.Labels, b.Labels)
	if math.Abs(lari-ari) > 1e-12 || math.Abs(lnmi-nmi) > 1e-12 {
		t.Errorf("AgreementLabels (%v, %v) diverges from Agreement (%v, %v)", lari, lnmi, ari, nmi)
	}
}

func TestAgreementLabelsIdenticalAndDegenerate(t *testing.T) {
	v := []int32{0, 1, 1, cluster.NoLabel, 2}
	if ari, nmi := AgreementLabels(v, v); ari != 1 || math.Abs(nmi-1) > 1e-12 {
		t.Errorf("identical vectors: (ARI, NMI) = (%v, %v), want (1, 1)", ari, nmi)
	}
	allNoise := []int32{cluster.NoLabel, cluster.NoLabel, cluster.NoLabel}
	if ari, nmi := AgreementLabels(allNoise, allNoise); ari != 1 || nmi != 1 {
		t.Errorf("all-noise vectors: (ARI, NMI) = (%v, %v), want (1, 1)", ari, nmi)
	}
}
