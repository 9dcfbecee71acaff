package local_test

import (
	"math/rand/v2"
	"slices"
	"testing"

	"anyscan/internal/cluster"
	"anyscan/internal/gen"
	"anyscan/internal/graph"
	"anyscan/internal/index"
	"anyscan/internal/local"
)

// globalQuerier is the full-clustering side of the equivalence contract:
// both *index.Index and *live.Epoch provide it alongside local.View.
type globalQuerier interface {
	local.View
	Query(mu int, eps float64) (*cluster.Result, error)
}

// verifySeed checks the byte-identical membership contract for one seed:
// the local result's role, members, and member roles must match exactly
// what the full query assigned the seed's component.
func verifySeed(t *testing.T, v globalQuerier, global *cluster.Result, seed int32, mu int, eps float64) {
	t.Helper()
	lr, err := local.Query(v, seed, mu, eps)
	if err != nil {
		t.Fatalf("local.Query(seed=%d, mu=%d, eps=%g): %v", seed, mu, eps, err)
	}
	if lr.Role != global.Roles[seed] {
		t.Fatalf("seed %d at (mu=%d, eps=%g): local role %v, global role %v",
			seed, mu, eps, lr.Role, global.Roles[seed])
	}
	if lr.Touched < 1 || lr.Touched > v.NumVertices() {
		t.Fatalf("seed %d: implausible touched count %d (n=%d)", seed, lr.Touched, v.NumVertices())
	}
	label := global.Labels[seed]
	if label == cluster.NoLabel {
		if len(lr.Members) != 0 {
			t.Fatalf("seed %d is noise globally but local returned %d members", seed, len(lr.Members))
		}
		return
	}
	want := global.Members(label)
	if !slices.Equal(lr.Members, want) {
		t.Fatalf("seed %d at (mu=%d, eps=%g): local members %v != global cluster %v",
			seed, mu, eps, lr.Members, want)
	}
	for i, m := range lr.Members {
		if lr.Roles[i] != global.Roles[m] {
			t.Fatalf("seed %d: member %d local role %v, global role %v",
				seed, m, lr.Roles[i], global.Roles[m])
		}
	}
}

// seedsFor picks a randomized-but-covering seed set: a sample of random
// vertices plus the first vertex of every role present at this (μ, ε), so
// the core/border/hub/outlier paths are all exercised whenever they exist.
func seedsFor(rng *rand.Rand, global *cluster.Result, sample int) []int32 {
	n := global.N()
	seeds := make([]int32, 0, sample+4)
	for i := 0; i < sample; i++ {
		seeds = append(seeds, int32(rng.IntN(n)))
	}
	for _, want := range []cluster.Role{cluster.Core, cluster.Border, cluster.Hub, cluster.Outlier} {
		for v := 0; v < n; v++ {
			if global.Roles[v] == want {
				seeds = append(seeds, int32(v))
				break
			}
		}
	}
	slices.Sort(seeds)
	return slices.Compact(seeds)
}

func testGraphs(t *testing.T) map[string]*graph.CSR {
	t.Helper()
	var wc gen.WeightConfig
	return map[string]*graph.CSR{
		"planted": gen.PlantedPartition(300, 6, 0.5, 0.01, wc, 1),
		"er":      gen.ErdosRenyi(200, 900, wc, 2),
		"ba":      gen.BarabasiAlbert(250, 3, wc, 3),
	}
}

// TestLocalMatchesGlobal is the core property test of this package: on a
// randomized (μ, ε, seed) grid over several graph families, local.Query
// must reproduce exactly the community full index.Query assigns the seed.
func TestLocalMatchesGlobal(t *testing.T) {
	for name, g := range testGraphs(t) {
		t.Run(name, func(t *testing.T) {
			x := index.Build(g, 2)
			rng := rand.New(rand.NewPCG(7, 11))
			for _, mu := range []int{1, 2, 3, 5} {
				for _, eps := range []float64{0.2, 0.4, 0.6, 0.8} {
					global, err := x.Query(mu, eps)
					if err != nil {
						t.Fatal(err)
					}
					for _, seed := range seedsFor(rng, global, 20) {
						verifySeed(t, x, global, seed, mu, eps)
					}
				}
			}
		})
	}
}

// TestLocalOutputProportional pins the cost bound on a graph built for it:
// two 8-cliques inside a 500-vertex graph of otherwise isolated vertices.
// Expanding a clique community must touch on the order of the clique, not
// the graph.
func TestLocalOutputProportional(t *testing.T) {
	var b graph.Builder
	b.SetNumVertices(500)
	for base := int32(0); base < 16; base += 8 {
		for u := base; u < base+8; u++ {
			for v := u + 1; v < base+8; v++ {
				b.AddEdge(u, v, 1)
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	x := index.Build(g, 1)
	lr, err := local.Query(x, 0, 2, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	want := []int32{0, 1, 2, 3, 4, 5, 6, 7}
	if !slices.Equal(lr.Members, want) {
		t.Fatalf("clique community = %v, want %v", lr.Members, want)
	}
	if lr.Touched > 20 {
		t.Fatalf("touched %d vertices expanding an 8-clique in a 500-vertex graph; want ≪ |V|", lr.Touched)
	}
}

// TestLocalValidation covers the error paths: parameters out of domain and
// seeds outside the vertex range must error, not panic.
func TestLocalValidation(t *testing.T) {
	g := gen.ErdosRenyi(50, 100, gen.WeightConfig{}, 6)
	x := index.Build(g, 1)
	cases := []struct {
		name string
		seed int32
		mu   int
		eps  float64
	}{
		{"mu-zero", 0, 0, 0.5},
		{"eps-zero", 0, 2, 0},
		{"eps-negative", 0, 2, -0.1},
		{"eps-above-one", 0, 2, 1.5},
		{"seed-negative", -1, 2, 0.5},
		{"seed-too-large", 50, 2, 0.5},
	}
	for _, tc := range cases {
		if _, err := local.Query(x, tc.seed, tc.mu, tc.eps); err == nil {
			t.Errorf("%s: expected an error", tc.name)
		}
	}
}
