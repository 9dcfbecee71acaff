package index_test

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"anyscan/internal/cluster"
	"anyscan/internal/gen"
	"anyscan/internal/graph"
	"anyscan/internal/index"
	"anyscan/internal/local"
	"anyscan/internal/simeval"
	"anyscan/internal/testutil"
)

// approxGraphs are unit-weight random graphs (the sketchable case) spanning
// clustered, power-law, and flat structure.
func approxGraphs() []testutil.RandomCase {
	unit := gen.WeightConfig{}
	return []testutil.RandomCase{
		{Name: "planted", G: gen.PlantedPartition(300, 5, 0.35, 0.01, unit, 11), Mu: 4, Eps: 0.5},
		{Name: "er-dense", G: gen.ErdosRenyi(160, 2400, unit, 12), Mu: 5, Eps: 0.4},
		{Name: "barabasi", G: gen.BarabasiAlbert(400, 4, unit, 13), Mu: 3, Eps: 0.3},
		{Name: "circles", G: gen.SocialCircles(gen.SocialCirclesConfig{
			N: 512, Regions: 4, CrossP: 0.1, CirclesPerV: 2, CircleSize: 40,
			CircleSizeJit: 8, IntraP: 0.6, Seed: 14,
		}), Mu: 6, Eps: 0.6},
	}
}

// TestApproxDecisionsOutsideBandMatchExact is the ε-band contract: for every
// arc whose estimate is outside the error band of ε, the approximate
// decision (σ̂ ≥ ε) must equal the exact similarity decision. δ is set tiny
// so the ≤δ-per-arc tail event does not occur on these fixed seeds; the test
// is deterministic.
func TestApproxDecisionsOutsideBandMatchExact(t *testing.T) {
	for _, tc := range approxGraphs() {
		g := tc.G
		xa, err := index.BuildApprox(g, 2, 1e-6)
		if err != nil {
			t.Fatalf("%s: BuildApprox: %v", tc.Name, err)
		}
		xe := index.Build(g, 1)
		asig, aband := xa.ArcOrder()
		esig, _ := xe.ArcOrder()
		eng := simeval.New(g, 0, simeval.Options{})
		for _, eps := range []float64{0.2, 0.35, 0.5, 0.65, 0.8} {
			checked, confident := 0, 0
			for v := int32(0); v < int32(g.NumVertices()); v++ {
				lo, _ := g.NeighborRange(v)
				adj, wts := g.Neighbors(v)
				for j, q := range adj {
					if v >= q {
						continue
					}
					e := lo + int64(j)
					est, band := asig[e], float64(aband[e])
					checked++
					if !(est-band >= eps || est+band < eps) {
						continue // inside the band: resolved exactly at query time
					}
					confident++
					got := est >= eps
					want := esig[e] >= eps
					if got != want {
						t.Fatalf("%s eps=%v arc (%d,%d): approx decision %v, exact %v (est=%v band=%v exact σ=%v)",
							tc.Name, eps, v, q, got, want, est, band, esig[e])
					}
					// Cross-check against the engine decision surface too.
					if eng.Sigma(v, q) >= eps != want {
						t.Fatalf("%s: engine σ disagrees with index σ on arc (%d,%d)", tc.Name, v, q)
					}
					_ = wts
				}
			}
			if checked > 0 && confident == 0 {
				t.Fatalf("%s eps=%v: no confident arcs at all — bands degenerate", tc.Name, eps)
			}
		}
	}
}

// TestApproxResolvedSlotsAreExact checks the values the approximate index
// resolves, not only the decisions they lead to. With k = 32 permutations the
// error bands are wide, so explore's (μ, ε) grid and a LocalView read of
// every vertex at each ε resolve many arcs, on the flat and the compressed
// backend at 1 and 2 workers. The five views read concurrently, so
// resolvers race for slots. Every resolved slot must hold the exact
// index's threshold for its arc bit for bit, and Approx().Resolved must
// count the resolved slots.
func TestApproxResolvedSlotsAreExact(t *testing.T) {
	csr := gen.RMAT(10, 1024*24, 0.45, 0.22, 0.22, gen.WeightConfig{}, 3)
	exact := index.Build(csr, 1)
	want := make([]map[int32]float64, csr.NumVertices())
	for v := range want {
		ids, sigs := exact.NeighborOrder(int32(v))
		want[v] = make(map[int32]float64, len(ids))
		for j, q := range ids {
			want[v][q] = sigs[j]
		}
	}
	epss := []float64{0.2, 0.35, 0.5, 0.65, 0.8}
	for _, backend := range []struct {
		name string
		g    graph.Graph
	}{{"flat", csr}, {"compressed", graph.Compress(csr)}} {
		for _, threads := range []int{1, 2} {
			x, err := index.BuildApproxK(backend.g, threads, 0.01, 32, 5)
			if err != nil {
				t.Fatal(err)
			}
			for _, mu := range []int{2, 4, 8, 16} {
				for _, eps := range epss {
					if _, err := x.Query(mu, eps); err != nil {
						t.Fatal(err)
					}
				}
			}
			var wg sync.WaitGroup
			for _, eps := range epss {
				wg.Add(1)
				go func() {
					defer wg.Done()
					view := x.LocalView(eps)
					for v := int32(0); v < int32(csr.NumVertices()); v++ {
						view.NeighborOrder(v)
					}
				}()
			}
			wg.Wait()
			var resolved int64
			x.ResolvedArcs(func(v, q int32, sig float64) {
				resolved++
				if w := want[v][q]; math.Float64bits(sig) != math.Float64bits(w) {
					t.Fatalf("%s/%d: arc (%d,%d) resolved to %v, the exact index holds %v", backend.name, threads, v, q, sig, w)
				}
			})
			if got := x.Approx().Resolved; got != resolved || resolved < csr.NumArcs()/10 {
				t.Fatalf("%s/%d: Approx().Resolved = %d, %d slots resolved of %d", backend.name, threads, got, resolved, csr.NumArcs())
			}
			t.Logf("%s/%d: %d of %d slots resolved exactly", backend.name, threads, resolved, csr.NumArcs())
		}
	}
}

// TestApproxDeltaZeroIsExact asserts the dial's zero position: δ=0 must
// degenerate to the exact build — byte-identical clusterings AND
// byte-identical persisted index bytes.
func TestApproxDeltaZeroIsExact(t *testing.T) {
	for _, tc := range approxGraphs()[:2] {
		g := tc.G
		xa, err := index.BuildApprox(g, 2, 0)
		if err != nil {
			t.Fatalf("BuildApprox(0): %v", err)
		}
		if d := xa.Approx().Delta; d != 0 {
			t.Fatalf("δ=0 index reports Delta %v", d)
		}
		xe := index.Build(g, 2)
		for _, eps := range []float64{0.3, 0.5, 0.7} {
			a, err := xa.Query(tc.Mu, eps)
			if err != nil {
				t.Fatal(err)
			}
			e, err := xe.Query(tc.Mu, eps)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a.Labels, e.Labels) || !reflect.DeepEqual(a.Roles, e.Roles) {
				t.Fatalf("%s eps=%v: δ=0 clustering differs from exact", tc.Name, eps)
			}
		}
		var ba, be bytes.Buffer
		if err := xa.Save(&ba); err != nil {
			t.Fatal(err)
		}
		if err := xe.Save(&be); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ba.Bytes(), be.Bytes()) {
			t.Fatalf("%s: δ=0 persisted bytes differ from the exact path", tc.Name)
		}
	}
}

// TestApproxFullFallbackIsExact forces the degenerate configuration where
// every sketched arc's band covers all of (0,1] (k=1): every similarity
// decision then resolves through the exact fallback, so the approximate
// clustering must be byte-identical to the exact one at every (μ, ε) — the
// band-aware walks, slack bounds, and resolution cache all under test.
func TestApproxFullFallbackIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, tc := range approxGraphs() {
		g := tc.G
		xa, err := index.BuildApproxK(g, 2, 0.1, 1, 99)
		if err != nil {
			t.Fatalf("%s: BuildApproxK: %v", tc.Name, err)
		}
		xe := index.Build(g, 1)
		for _, mu := range []int{1, 2, tc.Mu, tc.Mu + 3} {
			for i := 0; i < 4; i++ {
				eps := 0.05 + 0.9*rng.Float64()
				a, err := xa.Query(mu, eps)
				if err != nil {
					t.Fatal(err)
				}
				e, err := xe.Query(mu, eps)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(a.Labels, e.Labels) || !reflect.DeepEqual(a.Roles, e.Roles) {
					t.Fatalf("%s mu=%d eps=%v: full-fallback approx differs from exact", tc.Name, mu, eps)
				}
				if err := cluster.Validate(g, mu, eps, a); err != nil {
					t.Fatalf("%s mu=%d eps=%v: invalid clustering: %v", tc.Name, mu, eps, err)
				}
			}
		}
		if st := xa.Approx(); st.Resolved == 0 {
			t.Fatalf("%s: full-fallback run resolved no arcs exactly", tc.Name)
		}
	}
}

// TestApproxQueryThreadCountInvariant: uncertain arcs resolve to the same
// deterministic exact value regardless of which worker gets there first, so
// sequential and parallel approximate queries must agree byte-for-byte.
func TestApproxQueryThreadCountInvariant(t *testing.T) {
	tc := approxGraphs()[0]
	x1, err := index.BuildApprox(tc.G, 1, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	x4, err := index.BuildApprox(tc.G, 4, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	for _, eps := range []float64{0.3, 0.5, 0.7} {
		a, err := x1.Query(tc.Mu, eps)
		if err != nil {
			t.Fatal(err)
		}
		b, err := x4.Query(tc.Mu, eps)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a.Labels, b.Labels) || !reflect.DeepEqual(a.Roles, b.Roles) {
			t.Fatalf("eps=%v: approx clustering depends on thread count", eps)
		}
	}
}

// TestApproxLocalMatchesGlobal: a seed-centered query through LocalView must
// return exactly the seed's community under the *approximate* global query —
// the local/global equivalence of the exact index, carried over to effective
// similarities.
func TestApproxLocalMatchesGlobal(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for _, tc := range approxGraphs() {
		x, err := index.BuildApprox(tc.G, 2, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		for _, eps := range []float64{0.35, 0.55} {
			global, err := x.Query(tc.Mu, eps)
			if err != nil {
				t.Fatal(err)
			}
			view := x.LocalView(eps)
			for i := 0; i < 25; i++ {
				seed := int32(rng.Intn(tc.G.NumVertices()))
				lr, err := local.Query(view, seed, tc.Mu, eps)
				if err != nil {
					t.Fatalf("%s seed=%d: %v", tc.Name, seed, err)
				}
				if lr.Role != global.Roles[seed] {
					t.Fatalf("%s seed=%d eps=%v: local role %v, global role %v",
						tc.Name, seed, eps, lr.Role, global.Roles[seed])
				}
				if global.Labels[seed] == cluster.NoLabel {
					if lr.Members != nil {
						t.Fatalf("%s seed=%d: noise seed returned members", tc.Name, seed)
					}
					continue
				}
				var want []int32
				for v := int32(0); v < int32(tc.G.NumVertices()); v++ {
					if global.Labels[v] == global.Labels[seed] {
						want = append(want, v)
					}
				}
				if !slices.Equal(lr.Members, want) {
					t.Fatalf("%s seed=%d eps=%v: local members differ from global community (%d vs %d vertices)",
						tc.Name, seed, eps, len(lr.Members), len(want))
				}
			}
		}
	}
}

// TestApproxSaveLoadRoundTrip: an approximate index round-trips through the
// v2 payload — the dial, estimates, and bands survive, and a restored index
// answers byte-identically to the original.
func TestApproxSaveLoadRoundTrip(t *testing.T) {
	tc := approxGraphs()[0]
	x, err := index.BuildApprox(tc.G, 2, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := x.Save(&buf); err != nil {
		t.Fatal(err)
	}
	y, err := index.Load(tc.G, bytes.NewReader(buf.Bytes()), 2)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if y.Approx().Delta != x.Approx().Delta {
		t.Fatalf("Delta lost in round trip: %v vs %v", y.Approx().Delta, x.Approx().Delta)
	}
	for _, eps := range []float64{0.3, 0.6} {
		a, err := x.Query(tc.Mu, eps)
		if err != nil {
			t.Fatal(err)
		}
		b, err := y.Query(tc.Mu, eps)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a.Labels, b.Labels) || !reflect.DeepEqual(a.Roles, b.Roles) {
			t.Fatalf("eps=%v: restored approximate index answers differently", eps)
		}
	}
}

// TestApproxWeightedFallsBackExact: non-unit weights cannot be sketched, so
// an approximate build over a weighted graph must run the exact pass,
// report the fallback, and answer byte-identically to the exact index.
func TestApproxWeightedFallsBackExact(t *testing.T) {
	wts := gen.WeightConfig{Mode: gen.WeightUniform, Min: 0.5, Max: 1.5}
	g := gen.PlantedPartition(200, 4, 0.3, 0.02, wts, 41)
	xa, err := index.BuildApprox(g, 2, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	st := xa.Approx()
	if !st.ExactFallback {
		t.Fatal("weighted graph did not trigger the exact fallback")
	}
	if d := xa.Approx().Delta; d != 0.05 {
		t.Fatalf("fallback build lost its dial: Delta=%v", d)
	}
	xe := index.Build(g, 2)
	for _, eps := range []float64{0.3, 0.5, 0.7} {
		a, err := xa.Query(4, eps)
		if err != nil {
			t.Fatal(err)
		}
		e, err := xe.Query(4, eps)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a.Labels, e.Labels) || !reflect.DeepEqual(a.Roles, e.Roles) {
			t.Fatalf("eps=%v: weighted fallback differs from exact", eps)
		}
	}
	// The fallback persists as a plain exact index (its σ values are exact).
	var buf bytes.Buffer
	if err := xa.Save(&buf); err != nil {
		t.Fatal(err)
	}
	y, err := index.Load(g, bytes.NewReader(buf.Bytes()), 1)
	if err != nil {
		t.Fatal(err)
	}
	if d := y.Approx().Delta; d != 0 {
		t.Fatalf("exact-fallback file restored with Delta=%v", d)
	}
}

// TestBuildApproxRejectsBadDelta: the dial is validated at the API edge.
func TestBuildApproxRejectsBadDelta(t *testing.T) {
	g := testutil.Karate()
	for _, d := range []float64{-0.1, 1, 1.5} {
		if _, err := index.BuildApprox(g, 1, d); err == nil {
			t.Fatalf("delta=%v accepted", d)
		}
	}
}
