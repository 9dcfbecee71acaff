package index_test

import (
	"math/rand"
	"runtime"
	"testing"

	"anyscan/internal/cluster"
	"anyscan/internal/gen"
	"anyscan/internal/graph"
	"anyscan/internal/index"
	"anyscan/internal/live"
)

// raceEnabled is set by race_test.go: the race detector's instrumentation
// allocates, so allocation counts are only meaningful without it.
var raceEnabled bool

// TestQueryAllocsPinned pins the allocations of one served read — exact
// index, approximate index and live epoch — at a count that does not grow
// with |V|: a query allocates its per-query arrays and its result, never
// per vertex.
func TestQueryAllocsPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	const mu, eps, maxAllocs = 16, 0.8, 16
	for _, scale := range []int{11, 12} {
		g := gen.RMAT(scale, 16<<scale, 0.57, 0.19, 0.19, gen.WeightConfig{}, 7)
		x := index.Build(g, 1)
		ax, err := index.BuildApprox(g, 1, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		for name, query := range map[string]func(int, float64) (*cluster.Result, error){
			"index":  x.Query,
			"approx": ax.Query,
			"epoch":  live.FromIndex(x).Epoch().Query,
		} {
			allocs := testing.AllocsPerRun(5, func() {
				if _, err := query(mu, eps); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > maxAllocs {
				t.Errorf("%s query on %d vertices: %v allocations, want at most %d",
					name, g.NumVertices(), allocs, maxAllocs)
			} else {
				t.Logf("%s query on %d vertices: %v allocations", name, g.NumVertices(), allocs)
			}
		}
	}
}

// TestApplyAllocBytesIndependentOfQueriedMu pins that a write's allocation
// does not grow with the μ values readers have queried: epochs memoize no
// per-μ state, so nothing is carried or patched across an Apply. Two live
// graphs over one index take the same one-edge batches; only the first had
// its epoch 0 queried at four μ.
func TestApplyAllocBytesIndependentOfQueriedMu(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	const batches = 64
	g := gen.RMAT(12, 16<<12, 0.57, 0.19, 0.19, gen.WeightConfig{}, 7)
	x := index.Build(g, 1)
	rng := rand.New(rand.NewSource(11))
	muts := make([]live.Mutation, 0, batches)
	for len(muts) < batches {
		u, v := rng.Int31n(int32(g.NumVertices())), rng.Int31n(int32(g.NumVertices()))
		if u != v && !g.HasEdge(u, v) {
			muts = append(muts, live.Mutation{Op: live.OpAdd, U: u, V: v, W: 1})
		}
	}
	bytesPerBatch := func(lg *live.Graph) float64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := range muts {
			if _, _, err := lg.Apply(muts[i : i+1]); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / batches
	}
	queried, cold := live.FromIndex(x), live.FromIndex(x)
	for _, mu := range []int{2, 4, 8, 16} {
		if _, err := queried.Epoch().Query(mu, 0.5); err != nil {
			t.Fatal(err)
		}
	}
	withMu, without := bytesPerBatch(queried), bytesPerBatch(cold)
	if withMu > 1.05*without {
		t.Errorf("one-edge Apply after queries at 4 μ allocates %.0f KiB per batch, %.0f KiB with none queried; want within 5%%",
			withMu/1024, without/1024)
	} else {
		t.Logf("one-edge Apply: %.0f KiB per batch after queries at 4 μ, %.0f KiB with none queried", withMu/1024, without/1024)
	}
}

// TestApplyAllocBytesPerRingArcPinned pins what a one-edge write allocates
// for its ring, the unmutated neighbors of the two endpoints: each ring
// vertex gets one new order, two arrays of its degree (12 B per arc), so
// the bytes per batch beyond the 8 B/vertex segment table, per arc of the
// ring vertices, stay at most 16.
func TestApplyAllocBytesPerRingArcPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	const batches, maxPerArc = 64, 16
	g := gen.RMAT(12, 16<<12, 0.57, 0.19, 0.19, gen.WeightConfig{}, 7)
	x := index.Build(g, 1)
	rng := rand.New(rand.NewSource(11))
	muts := make([]live.Mutation, 0, batches)
	for len(muts) < batches {
		u, v := rng.Int31n(int32(g.NumVertices())), rng.Int31n(int32(g.NumVertices()))
		if u != v && !g.HasEdge(u, v) {
			muts = append(muts, live.Mutation{Op: live.OpAdd, U: u, V: v, W: 1})
		}
	}
	lg := live.FromIndex(x)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range muts {
		if _, _, err := lg.Apply(muts[i : i+1]); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	// Replay the batches on a second live graph to sum the ring degrees.
	var ringArcs int64
	replay := live.FromIndex(x)
	for _, m := range muts {
		e, _, err := replay.Apply([]live.Mutation{m})
		if err != nil {
			t.Fatal(err)
		}
		ring := map[int32]bool{}
		for _, end := range []int32{m.U, m.V} {
			ids, _ := e.NeighborOrder(end)
			for _, q := range ids {
				if q != m.U && q != m.V && !ring[q] {
					ring[q] = true
					ringArcs += int64(e.Degree(q))
				}
			}
		}
	}
	table := int64(8 * g.NumVertices() * batches)
	perArc := float64(int64(after.TotalAlloc-before.TotalAlloc)-table) / float64(ringArcs)
	if perArc > maxPerArc {
		t.Errorf("one-edge Apply: %.1f B per ring arc beyond the segment table (%d ring arcs per batch), want at most %d",
			perArc, ringArcs/batches, maxPerArc)
	} else {
		t.Logf("one-edge Apply: %.1f B per ring arc beyond the segment table (%d ring arcs per batch)", perArc, ringArcs/batches)
	}
}

// TestBuildAllocBytesPerArcPinned pins the bytes a single-threaded build
// allocates per arc: exact on unit and on uniform weights, exact on the
// compressed backend, and approximate. The exact σ pass writes each
// threshold once, in place, into the sorted neighbor orders and needs one
// float32 row per worker (plus a cursor's decode buffer on the compressed
// backend), and the approximate build writes σ and the error bands in place
// too, so no build allocates a second arc-sized σ, band or scratch array.
func TestBuildAllocBytesPerArcPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	unit := gen.RMAT(12, 16<<12, 0.57, 0.19, 0.19, gen.WeightConfig{}, 7)
	weighted := gen.RMAT(12, 16<<12, 0.57, 0.19, 0.19, gen.WeightConfig{Mode: gen.WeightUniform, Min: 0.5, Max: 1.5}, 7)
	for _, c := range []struct {
		name   string
		g      graph.Graph
		delta  float64
		maxPer float64
	}{
		{"exact", unit, 0, 16},
		{"exact-weighted", weighted, 0, 16},
		{"exact-compressed", graph.Compress(weighted), 0, 16},
		{"approx", unit, 0.01, 60},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		x, err := index.BuildApprox(c.g, 1, c.delta)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		runtime.KeepAlive(x)
		perArc := float64(after.TotalAlloc-before.TotalAlloc) / float64(c.g.NumArcs())
		if perArc > c.maxPer {
			t.Errorf("%s build of %d arcs: %.1f B/arc allocated, want at most %v", c.name, c.g.NumArcs(), perArc, c.maxPer)
		} else {
			t.Logf("%s build of %d arcs: %.1f B/arc allocated", c.name, c.g.NumArcs(), perArc)
		}
	}
}

// TestBuildAllocsPinned pins an exact build's allocation count at a
// constant that does not grow with |V|: the σ pass allocates its arrays and
// per-worker scratch, and the neighbor-order sort allocates nothing.
func TestBuildAllocsPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	const maxAllocs = 32
	for _, scale := range []int{11, 13} {
		g := gen.RMAT(scale, 16<<scale, 0.57, 0.19, 0.19, gen.WeightConfig{}, 7)
		allocs := testing.AllocsPerRun(2, func() { index.Build(g, 1) })
		if allocs > maxAllocs {
			t.Errorf("build of %d vertices: %v allocations, want at most %d", g.NumVertices(), allocs, maxAllocs)
		} else {
			t.Logf("build of %d vertices: %v allocations", g.NumVertices(), allocs)
		}
	}
}
