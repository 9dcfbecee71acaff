package index_test

import (
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"anyscan/internal/cluster"
	"anyscan/internal/gen"
	"anyscan/internal/index"
	"anyscan/internal/live"
	"anyscan/internal/local"
)

// countingView is a local.View that counts the neighbor orders read through
// it.
type countingView struct {
	local.View
	calls atomic.Int64
}

func (c *countingView) NeighborOrder(v int32) ([]int32, []float64) {
	c.calls.Add(1)
	return c.View.NeighborOrder(v)
}

// TestReplayReadsNoNoiseListBelowTwoClusters pins the noise split's skip: a
// noise vertex is a hub only when its neighbors lie in two or more clusters,
// so with one cluster Replay reads one neighbor order per core (its walk)
// and none for the hub/outlier split. The graph is perfbench-shaped R-MAT,
// where most (μ, ε) cells have at most one cluster.
func TestReplayReadsNoNoiseListBelowTwoClusters(t *testing.T) {
	g := gen.RMAT(12, 4096*43, 0.45, 0.22, 0.22, gen.WeightConfig{}, 1)
	x := index.Build(g, 1)
	const mu = 4
	for _, eps := range []float64{0.5, 0.2} {
		cores := x.CoreOrder(mu).Prefix(eps)
		v := &countingView{View: x}
		res := index.Replay(v, cores, eps, 1)
		if res.NumClusters != 1 {
			t.Fatalf("mu=%d eps=%v: %d clusters, the case needs exactly one", mu, eps, res.NumClusters)
		}
		if got := v.calls.Load(); got != int64(len(cores)) {
			t.Errorf("mu=%d eps=%v: %d neighbor orders read for %d cores and one cluster, want one per core",
				mu, eps, got, len(cores))
		}
	}
}

// parallelCase is TestParallelReplayMatchesReference's graph, index and
// reference answer, built once per test binary: under -race the reference
// alone takes about 10 s, and CI repeats the test to vary the interleavings
// of the walks, which are what it checks.
var parallelCase = sync.OnceValues(func() (*index.Index, *cluster.Result) {
	g := gen.SocialCircles(gen.SocialCirclesConfig{
		N: 6000, Regions: 6000 / 400, CrossP: 0.06, CirclesPerV: 4.2,
		CircleSize: 48, CircleSizeJit: 24, IntraP: 0.76, Seed: 3,
	})
	return index.Build(g, 2), cluster.Reference(g, parallelMu, parallelEps)
})

const parallelMu, parallelEps = 4, 0.4

// TestParallelReplayMatchesReference runs the union/claim walk on workers:
// on a dense social-circles graph (perfbench mixed_rw's shape at 6,000
// vertices) the cores at (μ, ε) outnumber ParallelQueryMin, so Replay at 2
// and 4 threads splits them across workers, and every core–core edge is
// joined from whichever end a worker meets first. The index's replay and a
// live epoch's must equal cluster.Reference label for label and role for
// role at 1, 2 and 4 threads. Sized to run under -race, where concurrent
// walks race on the union-find's parent slots and the claims.
func TestParallelReplayMatchesReference(t *testing.T) {
	x, want := parallelCase()
	cores := x.CoreOrder(parallelMu).Prefix(parallelEps)
	if len(cores) < index.ParallelQueryMin || want.NumClusters < 2 {
		t.Fatalf("%d cores and %d clusters: the case needs at least %d cores and two clusters",
			len(cores), want.NumClusters, index.ParallelQueryMin)
	}
	t.Logf("%d cores, %d clusters", len(cores), want.NumClusters)
	// The epoch walks its cores in id order, as its threshold scan finds
	// them, rather than in the core order.
	epoch, byID := live.FromIndex(x).Epoch(), slices.Clone(cores)
	slices.Sort(byID)
	for _, threads := range []int{1, 2, 4} {
		for name, got := range map[string]*cluster.Result{
			"index": index.Replay(x, cores, parallelEps, threads),
			"epoch": index.Replay(epoch, byID, parallelEps, threads),
		} {
			if !reflect.DeepEqual(got.Labels, want.Labels) || !reflect.DeepEqual(got.Roles, want.Roles) {
				t.Errorf("%s replay at %d threads differs from Reference", name, threads)
			}
		}
	}
}
