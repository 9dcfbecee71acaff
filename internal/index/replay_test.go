package index_test

import (
	"sync/atomic"
	"testing"

	"anyscan/internal/gen"
	"anyscan/internal/index"
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
