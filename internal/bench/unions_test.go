package bench

import (
	"fmt"
	"testing"

	"anyscan/internal/cluster"
	"anyscan/internal/core"
	"anyscan/internal/scan"
	"anyscan/internal/testutil"
)

// TestUnionCountsAreMergeCounts pins the union counts Fig. 12 prints. Each
// merge joins two sets for good, so a batch algorithm, whose forest holds
// its cores, reports its cores minus its clusters, and anySCAN, whose forest
// holds its super-nodes, reports its super-nodes minus its clusters, at any
// thread count.
func TestUnionCountsAreMergeCounts(t *testing.T) {
	for _, tc := range testutil.RandomCases(2) {
		batch := map[string]func() (*cluster.Result, scan.Metrics){
			"pSCAN":          func() (*cluster.Result, scan.Metrics) { return scan.PSCAN(tc.G, tc.Mu, tc.Eps) },
			"SCAN++":         func() (*cluster.Result, scan.Metrics) { return scan.SCANPP(tc.G, tc.Mu, tc.Eps) },
			"ParallelSCAN/1": func() (*cluster.Result, scan.Metrics) { return scan.ParallelSCAN(tc.G, tc.Mu, tc.Eps, 1) },
			"ParallelSCAN/2": func() (*cluster.Result, scan.Metrics) { return scan.ParallelSCAN(tc.G, tc.Mu, tc.Eps, 2) },
			"LinkSCAN*":      func() (*cluster.Result, scan.Metrics) { return scan.ApproxSCAN(tc.G, tc.Mu, tc.Eps, 0.5, 1) },
		}
		for name, run := range batch {
			res, m := run()
			cores := 0
			for _, r := range res.Roles {
				if r == cluster.Core {
					cores++
				}
			}
			if want := int64(cores - res.NumClusters); m.Unions != want {
				t.Errorf("%s: %s: %d unions, want %d cores − %d clusters = %d", tc.Name, name, m.Unions, cores, res.NumClusters, want)
			}
		}
		for _, threads := range []int{1, 2} {
			o := core.DefaultOptions()
			o.Mu, o.Eps, o.Threads = tc.Mu, tc.Eps, threads
			res, m, err := core.Cluster(tc.G, o)
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("anySCAN/%d", threads)
			if want := int64(m.SuperNodes - res.NumClusters); m.Unions() != want {
				t.Errorf("%s: %s: %d unions, want %d super-nodes − %d clusters = %d", tc.Name, name, m.Unions(), m.SuperNodes, res.NumClusters, want)
			}
		}
	}
}
