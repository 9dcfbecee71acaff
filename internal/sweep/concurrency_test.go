package sweep

import (
	"reflect"
	"sync"
	"testing"

	"anyscan/internal/cluster"
	"anyscan/internal/gen"
)

// TestExplorerConcurrentQueries hammers one shared Explorer with parallel
// queries of every kind and asserts each answer is identical to the serial
// baseline. Run under -race this is the concurrency audit behind the
// Explorer's documented contract: one instance is safe for any number of
// concurrent readers.
func TestExplorerConcurrentQueries(t *testing.T) {
	g, _, err := gen.LFR(gen.DefaultLFR(600, 12, 7))
	if err != nil {
		t.Fatalf("generating graph: %v", err)
	}
	const mu = 4
	ex, err := NewExplorer(g, mu, 4)
	if err != nil {
		t.Fatalf("NewExplorer: %v", err)
	}

	epsValues := []float64{0.2, 0.35, 0.5, 0.65, 0.8}
	baseline := make(map[float64]*cluster.Result, len(epsValues))
	for _, eps := range epsValues {
		baseline[eps] = ex.ClusteringAt(eps)
	}
	baseProfiles := ex.SweepProfile(epsValues)
	baseDendro := ex.Dendrogram()
	baseThr := ex.InterestingThresholds(64)

	const workers = 8
	const rounds = 5
	var wg sync.WaitGroup
	errs := make(chan string, workers*rounds)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				eps := epsValues[(w+r)%len(epsValues)]
				got := ex.ClusteringAt(eps)
				want := baseline[eps]
				if !reflect.DeepEqual(got.Labels, want.Labels) || !reflect.DeepEqual(got.Roles, want.Roles) {
					errs <- "ClusteringAt diverged under concurrency"
					return
				}
				switch (w + r) % 3 {
				case 0:
					if !reflect.DeepEqual(ex.SweepProfile(epsValues), baseProfiles) {
						errs <- "SweepProfile diverged under concurrency"
						return
					}
				case 1:
					if !reflect.DeepEqual(ex.Dendrogram(), baseDendro) {
						errs <- "Dendrogram diverged under concurrency"
						return
					}
				case 2:
					if !reflect.DeepEqual(ex.InterestingThresholds(64), baseThr) {
						errs <- "InterestingThresholds diverged under concurrency"
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}
}

// TestExplorerConcurrentConstruction builds explorers for the same graph
// from many goroutines at once; with the sync.Once reverse-edge index on the
// shared CSR this must be race-free and every instance must agree.
func TestExplorerConcurrentConstruction(t *testing.T) {
	g, _, err := gen.LFR(gen.DefaultLFR(400, 10, 11))
	if err != nil {
		t.Fatalf("generating graph: %v", err)
	}
	const workers = 6
	results := make([]*cluster.Result, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ex, err := NewExplorer(g, 3, 2)
			if err != nil {
				t.Errorf("NewExplorer: %v", err)
				return
			}
			results[w] = ex.ClusteringAt(0.5)
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		if results[w] == nil || results[0] == nil {
			t.Fatal("missing result")
		}
		if !reflect.DeepEqual(results[w].Labels, results[0].Labels) {
			t.Fatalf("explorer %d disagrees with explorer 0", w)
		}
	}
}
