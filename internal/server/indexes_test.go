package server

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"anyscan/internal/gen"
	"anyscan/internal/graph"
	"anyscan/internal/index"
)

func lfr(t *testing.T, n int, seed int64) *graph.CSR {
	t.Helper()
	g, _, err := gen.LFR(gen.DefaultLFR(n, 8, seed))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestIndexCacheGenerationInvariant hammers one cache name with concurrent
// queries against two graph generations interleaved with evictions, under the
// race detector. The invariant: a successful get always returns an index
// built for exactly the generation the caller asked about — never the other
// generation that happens to share the name (the stale-generation check in
// entry()).
func TestIndexCacheGenerationInvariant(t *testing.T) {
	gA := lfr(t, 2000, 1)
	gB := lfr(t, 2000, 2)
	c := newIndexCache(&Metrics{}, 1, nil, 0)
	geA := &GraphEntry{Name: "g", G: gA}
	geB := &GraphEntry{Name: "g", G: gB}

	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	for w := 0; w < 4; w++ {
		ge := geA
		if w%2 == 1 {
			ge = geB
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				idx, _, _, err := c.get(context.Background(), ge, 0)
				if err != nil {
					// Eviction may cancel a build under a waiter; that must
					// surface as a context error, and a retry must recover.
					if !errors.Is(err, context.Canceled) {
						errCh <- err
						return
					}
					continue
				}
				if idx.Graph() != ge.G {
					errCh <- errors.New("index answers for the wrong graph generation")
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			c.evictGraph("g")
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	// After the dust settles a fresh get for either generation works.
	for _, ge := range []*GraphEntry{geA, geB} {
		idx, _, _, err := c.get(context.Background(), ge, 0)
		if err != nil {
			t.Fatal(err)
		}
		if idx.Graph() != ge.G {
			t.Fatal("post-race get returned the wrong generation")
		}
	}
}

// TestIndexCacheEvictKeepsStale checks the degraded-mode contract of
// evictGraph: the fresh entry goes away (a reload with new content rebuilds),
// but the last good index survives in the stale store so queries can degrade
// while the replacement builds or fails.
func TestIndexCacheEvictKeepsStale(t *testing.T) {
	g1 := lfr(t, 1000, 3)
	g2 := lfr(t, 1000, 4)
	c := newIndexCache(&Metrics{}, 1, nil, 0)

	idx1, hit, _, err := c.get(context.Background(), &GraphEntry{Name: "g", G: g1}, 0)
	if err != nil || hit {
		t.Fatalf("first get: idx=%v hit=%v err=%v", idx1, hit, err)
	}
	c.evictGraph("g")
	if c.size() != 0 {
		t.Fatal("evictGraph left the fresh entry")
	}
	st, ok := c.staleFor("g", 0)
	if !ok || st.idx != idx1 {
		t.Fatal("evictGraph dropped the stale snapshot")
	}

	// Reload with different content: a fresh build, and the stale store rolls
	// forward to the new generation once it succeeds.
	idx2, hit, _, err := c.get(context.Background(), &GraphEntry{Name: "g", G: g2}, 0)
	if err != nil || hit {
		t.Fatalf("post-reload get: hit=%v err=%v", hit, err)
	}
	if idx2 == idx1 || idx2.Graph() != g2 {
		t.Fatal("reload with new content did not rebuild")
	}
	if st, _ := c.staleFor("g", 0); st == nil || st.idx != idx2 {
		t.Fatal("stale store did not roll forward to the new build")
	}
}

// TestIndexCacheAbandonedWaiter checks that a waiter whose deadline expires
// mid-build gets its context error promptly, and that the cache recovers: a
// later unhurried get yields a working index.
func TestIndexCacheAbandonedWaiter(t *testing.T) {
	g := lfr(t, 30000, 5)
	c := newIndexCache(&Metrics{}, 1, nil, 0)
	ge := &GraphEntry{Name: "g", G: g}

	ctx, cancel := context.WithTimeout(context.Background(), time.Microsecond)
	defer cancel()
	start := time.Now()
	_, _, _, err := c.get(ctx, ge, 0)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired waiter got %v", err)
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("expired waiter blocked %v", waited)
	}

	idx, _, _, err := c.get(context.Background(), ge, 0)
	if err != nil {
		t.Fatalf("get after an abandoned build: %v", err)
	}
	if idx.Graph() != g {
		t.Fatal("recovered index answers for the wrong graph")
	}
}

// TestIndexCacheMemoryBudget checks LRU eviction under a byte budget: the
// oldest idle index (and its stale twin) is dropped to make room, while the
// just-built index is never its own victim — even under a budget too small
// for a single index.
func TestIndexCacheMemoryBudget(t *testing.T) {
	graphs := []*graph.CSR{lfr(t, 1000, 6), lfr(t, 1000, 7), lfr(t, 1000, 8)}
	perIndex := index.Build(graphs[0], 1).Bytes()

	met := &Metrics{}
	c := newIndexCache(met, 1, nil, 2*perIndex+perIndex/2)
	names := []string{"a", "b", "c"}
	for i, g := range graphs {
		if _, _, _, err := c.get(context.Background(), &GraphEntry{Name: names[i], G: g}, 0); err != nil {
			t.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond) // separate lastUsed stamps
	}
	if used := c.usedBytes(); used > 2*perIndex+perIndex/2 {
		t.Fatalf("resident bytes %d exceed the budget", used)
	}
	if met.IndexEvicted.Load() == 0 {
		t.Fatal("three indexes fit a two-index budget without any eviction")
	}
	c.mu.Lock()
	_, aLive := c.entries[idxKey{name: "a"}]
	_, aStale := c.stale[idxKey{name: "a"}]
	_, cLive := c.entries[idxKey{name: "c"}]
	c.mu.Unlock()
	if aLive || aStale {
		t.Fatal("LRU eviction spared the oldest entry (or left its stale twin)")
	}
	if !cLive {
		t.Fatal("the just-built index was evicted")
	}

	// A budget below a single index still never evicts the fresh build.
	tiny := newIndexCache(&Metrics{}, 1, nil, 1)
	for i, g := range graphs[:2] {
		if _, _, _, err := tiny.get(context.Background(), &GraphEntry{Name: names[i], G: g}, 0); err != nil {
			t.Fatal(err)
		}
	}
	tiny.mu.Lock()
	_, bLive := tiny.entries[idxKey{name: "b"}]
	n := len(tiny.entries)
	tiny.mu.Unlock()
	if !bLive || n != 1 {
		t.Fatalf("tiny budget: %d entries resident, want only the latest build", n)
	}
}

// TestIndexCacheOneApproxDial walks the accuracy dial through ten values on
// one graph with no memory budget: only the exact index and the latest dial
// may stay resident, counting stale snapshots.
func TestIndexCacheOneApproxDial(t *testing.T) {
	ge := &GraphEntry{Name: "g", G: gen.RMAT(10, 8192, 0.57, 0.19, 0.19, gen.WeightConfig{}, 1)}
	c := newIndexCache(&Metrics{}, 1, nil, 0)
	deltas := []float64{0, 0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.07, 0.08, 0.09, 0.10}
	for _, delta := range deltas {
		if _, _, _, err := c.get(context.Background(), ge, delta); err != nil {
			t.Fatal(err)
		}
	}
	c.mu.Lock()
	resident := map[*index.Index]bool{}
	for key, e := range c.entries {
		if key.name == "g" {
			resident[e.idx] = true
		}
	}
	for key, s := range c.stale {
		if key.name == "g" {
			resident[s.idx] = true
		}
	}
	_, exact := c.entries[idxKey{name: "g"}]
	_, latest := c.entries[idxKey{name: "g", delta: 0.10}]
	c.mu.Unlock()
	if len(resident) > 2 {
		t.Fatalf("%d indexes resident for one graph after %d dial values, want at most 2", len(resident), len(deltas))
	}
	if !exact || !latest {
		t.Fatalf("exact index resident %v, latest dial resident %v; both must stay", exact, latest)
	}
}
