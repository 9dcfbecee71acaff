package index_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"anyscan/internal/cluster"
	"anyscan/internal/gen"
	"anyscan/internal/graph"
	"anyscan/internal/index"
	"anyscan/internal/testutil"
)

// TestOneSigmaPassManyQueries asserts the defining property of the index:
// exactly one σ evaluation per undirected edge at build time, zero for any
// number of queries at any number of distinct μ afterwards.
func TestOneSigmaPassManyQueries(t *testing.T) {
	g := testutil.Karate()
	x := index.Build(g, 2)
	wantSims := g.NumArcs() / 2
	if x.SimEvals() != wantSims {
		t.Fatalf("build spent %d σ evaluations, want %d (one per edge)", x.SimEvals(), wantSims)
	}
	for mu := 1; mu <= 6; mu++ {
		for _, eps := range []float64{0.2, 0.5, 0.8} {
			if _, err := x.Query(mu, eps); err != nil {
				t.Fatal(err)
			}
		}
	}
	if x.SimEvals() != wantSims {
		t.Fatalf("queries changed σ evaluation count to %d", x.SimEvals())
	}
}

// TestCoreThresholdSemantics checks the O(1) per-μ core threshold against
// the clustering itself: a vertex is a core at exactly ε ≤ coreThr(v, μ).
// The triangle with a pendant vertex has edges whose σ is exactly 1.
func TestCoreThresholdSemantics(t *testing.T) {
	pendant, err := graph.FromUnweightedEdges(4, [][2]int32{{0, 1}, {0, 2}, {1, 2}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []*graph.CSR{testutil.TwoTriangles(), pendant} {
		x := index.Build(g, 1)
		for mu := 1; mu <= 4; mu++ {
			for v := int32(0); v < int32(g.NumVertices()); v++ {
				thr := x.CoreThreshold(v, mu)
				if thr < 0 || thr > 1 {
					t.Fatalf("mu=%d vertex %d threshold %v out of range", mu, v, thr)
				}
				if thr <= 0 {
					continue
				}
				at, err := x.Query(mu, thr)
				if err != nil {
					t.Fatal(err)
				}
				if at.Roles[v] != cluster.Core {
					t.Errorf("mu=%d vertex %d not core at its own threshold %v", mu, v, thr)
				}
				if above := math.Nextafter(thr, 2); above <= 1 {
					res, err := x.Query(mu, above)
					if err != nil {
						t.Fatal(err)
					}
					if res.Roles[v] == cluster.Core {
						t.Errorf("mu=%d vertex %d still core above its threshold %v", mu, v, thr)
					}
				}
			}
		}
	}
}

func TestQueryRejectsBadParams(t *testing.T) {
	x := index.Build(testutil.Karate(), 1)
	for _, bad := range []struct {
		mu  int
		eps float64
	}{
		{0, 0.5}, {-1, 0.5}, {2, 0}, {2, -0.1}, {2, 1.1}, {2, math.NaN()},
	} {
		if _, err := x.Query(bad.mu, bad.eps); err == nil {
			t.Errorf("Query(%d, %v) accepted", bad.mu, bad.eps)
		}
	}
}

// TestConcurrentQueries hammers one shared Index with parallel queries
// across distinct μ (racing on the lazily memoized core orders) and ε, and
// concurrently builds fresh indexes over the same shared graph. Run under
// -race this is the concurrency audit for the anyscand index cache.
func TestConcurrentQueries(t *testing.T) {
	g, _, err := gen.LFR(gen.DefaultLFR(600, 12, 7))
	if err != nil {
		t.Fatalf("generating graph: %v", err)
	}
	x := index.Build(g, 4)

	type key struct {
		mu  int
		eps float64
	}
	muValues := []int{2, 3, 4, 6}
	epsValues := []float64{0.2, 0.35, 0.5, 0.65, 0.8}
	baseline := map[key]*cluster.Result{}
	for _, mu := range muValues {
		for _, eps := range epsValues {
			res, err := x.Query(mu, eps)
			if err != nil {
				t.Fatal(err)
			}
			baseline[key{mu, eps}] = res
		}
	}
	// A second index whose per-μ core orders are still cold, so concurrent
	// queries race on the first derivation, not just on reads.
	cold := index.Build(g, 4)

	const workers = 8
	const rounds = 6
	var wg sync.WaitGroup
	errs := make(chan string, 2*workers*rounds+workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				k := key{muValues[(w+r)%len(muValues)], epsValues[(w*3+r)%len(epsValues)]}
				for _, ix := range []*index.Index{x, cold} {
					got, err := ix.Query(k.mu, k.eps)
					if err != nil {
						errs <- err.Error()
						return
					}
					want := baseline[k]
					if !reflect.DeepEqual(got.Labels, want.Labels) || !reflect.DeepEqual(got.Roles, want.Roles) {
						errs <- "Query diverged under concurrency"
						return
					}
				}
			}
			// Builds racing with queries on the same shared CSR.
			fresh := index.Build(g, 2)
			if _, err := fresh.Query(3, 0.5); err != nil {
				errs <- err.Error()
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	tc := testutil.RandomCases(1)[0]
	x := index.Build(tc.G, 2)

	var buf bytes.Buffer
	if err := x.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	loaded, err := index.Load(tc.G, bytes.NewReader(buf.Bytes()), 2)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if loaded.SimEvals() != 0 {
		t.Errorf("loaded index reports %d σ evaluations, want 0", loaded.SimEvals())
	}
	for _, eps := range []float64{0.3, 0.5, 0.8} {
		a, err := x.Query(tc.Mu, eps)
		if err != nil {
			t.Fatal(err)
		}
		b, err := loaded.Query(tc.Mu, eps)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a.Labels, b.Labels) || !reflect.DeepEqual(a.Roles, b.Roles) {
			t.Fatalf("eps=%v: loaded index answers differently", eps)
		}
	}

	path := filepath.Join(t.TempDir(), "graph.idx")
	if err := x.SaveFile(path); err != nil {
		t.Fatalf("SaveFile: %v", err)
	}
	fromFile, err := index.LoadFile(tc.G, path, 2)
	if err != nil {
		t.Fatalf("LoadFile: %v", err)
	}
	a, _ := x.Query(tc.Mu, 0.5)
	b, _ := fromFile.Query(tc.Mu, 0.5)
	if !reflect.DeepEqual(a.Labels, b.Labels) {
		t.Fatal("file round-trip answers differently")
	}
}

func TestLoadRejectsWrongGraph(t *testing.T) {
	cases := testutil.RandomCases(1)
	x := index.Build(cases[0].G, 1)
	var buf bytes.Buffer
	if err := x.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := index.Load(cases[1].G, bytes.NewReader(buf.Bytes()), 1); err == nil {
		t.Fatal("index loaded over a different graph")
	}
}

// TestLoadRejectsDamage truncates the saved index at every interesting
// boundary and flips bits across the file; every damaged variant must be
// rejected with an error, never a bad index or a panic.
func TestLoadRejectsDamage(t *testing.T) {
	g := testutil.Karate()
	x := index.Build(g, 1)
	var buf bytes.Buffer
	if err := x.Save(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	for _, n := range []int{0, 3, 4, 8, 16, 19, 20, len(raw) / 2, len(raw) - 1} {
		if n >= len(raw) {
			continue
		}
		if _, err := index.Load(g, bytes.NewReader(raw[:n]), 1); err == nil {
			t.Errorf("truncation to %d bytes accepted", n)
		}
	}
	for _, off := range []int{0, 5, 10, 18, 25, len(raw) - 2} {
		bad := append([]byte(nil), raw...)
		bad[off] ^= 0x40
		if _, err := index.Load(g, bytes.NewReader(bad), 1); err == nil {
			t.Errorf("bit flip at offset %d accepted", off)
		}
	}
}

func TestSaveFileIsAtomic(t *testing.T) {
	g := testutil.Karate()
	x := index.Build(g, 1)
	dir := t.TempDir()
	path := filepath.Join(dir, "k.idx")
	if err := x.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	if err := x.SaveFile(path); err != nil { // overwrite in place
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("temp files left behind: %d entries", len(ents))
	}
	if _, err := index.LoadFile(g, path, 1); err != nil {
		t.Fatalf("reload after overwrite: %v", err)
	}
}

// pollBudget is a context whose Err turns to context.Canceled once it has
// answered nil budget times. The par loops poll Err between chunks, so a
// budget of k cancels a build at its (k+1)-th poll, wherever in the build
// that falls.
type pollBudget struct {
	context.Context
	left atomic.Int64
}

func (c *pollBudget) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestBuildCtxCancellation cancels exact builds with unit and with uniform
// weights: with a context cancelled before the call, and with one cancelled
// at each poll in turn until the build outlasts the budget, which reaches
// every polled phase of the σ pass (the adjacency copy and the gathers) and
// of the neighbor sort. Every cancelled build must return ctx.Err() and no
// index.
func TestBuildCtxCancellation(t *testing.T) {
	for _, w := range []struct {
		name string
		wc   gen.WeightConfig
	}{
		{"unit", gen.WeightConfig{}},
		{"weighted", gen.WeightConfig{Mode: gen.WeightUniform, Min: 0.5, Max: 1.5}},
	} {
		g := gen.RMAT(9, 4096, 0.57, 0.19, 0.19, w.wc, 3)
		for _, threads := range []int{1, 2} {
			name := fmt.Sprintf("%s/threads=%d", w.name, threads)
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			if x, err := index.BuildCtx(ctx, g, threads); x != nil || !errors.Is(err, context.Canceled) {
				t.Fatalf("%s, cancelled before the call: index %v, error %v", name, x != nil, err)
			}
			for budget := int64(0); ; budget++ {
				ctx := &pollBudget{Context: context.Background()}
				ctx.left.Store(budget)
				x, err := index.BuildCtx(ctx, g, threads)
				if err == nil {
					if x == nil || x.SimEvals() != g.NumEdges() || budget == 0 {
						t.Fatalf("%s: completed after %d polls with index %v", name, budget, x != nil)
					}
					t.Logf("%s: cancelled at each of %d polls", name, budget)
					break
				}
				if x != nil || err != ctx.Err() {
					t.Fatalf("%s, cancelled at poll %d: index %v, error %v", name, budget+1, x != nil, err)
				}
			}
		}
	}
}
