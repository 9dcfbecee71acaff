package server

import (
	"context"
	"errors"
	"io"
	"log/slog"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"anyscan/internal/gen"
	"anyscan/internal/graph"
	"anyscan/internal/index"
	"anyscan/internal/live"
)

func lfr(t *testing.T, n int, seed int64) *graph.CSR {
	t.Helper()
	g, _, err := gen.LFR(gen.DefaultLFR(n, 8, seed))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// put makes ge the current generation under its name, as a completed load
// would; a generation it replaces is evicted first.
func put(r *Registry, ge *GraphEntry) {
	r.Evict(ge.Name)
	r.mu.Lock()
	defer r.mu.Unlock()
	ns := r.names[ge.Name]
	if ns == nil {
		ns = &nameState{}
		r.names[ge.Name] = ns
	}
	ns.cur = ge
}

// slotsOf returns ge's index slots and the last good indexes under its name.
func slotsOf(r *Registry, ge *GraphEntry) (slots [2]*indexEntry, stale [2]*staleIndex) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if ns := r.names[ge.Name]; ns != nil {
		stale = ns.stale
	}
	return ge.slots, stale
}

// newStateServer builds a Server with one index thread and no logging.
func newStateServer(t *testing.T, ocfg OverloadConfig) *Server {
	t.Helper()
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	s, err := New(Config{Manager: ManagerConfig{Workers: 1}, IndexThreads: 1, Overload: ocfg, Logger: quiet})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Drain(ctx)
	})
	return s
}

// TestGraphStateGenerationInvariant hammers one name with concurrent reads,
// index builds and mutations against its changing generations, while a
// reloader evicts and reloads it, under the race detector. Two generations
// stay held for the whole run, as requests that resolved the graph before an
// eviction do; the others are the name's current generation of the moment.
// Every reload is a new generation over a distinct graph object, and the
// two graphs differ in vertex count. The invariants: a successful index get
// returns an index built on exactly the caller's generation; a read answers
// from that generation's own index or epoch; and a write acknowledged at
// epoch k is visible to a min_epoch=k read of the same generation, whatever
// the other generations did meanwhile.
func TestGraphStateGenerationInvariant(t *testing.T) {
	base := []*graph.CSR{lfr(t, 2000, 1), lfr(t, 1500, 2)}
	// Builds queue for admission instead of shedding: a shed read is a
	// capacity answer, not what this test checks.
	s := newStateServer(t, OverloadConfig{QueueWait: time.Minute})
	r := s.reg
	held := []*GraphEntry{{Name: "g", G: base[0]}, {Name: "g", G: base[1]}}
	put(r, held[0])
	ctx := context.Background()

	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				ge := held[w%2]
				if i%2 == 1 {
					if cur, err := r.Get("g"); err == nil {
						ge = cur
					}
				}
				if err := generationStep(ctx, s, ge, (w+i)%3, int32(1+i)); err != nil {
					// Eviction may cancel a build under a waiter; that must
					// surface as a context error, and a retry must recover.
					if !errors.Is(err, context.Canceled) {
						errCh <- err
						return
					}
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			put(r, &GraphEntry{Name: "g", G: graph.Materialize(base[i%2])})
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	// After the dust settles a fresh get for either held generation works.
	for _, ge := range held {
		idx, _, _, err := r.index(ctx, ge, 0)
		if err != nil {
			t.Fatal(err)
		}
		if idx.Graph() != ge.G {
			t.Fatal("post-race get returned the wrong generation")
		}
	}
}

// generationStep is one operation of TestGraphStateGenerationInvariant on
// ge: an index get, a plain read, or a write followed by a read of the
// acknowledged epoch. Its deadline turns a lost write, whose epoch would
// never be published, into an error instead of a hang.
func generationStep(ctx context.Context, s *Server, ge *GraphEntry, op int, v int32) error {
	ctx, cancel := context.WithTimeout(ctx, 20*time.Second)
	defer cancel()
	n := ge.G.NumVertices()
	check := func(rv readView) error {
		defer rv.release()
		if rv.stale != nil {
			return nil // a stale answer may describe another generation by contract
		}
		if got := rv.view.NumVertices(); got != n {
			return errors.New("read answered from another generation's view")
		}
		if idx, ok := rv.view.(*index.Index); ok && idx.Graph() != ge.G {
			return errors.New("read answered from another generation's index")
		}
		return nil
	}
	switch op {
	case 0:
		idx, _, _, err := s.reg.index(ctx, ge, 0)
		if err != nil {
			return err
		}
		if idx.Graph() != ge.G {
			return errors.New("index answers for the wrong graph generation")
		}
	case 1:
		rv, _, err := s.resolveView(ctx, ge, 0, 0, false)
		if err != nil {
			return err
		}
		return check(rv)
	case 2:
		lg, err := s.reg.promote(ctx, ge)
		if err != nil {
			return err
		}
		ep, _, err := lg.Apply([]live.Mutation{{Op: live.OpAdd, U: 0, V: v, W: 0.5}})
		if err != nil {
			return err
		}
		rv, _, err := s.resolveView(ctx, ge, 0, ep.Seq(), false)
		if err != nil {
			return errors.New("acknowledged write lost: " + err.Error())
		}
		if rv.epoch < ep.Seq() {
			return errors.New("read-your-writes violated")
		}
		return check(rv)
	}
	return nil
}

// TestGraphStateEvictKeepsStale checks the degraded-mode contract of
// eviction: the generation's indexes go away (a reload with new content
// rebuilds), but the last good index survives under the name so queries can
// degrade while the replacement builds or fails.
func TestGraphStateEvictKeepsStale(t *testing.T) {
	g1 := lfr(t, 1000, 3)
	g2 := lfr(t, 1000, 4)
	r := newRegistry(&Metrics{}, 1, nil, 0)
	put(r, &GraphEntry{Name: "g", G: g1})

	ge1, _ := r.Get("g")
	idx1, hit, _, err := r.index(context.Background(), ge1, 0)
	if err != nil || hit {
		t.Fatalf("first get: idx=%v hit=%v err=%v", idx1, hit, err)
	}
	r.Evict("g")
	if indexes, _, _, _ := r.stateStats(); indexes != 0 {
		t.Fatal("eviction left the generation's index resident")
	}
	if st := r.lastGood("g", 0); st != idx1 {
		t.Fatal("eviction dropped the stale snapshot")
	}

	// Reload with different content: a fresh build, and the stale snapshot
	// rolls forward to the new generation once it succeeds.
	ge2 := &GraphEntry{Name: "g", G: g2}
	put(r, ge2)
	idx2, hit, _, err := r.index(context.Background(), ge2, 0)
	if err != nil || hit {
		t.Fatalf("post-reload get: hit=%v err=%v", hit, err)
	}
	if idx2 == idx1 || idx2.Graph() != g2 {
		t.Fatal("reload with new content did not rebuild")
	}
	if st := r.lastGood("g", 0); st != idx2 {
		t.Fatal("stale snapshot did not roll forward to the new build")
	}
}

// TestGraphStateAbandonedWaiter checks that a waiter whose deadline expires
// mid-build gets its context error promptly, and that the slot recovers: a
// later unhurried get yields a working index.
func TestGraphStateAbandonedWaiter(t *testing.T) {
	g := lfr(t, 30000, 5)
	r := newRegistry(&Metrics{}, 1, nil, 0)
	ge := &GraphEntry{Name: "g", G: g}
	put(r, ge)

	ctx, cancel := context.WithTimeout(context.Background(), time.Microsecond)
	defer cancel()
	start := time.Now()
	_, _, _, err := r.index(ctx, ge, 0)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired waiter got %v", err)
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("expired waiter blocked %v", waited)
	}

	idx, _, _, err := r.index(context.Background(), ge, 0)
	if err != nil {
		t.Fatalf("get after an abandoned build: %v", err)
	}
	if idx.Graph() != g {
		t.Fatal("recovered index answers for the wrong graph")
	}
}

// TestGraphStateMemoryBudget checks LRU eviction under a byte budget: the
// oldest idle index (and its stale twin) is dropped to make room, while the
// just-built index is never its own victim — even under a budget too small
// for a single index.
func TestGraphStateMemoryBudget(t *testing.T) {
	graphs := []*graph.CSR{lfr(t, 1000, 6), lfr(t, 1000, 7), lfr(t, 1000, 8)}
	perIndex := index.Build(graphs[0], 1).Bytes()

	met := &Metrics{}
	r := newRegistry(met, 1, nil, 2*perIndex+perIndex/2)
	names := []string{"a", "b", "c"}
	ges := make([]*GraphEntry, len(graphs))
	for i, g := range graphs {
		ges[i] = &GraphEntry{Name: names[i], G: g}
		put(r, ges[i])
		if _, _, _, err := r.index(context.Background(), ges[i], 0); err != nil {
			t.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond) // separate lastUsed stamps
	}
	if _, used, _, _ := r.stateStats(); used > 2*perIndex+perIndex/2 {
		t.Fatalf("resident bytes %d exceed the budget", used)
	}
	if met.IndexEvicted.Load() == 0 {
		t.Fatal("three indexes fit a two-index budget without any eviction")
	}
	aSlots, aStale := slotsOf(r, ges[0])
	cSlots, _ := slotsOf(r, ges[2])
	if aSlots[0] != nil || aStale[0] != nil {
		t.Fatal("LRU eviction spared the oldest entry (or left its stale twin)")
	}
	if cSlots[0] == nil {
		t.Fatal("the just-built index was evicted")
	}

	// A budget below a single index still never evicts the fresh build.
	tiny := newRegistry(&Metrics{}, 1, nil, 1)
	for i, g := range graphs[:2] {
		ges[i] = &GraphEntry{Name: names[i], G: g}
		put(tiny, ges[i])
		if _, _, _, err := tiny.index(context.Background(), ges[i], 0); err != nil {
			t.Fatal(err)
		}
	}
	bSlots, _ := slotsOf(tiny, ges[1])
	if n, _, _, _ := tiny.stateStats(); bSlots[0] == nil || n != 1 {
		t.Fatalf("tiny budget: %d entries resident, want only the latest build", n)
	}
}

// TestGraphStateForgetsEmptyNames checks that the name map holds only names
// with something under them: a failed load, an eviction that leaves no last
// good index, and a budget that drops an evicted name's last one each leave
// no entry behind, so client-chosen names do not accumulate.
func TestGraphStateForgetsEmptyNames(t *testing.T) {
	r := newRegistry(&Metrics{}, 1, nil, 1)
	names := func() int {
		r.mu.Lock()
		defer r.mu.Unlock()
		return len(r.names)
	}
	if _, err := r.Load("x", GraphSource{Path: t.TempDir() + "/missing.bin"}); err == nil {
		t.Fatal("loading a missing file succeeded")
	}
	put(r, &GraphEntry{Name: "y", G: lfr(t, 500, 9)})
	r.Evict("y")
	if n := names(); n != 0 {
		t.Fatalf("%d names left after a failed load and an index-less eviction, want 0", n)
	}

	a := &GraphEntry{Name: "a", G: lfr(t, 500, 10)}
	put(r, a)
	if _, _, _, err := r.index(context.Background(), a, 0); err != nil {
		t.Fatal(err)
	}
	r.Evict("a") // keeps a's last good index
	b := &GraphEntry{Name: "b", G: lfr(t, 500, 11)}
	put(r, b)
	if _, _, _, err := r.index(context.Background(), b, 0); err != nil {
		t.Fatal(err)
	}
	if n := names(); n != 1 {
		t.Fatalf("%d names left once the budget dropped a's last index, want only b", n)
	}
}

// TestGraphStateOneApproxDial walks the accuracy dial through ten values on
// one graph with no memory budget: only the exact index and the latest dial
// may stay resident, counting stale snapshots.
func TestGraphStateOneApproxDial(t *testing.T) {
	ge := &GraphEntry{Name: "g", G: gen.RMAT(10, 8192, 0.57, 0.19, 0.19, gen.WeightConfig{}, 1)}
	r := newRegistry(&Metrics{}, 1, nil, 0)
	put(r, ge)
	deltas := []float64{0, 0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.07, 0.08, 0.09, 0.10}
	for _, delta := range deltas {
		if _, _, _, err := r.index(context.Background(), ge, delta); err != nil {
			t.Fatal(err)
		}
	}
	slots, stale := slotsOf(r, ge)
	resident := map[*index.Index]bool{}
	for i := range slots {
		if slots[i] != nil {
			resident[slots[i].idx] = true
		}
		if stale[i] != nil {
			resident[stale[i].idx] = true
		}
	}
	exact := slots[0] != nil && slots[0].delta == 0
	latest := slots[1] != nil && slots[1].delta == 0.10
	if len(resident) > 2 {
		t.Fatalf("%d indexes resident for one graph after %d dial values, want at most 2", len(resident), len(deltas))
	}
	if !exact || !latest {
		t.Fatalf("exact index resident %v, latest dial resident %v; both must stay", exact, latest)
	}
}

// TestGraphStateHeldGenerationKeepsReloadWrites promotes a generation that a
// request resolved before its graph was evicted and reloaded. The held
// generation computes on its own state; the reload keeps the write it
// acknowledged, at min_epoch and on a plain read.
func TestGraphStateHeldGenerationKeepsReloadWrites(t *testing.T) {
	s := newStateServer(t, OverloadConfig{QueryTimeout: 20 * time.Second})
	ts := httptest.NewServer(s)
	defer ts.Close()
	c := NewClient(ts.URL)
	c.Retry.MaxAttempts = 1 // a lost write's read times out once, not four times
	ctx := context.Background()
	load := func(scale float64) {
		t.Helper()
		src := GraphSource{Dataset: "GR01L", Scale: scale}
		if _, err := c.LoadGraph(ctx, LoadGraphRequest{Name: "g", GraphSource: src}); err != nil {
			t.Fatal(err)
		}
	}

	load(0.05)
	first, err := s.reg.Get("g")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.EvictGraph(ctx, "g"); err != nil {
		t.Fatal(err)
	}
	load(0.06)
	mr, err := c.Mutate(ctx, "g", []MutationSpec{{Op: "add", U: 0, V: 1, W: 0.5}})
	if err != nil || mr.Epoch != 1 {
		t.Fatalf("mutating the reload: epoch %d (%v), want 1", mr.Epoch, err)
	}
	if _, err := s.reg.promote(ctx, first); err != nil {
		t.Fatal(err)
	}

	qr, err := c.QueryEpoch(ctx, "g", 3, 0.4, 1, false)
	if err != nil || qr.Epoch != 1 {
		t.Fatalf("min_epoch=1 read of the reload: epoch %d (%v), want 1", qr.Epoch, err)
	}
	if qr, err = c.Query(ctx, "g", 3, 0.4, false); err != nil || qr.Epoch != 1 {
		t.Fatalf("plain read of the reload: epoch %d (%v), want 1", qr.Epoch, err)
	}
}

// TestGraphStateHeldPromotionPublishesNothing promotes a generation held
// across DELETE: nothing it derives shows under the name, so the gauges
// still describe only the two graphs the registry holds.
func TestGraphStateHeldPromotionPublishesNothing(t *testing.T) {
	s := newStateServer(t, OverloadConfig{})
	ts := httptest.NewServer(s)
	defer ts.Close()
	c := NewClient(ts.URL)
	ctx := context.Background()
	for _, name := range []string{"a", "b", "c"} {
		src := GraphSource{Dataset: "GR01L", Scale: 0.05}
		if _, err := c.LoadGraph(ctx, LoadGraphRequest{Name: name, GraphSource: src}); err != nil {
			t.Fatal(err)
		}
		if name == "a" {
			continue
		}
		if _, err := c.Mutate(ctx, name, []MutationSpec{{Op: "add", U: 0, V: 1, W: 0.5}}); err != nil {
			t.Fatal(err)
		}
	}
	held, err := s.reg.Get("a")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.EvictGraph(ctx, "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.reg.promote(ctx, held); err != nil {
		t.Fatal(err)
	}

	text, err := c.MetricsText(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"anyscand_graphs_loaded 2\n", "anyscand_live_graphs 2\n", "anyscand_indexes_cached 2\n"} {
		if !strings.Contains(text, want) {
			t.Errorf("after a held promotion, metrics lack %q", strings.TrimSpace(want))
		}
	}
}
