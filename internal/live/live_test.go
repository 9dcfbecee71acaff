package live

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"anyscan/internal/cluster"
	"anyscan/internal/gen"
	"anyscan/internal/graph"
	"anyscan/internal/index"
)

// refGraph mirrors a live.Graph's edge set so tests can build the
// equivalent static CSR at any point.
type refGraph struct {
	n     int
	edges map[[2]int32]float32
}

func newRefGraph(g *graph.CSR) *refGraph {
	r := &refGraph{n: g.NumVertices(), edges: map[[2]int32]float32{}}
	for v := int32(0); v < int32(g.NumVertices()); v++ {
		adj, wt := g.Neighbors(v)
		for i, q := range adj {
			if v < q {
				r.edges[[2]int32{v, q}] = wt[i]
			}
		}
	}
	return r
}

func (r *refGraph) apply(muts []Mutation) {
	for _, m := range muts {
		u, v := m.U, m.V
		if u > v {
			u, v = v, u
		}
		switch m.Op {
		case OpDelete:
			delete(r.edges, [2]int32{u, v})
		default:
			r.edges[[2]int32{u, v}] = m.W
		}
	}
}

func (r *refGraph) toCSR(t testing.TB) *graph.CSR {
	t.Helper()
	var b graph.Builder
	b.SetNumVertices(r.n)
	for e, w := range r.edges {
		b.AddEdge(e[0], e[1], w)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// randomBatch draws a mixed batch: inserts of fresh edges, deletes and
// reweights of present ones.
func (r *refGraph) randomBatch(rng *rand.Rand, size int) []Mutation {
	var present [][2]int32
	for e := range r.edges {
		present = append(present, e)
	}
	// Map iteration order is random; sort for determinism per rng seed.
	for i := 1; i < len(present); i++ {
		for j := i; j > 0 && less(present[j], present[j-1]); j-- {
			present[j], present[j-1] = present[j-1], present[j]
		}
	}
	// Track in-batch deletions: OpReweight errors on an absent edge, so the
	// generator must not reweight (or double-delete counts as noop, which is
	// fine) an edge an earlier mutation in the same batch removed.
	gone := map[[2]int32]bool{}
	muts := make([]Mutation, 0, size)
	for len(muts) < size {
		switch k := rng.Intn(10); {
		case k < 5 || len(present) == 0: // insert (or overwrite)
			u, v := int32(rng.Intn(r.n)), int32(rng.Intn(r.n))
			if u == v {
				continue
			}
			if u > v {
				u, v = v, u
			}
			delete(gone, [2]int32{u, v})
			muts = append(muts, Mutation{Op: OpAdd, U: u, V: v, W: 0.25 + rng.Float32()})
		case k < 8: // delete
			e := present[rng.Intn(len(present))]
			gone[e] = true
			muts = append(muts, Mutation{Op: OpDelete, U: e[0], V: e[1]})
		default: // reweight
			e := present[rng.Intn(len(present))]
			if gone[e] {
				continue
			}
			muts = append(muts, Mutation{Op: OpReweight, U: e[0], V: e[1], W: 0.25 + rng.Float32()})
		}
	}
	return muts
}

func less(a, b [2]int32) bool {
	if a[0] != b[0] {
		return a[0] < b[0]
	}
	return a[1] < b[1]
}

// sameResult demands byte-identical clusterings.
func sameResult(t *testing.T, tag string, got, want *cluster.Result) {
	t.Helper()
	if got.NumClusters != want.NumClusters {
		t.Fatalf("%s: clusters %d != %d", tag, got.NumClusters, want.NumClusters)
	}
	for v := 0; v < want.N(); v++ {
		if got.Roles[v] != want.Roles[v] || got.Labels[v] != want.Labels[v] {
			t.Fatalf("%s: vertex %d: got (%v,%d) want (%v,%d)",
				tag, v, got.Roles[v], got.Labels[v], want.Roles[v], want.Labels[v])
		}
	}
}

// checkAgainstFreshIndex asserts the strongest equivalence: every segment of
// the epoch — adjacency, norms, thresholds, σ-sorted orders — is bitwise
// identical to a fresh index.Build over the equivalent static CSR, and
// Query agrees byte-for-byte for a grid of (μ, ε).
func checkAgainstFreshIndex(t *testing.T, tag string, e *Epoch, ref *graph.CSR, threads int) {
	t.Helper()
	if int64(e.NumEdges()) != ref.NumEdges() {
		t.Fatalf("%s: edges %d != %d", tag, e.NumEdges(), ref.NumEdges())
	}
	x := index.Build(ref, threads)
	for v := int32(0); v < int32(ref.NumVertices()); v++ {
		adj, wt := ref.Neighbors(v)
		s := e.segs[v]
		if len(s.nbr) != len(adj) {
			t.Fatalf("%s: vertex %d: degree %d != %d", tag, v, len(s.nbr), len(adj))
		}
		for i := range adj {
			if s.nbr[i] != adj[i] || s.wt[i] != wt[i] {
				t.Fatalf("%s: vertex %d entry %d: (%d,%v) != (%d,%v)",
					tag, v, i, s.nbr[i], s.wt[i], adj[i], wt[i])
			}
		}
		if s.norm != ref.Norm(v) || s.sqrtNorm != ref.SqrtNorm(v) {
			t.Fatalf("%s: vertex %d: norm %v != %v", tag, v, s.norm, ref.Norm(v))
		}
		onbr, osig := x.NeighborOrder(v)
		for i := range onbr {

			if s.onbr[i] != onbr[i] || s.osig[i] != osig[i] {
				t.Fatalf("%s: vertex %d order %d: (%d,%v) != (%d,%v)",
					tag, v, i, s.onbr[i], s.osig[i], onbr[i], osig[i])
			}
		}
	}
	for _, mu := range []int{1, 2, 3, 5} {
		for _, eps := range []float64{0.2, 0.45, 0.7, 1} {
			got, err := e.Query(mu, eps)
			if err != nil {
				t.Fatal(err)
			}
			want, err := x.Query(mu, eps)
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, fmt.Sprintf("%s (mu=%d eps=%v)", tag, mu, eps), got, want)
		}
	}
}

func seedGraph(seed int64) *graph.CSR {
	return gen.ErdosRenyi(120, 600, gen.WeightConfig{Mode: gen.WeightUniform, Min: 0.25, Max: 1.5}, seed)
}

// The acceptance property: after any mutation sequence, the live epoch is
// byte-identical — segments and query results — to a full rebuild on the
// equivalent static CSR.
func TestEquivalenceRandomized(t *testing.T) {
	for _, seed := range []int64{1, 9, 23} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			g0 := seedGraph(seed)
			ref := newRefGraph(g0)
			lg, err := FromCSR(context.Background(), g0, 4)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(seed * 1000003))
			for round := 0; round < 8; round++ {
				// Query before applying as well, so every epoch of the chain
				// is read while it is current, not only after its write.
				if _, err := lg.Epoch().Query(2+round%3, 0.4); err != nil {
					t.Fatal(err)
				}
				muts := ref.randomBatch(rng, 1+rng.Intn(40))
				ep, st, err := lg.Apply(muts)
				if err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
				ref.apply(muts)
				if st.Applied+st.NoOps != len(muts) {
					t.Fatalf("round %d: applied %d + noops %d != %d", round, st.Applied, st.NoOps, len(muts))
				}
				checkAgainstFreshIndex(t, fmt.Sprintf("round %d (epoch %d)", round, ep.Seq()), ep, ref.toCSR(t), 4)
			}
		})
	}
}

// TestEquivalenceParallelPatch runs batches large enough for the parallel
// σ patch, where two workers share the graph's scratch rows, on a skewed
// weighted graph, and checks each epoch against a fresh index.
func TestEquivalenceParallelPatch(t *testing.T) {
	g0 := gen.RMAT(9, 4000, 0.45, 0.22, 0.22, gen.WeightConfig{Mode: gen.WeightUniform, Min: 0.25, Max: 1.5}, 3)
	ref := newRefGraph(g0)
	lg, err := FromCSR(context.Background(), g0, 2)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for round := 0; round < 4; round++ {
		muts := ref.randomBatch(rng, 120)
		ep, st, err := lg.Apply(muts)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		ref.apply(muts)
		if st.SigmaRecomputed < parallelPatchMin {
			t.Fatalf("round %d: %d arcs recomputed, below the parallel patch's %d", round, st.SigmaRecomputed, parallelPatchMin)
		}
		checkAgainstFreshIndex(t, fmt.Sprintf("round %d (epoch %d)", round, ep.Seq()), ep, ref.toCSR(t), 2)
	}
}

// TestRepairOrderMatchesSort checks repairOrder against a full sort of the
// changed σ row: one to many moved entries, moves up, down and in place,
// thresholds with ties (broken by id), and an old σ that disagrees with the
// order, which must fall back to finding the entry by id.
func TestRepairOrderMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 500; trial++ {
		deg := 1 + rng.Intn(60)
		nbr := make([]int32, 0, deg)
		for _, q := range rng.Perm(4 * deg)[:deg] {
			nbr = append(nbr, int32(q))
		}
		slices.Sort(nbr)
		sig := make([]float64, deg)
		for i := range sig {
			sig[i] = float64(rng.Intn(8)) / 8 // few values, so ties are common
		}
		old := &seg{nbr: nbr}
		old.sortOrder(slices.Clone(sig))

		k := 1 + rng.Intn(deg)
		mv := make([]move, 0, k)
		for _, i := range rng.Perm(deg)[:k] {
			m := move{t: nbr[i], old: sig[i], new: float64(rng.Intn(8)) / 8}
			if rng.Intn(10) == 0 {
				m.old += 1.0 / 16 // not where the order holds it
			}
			sig[i] = m.new
			mv = append(mv, m)
		}
		want := &seg{nbr: nbr}
		want.sortOrder(sig)
		got := &seg{nbr: nbr}
		got.repairOrder(old, mv, make([]int32, k))
		if !slices.Equal(got.onbr, want.onbr) || !slices.Equal(got.osig, want.osig) {
			t.Fatalf("trial %d (deg %d, %d moved): repaired %v %v, sorted %v %v",
				trial, deg, k, got.onbr, got.osig, want.onbr, want.osig)
		}
	}
}

func TestApplySemantics(t *testing.T) {
	g0 := seedGraph(3)
	lg, err := FromCSR(context.Background(), g0, 1)
	if err != nil {
		t.Fatal(err)
	}
	e0 := lg.Epoch()
	if e0.Seq() != 0 {
		t.Fatalf("initial epoch %d", e0.Seq())
	}

	// Pick a present and an absent edge.
	var pu, pv int32 = -1, -1
	for v := int32(0); v < int32(g0.NumVertices()) && pu < 0; v++ {
		if adj, _ := g0.Neighbors(v); len(adj) > 0 && adj[len(adj)-1] > v {
			pu, pv = v, adj[len(adj)-1]
		}
	}
	var au, av int32
	for u := int32(0); u < int32(g0.NumVertices()); u++ {
		for w := u + 1; w < int32(g0.NumVertices()); w++ {
			if !g0.HasEdge(u, w) {
				au, av = u, w
			}
		}
	}

	// Reweight of an absent edge rejects the whole batch atomically — even
	// when other mutations in the batch are valid.
	if _, _, err := lg.Apply([]Mutation{
		{Op: OpReweight, U: pv, V: pu, W: 0.75}, // present: fine
		{Op: OpDelete, U: au, V: av},
		{Op: OpReweight, U: au, V: av, W: 2}, // absent (and deleted in-batch): error
	}); err == nil || lg.Epoch() != e0 {
		t.Fatalf("reweight-absent batch not rejected atomically: %v", err)
	}

	// Pure no-op batch publishes nothing.
	w0 := e0.EdgeWeight(pu, pv)
	ep, st, err := lg.Apply([]Mutation{
		{Op: OpDelete, U: au, V: av},
		{Op: OpAdd, U: pu, V: pv, W: w0},
	})
	if err != nil || ep != e0 || st.Applied != 0 || st.NoOps != 2 {
		t.Fatalf("no-op batch: epoch %d, applied %d, noops %d, err %v", ep.Seq(), st.Applied, st.NoOps, err)
	}

	// add+delete within one batch cancels out.
	ep, st, err = lg.Apply([]Mutation{
		{Op: OpAdd, U: au, V: av, W: 1},
		{Op: OpReweight, U: au, V: av, W: 2}, // exists within the batch
		{Op: OpDelete, U: au, V: av},
	})
	if err != nil || ep != e0 || st.Applied != 0 {
		t.Fatalf("cancelling batch: epoch %d, applied %d, err %v", ep.Seq(), st.Applied, err)
	}

	// A real batch publishes epoch 1.
	ep, st, err = lg.Apply([]Mutation{{Op: OpAdd, U: au, V: av, W: 1.25}})
	if err != nil || ep.Seq() != 1 || st.Applied != 1 || lg.Epoch() != ep {
		t.Fatalf("insert batch: epoch %d, applied %d, err %v", ep.Seq(), st.Applied, err)
	}
	if ep.EdgeWeight(av, au) != 1.25 {
		t.Fatalf("weight %v after insert", ep.EdgeWeight(av, au))
	}

	// Validation errors.
	bad := []Mutation{
		{Op: OpAdd, U: 0, V: 0, W: 1},
		{Op: OpAdd, U: -1, V: 1, W: 1},
		{Op: OpAdd, U: 0, V: 10000, W: 1},
		{Op: OpAdd, U: 0, V: 1, W: float32(math.NaN())},
		{Op: OpAdd, U: 0, V: 1, W: float32(math.Inf(1))},
		{Op: OpAdd, U: 0, V: 1, W: 0},
		{Op: OpAdd, U: 0, V: 1, W: -1},
		{Op: Op(7), U: 0, V: 1, W: 1},
	}
	for _, m := range bad {
		if _, _, err := lg.Apply([]Mutation{m}); err == nil {
			t.Errorf("mutation %+v accepted", m)
		}
	}
	if lg.Epoch() != ep {
		t.Fatalf("rejected batches moved the epoch from %d to %d", ep.Seq(), lg.Epoch().Seq())
	}
}

// Satellite: a reader pinned to an old epoch observes identical results
// before and after later publishes — copy-on-write means published epochs
// are frozen forever.
func TestEpochPinnedAcrossPublish(t *testing.T) {
	g0 := seedGraph(5)
	ref := newRefGraph(g0)
	lg, err := FromCSR(context.Background(), g0, 2)
	if err != nil {
		t.Fatal(err)
	}
	pinned := lg.Epoch()
	before, err := pinned.Query(3, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	beforeCSR := ref.toCSR(t)

	rng := rand.New(rand.NewSource(77))
	for i := 0; i < 5; i++ {
		muts := ref.randomBatch(rng, 20)
		if _, _, err := lg.Apply(muts); err != nil {
			t.Fatal(err)
		}
		ref.apply(muts)
	}
	if lg.Epoch() == pinned {
		t.Fatal("no epoch published")
	}
	after, err := pinned.Query(3, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "pinned epoch drifted", after, before)
	// And the pinned epoch still matches a rebuild of its own frozen state.
	checkAgainstFreshIndex(t, "pinned", pinned, beforeCSR, 2)
}

// Interleaved mutate/query under the race detector: writers apply batches
// while readers pin epochs, verify stability, and exercise read-your-writes
// via WaitEpoch.
func TestInterleavedMutateQuery(t *testing.T) {
	g0 := seedGraph(13)
	lg, err := FromCSR(context.Background(), g0, 2)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	report := func(err error) {
		select {
		case errs <- err:
		default:
		}
	}

	// Writer: random batches as fast as they apply, each recorded once it is
	// acknowledged.
	var acked [][]Mutation
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(99))
		n := int32(lg.NumVertices())
		for i := 0; i < 60; i++ {
			var muts []Mutation
			for j := 0; j < 8; j++ {
				u, v := rng.Int31n(n), rng.Int31n(n)
				if u == v {
					continue
				}
				if rng.Intn(3) == 0 {
					muts = append(muts, Mutation{Op: OpDelete, U: u, V: v})
				} else {
					muts = append(muts, Mutation{Op: OpAdd, U: u, V: v, W: 0.25 + rng.Float32()})
				}
			}
			ep, _, err := lg.Apply(muts)
			if err != nil {
				report(err)
				return
			}
			acked = append(acked, muts)
			// Read-your-writes: the returned token must satisfy WaitEpoch
			// immediately.
			got, err := lg.WaitEpoch(ctx, ep.Seq())
			if err != nil {
				report(err)
				return
			}
			if got.Seq() < ep.Seq() {
				report(fmt.Errorf("WaitEpoch(%d) returned epoch %d", ep.Seq(), got.Seq()))
				return
			}
		}
	}()

	// Readers: pin an epoch, query it twice around a sleep, demand identical
	// bytes.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				ep := lg.Epoch()
				mu := 2 + (r+i)%3
				a, err := ep.Query(mu, 0.45)
				if err != nil {
					report(err)
					return
				}
				time.Sleep(time.Millisecond)
				b, err := ep.Query(mu, 0.45)
				if err != nil {
					report(err)
					return
				}
				for v := 0; v < a.N(); v++ {
					if a.Roles[v] != b.Roles[v] || a.Labels[v] != b.Labels[v] {
						report(fmt.Errorf("epoch %d unstable at vertex %d", ep.Seq(), v))
						return
					}
				}
			}
		}(r)
	}
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	// Replay the acknowledged batches onto the original graph: must reproduce
	// the final epoch exactly.
	replay := newRefGraph(g0)
	for _, muts := range acked {
		replay.apply(muts)
	}
	checkAgainstFreshIndex(t, "acknowledged replay", lg.Epoch(), replay.toCSR(t), 2)
}

func TestWaitEpochDeadline(t *testing.T) {
	g0 := seedGraph(21)
	lg, err := FromCSR(context.Background(), g0, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := lg.WaitEpoch(ctx, 5); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("WaitEpoch = %v, want deadline", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("WaitEpoch did not respect the deadline")
	}
	if lag := lg.Lag(); lag != 5 {
		t.Fatalf("lag %d, want 5", lag)
	}
	// Publishing catches up: lag drains to zero once epochs reach demand.
	n := int32(lg.NumVertices())
	for i := int64(0); i < 5; i++ {
		u := int32(i) % n
		v := (u + 1 + int32(i)) % n
		if u == v {
			v = (v + 1) % n
		}
		w := 2 + float32(i)
		if _, _, err := lg.Apply([]Mutation{{Op: OpAdd, U: u, V: v, W: w}}); err != nil {
			t.Fatal(err)
		}
	}
	if lg.Epoch().Seq() != 5 {
		t.Fatalf("epoch %d after 5 applies", lg.Epoch().Seq())
	}
	if lag := lg.Lag(); lag != 0 {
		t.Fatalf("lag %d after catch-up", lag)
	}
	if _, err := lg.WaitEpoch(context.Background(), 3); err != nil {
		t.Fatal(err)
	}
}

func TestToCSRRoundTrip(t *testing.T) {
	g0 := seedGraph(31)
	lg, err := FromCSR(context.Background(), g0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := lg.Apply([]Mutation{{Op: OpAdd, U: 0, V: 1, W: 0.5}}); err != nil {
		t.Fatal(err)
	}
	g, err := lg.Epoch().ToCSR()
	if err != nil {
		t.Fatal(err)
	}
	if g.EdgeWeight(0, 1) != 0.5 {
		t.Fatalf("round-trip weight %v", g.EdgeWeight(0, 1))
	}
	if g.NumEdges() != lg.Epoch().NumEdges() {
		t.Fatalf("edges %d != %d", g.NumEdges(), lg.Epoch().NumEdges())
	}
}

// TestFromIndexCompressedBackendFallsBack promotes an index built over the
// read-only compressed backend: FromIndex must decompress to a mutable copy
// (logging a warning) rather than alias read-only storage, and the promoted
// graph must behave exactly like one promoted from the flat CSR.
func TestFromIndexCompressedBackendFallsBack(t *testing.T) {
	g0 := seedGraph(47)
	xFlat := index.Build(g0, 2)
	xComp := index.Build(graph.Compress(g0), 2)

	var buf strings.Builder
	lg := FromIndexLogger(xComp, slog.New(slog.NewTextHandler(&buf, nil)))
	if !strings.Contains(buf.String(), "read-only") {
		t.Fatalf("promotion from a compressed backend logged no warning, got: %q", buf.String())
	}
	want := FromIndex(xFlat)

	muts := []Mutation{
		{Op: OpAdd, U: 0, V: 1, W: 0.5},
		{Op: OpDelete, U: 2, V: 3},
		{Op: OpAdd, U: 5, V: 100, W: 1.25},
	}
	ep, _, err := lg.Apply(muts)
	if err != nil {
		t.Fatalf("mutating a compressed-promoted graph: %v", err)
	}
	wantEp, _, err := want.Apply(muts)
	if err != nil {
		t.Fatal(err)
	}
	gotCSR, err := ep.ToCSR()
	if err != nil {
		t.Fatal(err)
	}
	wantCSR, err := wantEp.ToCSR()
	if err != nil {
		t.Fatal(err)
	}
	if graph.FingerprintOf(gotCSR) != graph.FingerprintOf(wantCSR) {
		t.Fatal("compressed-promoted mutation result differs from flat-promoted")
	}
}
