package live

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"anyscan/internal/cluster"
	"anyscan/internal/graph"
	"anyscan/internal/testutil"
)

// These tests check live epochs against cluster.Reference, the brute-force
// definition of SCAN, label for label. Epoch.Query and index.Query share one
// replay kernel, so the epoch-vs-fresh-index suites in live_test.go no
// longer check that kernel independently; these do.

// checkAgainstReference demands that the epoch's clustering at (μ, ε) equal
// the reference clustering of the epoch's own graph, label for label.
func checkAgainstReference(t *testing.T, tag string, e *Epoch, mu int, eps float64) {
	t.Helper()
	g, err := e.ToCSR()
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.Query(mu, eps)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, fmt.Sprintf("%s (epoch %d, mu=%d eps=%v)", tag, e.Seq(), mu, eps), got, cluster.Reference(g, mu, eps))
}

// checkGridAgainstReference runs checkAgainstReference over a (μ, ε) grid
// wide enough that some borders are claimed by cores of different clusters.
func checkGridAgainstReference(t *testing.T, tag string, e *Epoch) {
	t.Helper()
	for _, mu := range []int{2, 3, 5} {
		for _, eps := range []float64{0.3, 0.5, 0.7} {
			checkAgainstReference(t, tag, e, mu, eps)
		}
	}
}

// mustFromCSR promotes g to a live graph (one σ pass, one worker).
func mustFromCSR(t *testing.T, g *graph.CSR) *Graph {
	t.Helper()
	lg, err := FromCSR(context.Background(), g, 1)
	if err != nil {
		t.Fatal(err)
	}
	return lg
}

// edgeless returns a live graph over n isolated vertices.
func edgeless(t *testing.T, n int) *Graph {
	t.Helper()
	var b graph.Builder
	b.SetNumVertices(n)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return mustFromCSR(t, g)
}

// applyOne applies m as a batch of its own.
func applyOne(t *testing.T, lg *Graph, m Mutation) ApplyStats {
	t.Helper()
	_, st, err := lg.Apply([]Mutation{m})
	if err != nil {
		t.Fatalf("apply %+v: %v", m, err)
	}
	return st
}

// TestIncrementalInsertions builds the karate club from an edgeless graph,
// one single-edge batch per edge, checking the epochs on the way.
func TestIncrementalInsertions(t *testing.T) {
	g := testutil.Karate()
	lg := edgeless(t, g.NumVertices())
	added := 0
	for v := int32(0); v < int32(g.NumVertices()); v++ {
		nb, wts := g.Neighbors(v)
		for i, q := range nb {
			if v >= q {
				continue
			}
			if st := applyOne(t, lg, Mutation{Op: OpAdd, U: v, V: q, W: wts[i]}); st.Applied != 1 {
				t.Fatalf("add (%d,%d) applied %d changes", v, q, st.Applied)
			}
			if added++; added%13 == 0 {
				checkAgainstReference(t, "karate", lg.Epoch(), 3, 0.5)
			}
		}
	}
	checkAgainstReference(t, "karate", lg.Epoch(), 3, 0.5)
	if e := lg.Epoch(); e.NumEdges() != g.NumEdges() || e.Seq() != int64(added) {
		t.Fatalf("edges %d at epoch %d, want %d at epoch %d", e.NumEdges(), e.Seq(), g.NumEdges(), added)
	}
}

func TestIncrementalDeletions(t *testing.T) {
	lg := mustFromCSR(t, testutil.TwoTriangles())
	clusters := func() int {
		res, err := lg.Epoch().Query(3, 0.6)
		if err != nil {
			t.Fatal(err)
		}
		return res.NumClusters
	}
	if c := clusters(); c != 2 {
		t.Fatalf("initial clusters = %d, want 2", c)
	}
	// Break triangle A: {0,1,2} loses the (0,1) edge → its cores collapse.
	if st := applyOne(t, lg, Mutation{Op: OpDelete, U: 0, V: 1}); st.Applied != 1 {
		t.Fatalf("delete (0,1) applied %d changes", st.Applied)
	}
	checkAgainstReference(t, "after delete", lg.Epoch(), 3, 0.6)
	// Deleting an absent edge is a no-op and publishes nothing.
	before := lg.Epoch()
	if st := applyOne(t, lg, Mutation{Op: OpDelete, U: 0, V: 1}); st.Applied != 0 || lg.Epoch() != before {
		t.Fatal("double delete changed the graph")
	}
	// Restore it: the clustering must return to the original.
	applyOne(t, lg, Mutation{Op: OpAdd, U: 0, V: 1, W: 1})
	checkAgainstReference(t, "after restore", lg.Epoch(), 3, 0.6)
	if c := clusters(); c != 2 {
		t.Fatalf("clusters after restore = %d, want 2", c)
	}
}

// TestRandomChurn interleaves single-mutation inserts, deletes and weight
// updates on an initially edgeless graph, checking against the reference
// every 50 steps.
func TestRandomChurn(t *testing.T) {
	for _, seed := range []int64{1, 7} {
		rng := rand.New(rand.NewSource(seed))
		const n = 60
		lg := edgeless(t, n)
		type edge struct{ u, v int32 }
		var present []edge
		for step := 0; step < 400; step++ {
			op := rng.Intn(10)
			switch {
			case op < 6 || len(present) == 0: // insert (or update weight)
				u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
				if u == v {
					continue
				}
				existed := lg.Epoch().EdgeWeight(u, v) != 0
				applyOne(t, lg, Mutation{Op: OpAdd, U: u, V: v, W: 0.5 + rng.Float32()})
				if !existed {
					present = append(present, edge{u, v})
				}
			case op < 9: // delete
				i := rng.Intn(len(present))
				e := present[i]
				if st := applyOne(t, lg, Mutation{Op: OpDelete, U: e.u, V: e.v}); st.Applied != 1 {
					t.Fatalf("seed %d step %d: delete (%d,%d) applied %d changes", seed, step, e.u, e.v, st.Applied)
				}
				present[i] = present[len(present)-1]
				present = present[:len(present)-1]
			default: // weight update on an existing edge
				e := present[rng.Intn(len(present))]
				applyOne(t, lg, Mutation{Op: OpReweight, U: e.u, V: e.v, W: 0.5 + rng.Float32()})
			}
			if step%50 == 49 {
				checkAgainstReference(t, fmt.Sprintf("seed %d step %d", seed, step), lg.Epoch(), 3, 0.45)
			}
		}
		checkAgainstReference(t, fmt.Sprintf("seed %d", seed), lg.Epoch(), 3, 0.45)
		checkGridAgainstReference(t, fmt.Sprintf("seed %d", seed), lg.Epoch())
	}
}

// TestRejectsInvalidInput covers the query parameter checks and the
// delete-side mutation checks; TestApplySemantics covers the insert side.
func TestRejectsInvalidInput(t *testing.T) {
	lg := mustFromCSR(t, testutil.TwoTriangles())
	e := lg.Epoch()
	for _, q := range []struct {
		mu  int
		eps float64
	}{{0, 0.5}, {2, 0}, {2, 1.5}, {2, math.NaN()}} {
		if _, err := e.Query(q.mu, q.eps); err == nil {
			t.Errorf("Query(%d, %v) accepted", q.mu, q.eps)
		}
	}
	for _, m := range []Mutation{
		{Op: OpDelete, U: 2, V: 2},
		{Op: OpDelete, U: -1, V: 0},
		{Op: OpDelete, U: 0, V: 8},
		{Op: OpReweight, U: 1, V: 1, W: 1},
	} {
		if _, _, err := lg.Apply([]Mutation{m}); err == nil {
			t.Errorf("mutation %+v accepted", m)
		}
	}
	if lg.Epoch() != e {
		t.Fatal("rejected mutations published an epoch")
	}
}

// TestWeightValidationErrors: every non-finite or non-positive weight is an
// explicit error naming the problem, whether it would insert an edge or
// update an existing one, and leaves the graph untouched.
func TestWeightValidationErrors(t *testing.T) {
	lg := mustFromCSR(t, testutil.TwoTriangles())
	e := lg.Epoch()
	cases := []struct {
		w    float32
		want string
	}{
		{float32(math.NaN()), "weight is NaN"},
		{float32(math.Inf(1)), "weight is infinite"},
		{float32(math.Inf(-1)), "weight is infinite"},
		{0, "not positive"},
		{-3, "not positive"},
	}
	for _, tc := range cases {
		for _, m := range []Mutation{
			{Op: OpAdd, U: 0, V: 3, W: tc.w},      // new edge
			{Op: OpAdd, U: 0, V: 1, W: tc.w},      // update of an existing edge
			{Op: OpReweight, U: 0, V: 1, W: tc.w}, // the same through reweight
		} {
			_, _, err := lg.Apply([]Mutation{m})
			if err == nil {
				t.Fatalf("mutation %+v accepted", m)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("mutation %+v: error %q, want substring %q", m, err, tc.want)
			}
		}
	}
	if lg.Epoch() != e || e.EdgeWeight(0, 1) != 1 || e.EdgeWeight(0, 3) != 0 {
		t.Fatal("rejected mutations changed the graph")
	}
}

// TestApplyBatch: a batch reaches exactly the state of the same mutations
// applied one batch each, and recomputes a shared endpoint's σ star once
// rather than once per mutation.
func TestApplyBatch(t *testing.T) {
	tc := testutil.RandomCases(5)[0]
	rng := rand.New(rand.NewSource(11))
	n := int32(tc.G.NumVertices())
	mkBatch := func() []Mutation {
		muts := make([]Mutation, 0, 24)
		for i := 0; i < 24; i++ {
			u, v := rng.Int31n(n), rng.Int31n(n)
			if u == v {
				continue
			}
			if rng.Intn(3) == 0 {
				muts = append(muts, Mutation{Op: OpDelete, U: u, V: v})
			} else {
				muts = append(muts, Mutation{Op: OpAdd, U: u, V: v, W: 0.5 + rng.Float32()})
			}
		}
		return muts
	}

	batched, looped := mustFromCSR(t, tc.G), mustFromCSR(t, tc.G)
	for round := 0; round < 6; round++ {
		muts := mkBatch()
		if _, _, err := batched.Apply(muts); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		for _, m := range muts {
			applyOne(t, looped, m)
		}
		be, le := batched.Epoch(), looped.Epoch()
		if be.NumEdges() != le.NumEdges() {
			t.Fatalf("round %d: edges %d vs %d", round, be.NumEdges(), le.NumEdges())
		}
		bres, err := be.Query(tc.Mu, tc.Eps)
		if err != nil {
			t.Fatal(err)
		}
		lres, err := le.Query(tc.Mu, tc.Eps)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, fmt.Sprintf("round %d: batched vs one at a time", round), bres, lres)
		checkAgainstReference(t, fmt.Sprintf("round %d", round), be, tc.Mu, tc.Eps)
	}

	// Locality: k mutations sharing one endpoint recompute that star once in
	// a batch, so the batch must cost strictly fewer σ than k single batches.
	var muts []Mutation
	for q := int32(1); q <= 12; q++ {
		muts = append(muts, Mutation{Op: OpAdd, U: 0, V: q % n, W: 2})
	}
	_, st, err := mustFromCSR(t, tc.G).Apply(muts)
	if err != nil {
		t.Fatal(err)
	}
	one := mustFromCSR(t, tc.G)
	var loop int64
	for _, m := range muts {
		loop += applyOne(t, one, m).SigmaRecomputed
	}
	if st.SigmaRecomputed >= loop {
		t.Fatalf("batched σ work %d not below one-at-a-time %d", st.SigmaRecomputed, loop)
	}
}

// TestMaintenanceIsLocal: a single-edge batch recomputes σ only for the
// arcs of the two endpoint stars — at most deg(u)+deg(v)+1 — never for the
// rest of the graph.
func TestMaintenanceIsLocal(t *testing.T) {
	tc := testutil.RandomCases(1)[0]
	lg := mustFromCSR(t, tc.G)
	rng := rand.New(rand.NewSource(3))
	n := int32(tc.G.NumVertices())
	for i := 0; i < 50; i++ {
		u, v := rng.Int31n(n), rng.Int31n(n)
		if u == v {
			continue
		}
		e := lg.Epoch()
		du, dv := e.Degree(u), e.Degree(v)
		st := applyOne(t, lg, Mutation{Op: OpAdd, U: u, V: v, W: 1})
		if st.Applied == 0 {
			continue
		}
		if bound := int64(du + dv + 1); st.SigmaRecomputed > bound {
			t.Fatalf("mutation (%d,%d) recomputed %d σ, bound %d (deg %d+%d)", u, v, st.SigmaRecomputed, bound, du, dv)
		}
		applyOne(t, lg, Mutation{Op: OpDelete, U: u, V: v})
	}
}
