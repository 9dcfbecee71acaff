package graph

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func buildTriangle(t *testing.T) *CSR {
	t.Helper()
	g, err := FromUnweightedEdges(3, [][2]int32{{0, 1}, {1, 2}, {0, 2}})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestBuilderBasics(t *testing.T) {
	var b Builder
	b.AddEdge(0, 1, 2)
	b.AddEdge(1, 0, 7) // reversed duplicate: first weight wins
	b.AddEdge(1, 1, 1) // self loop: dropped
	b.AddEdge(2, 1, 0) // non-positive weight: clamped to 1
	b.SetNumVertices(5)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 5 {
		t.Errorf("NumVertices = %d, want 5", g.NumVertices())
	}
	if g.NumEdges() != 2 {
		t.Errorf("NumEdges = %d, want 2", g.NumEdges())
	}
	if w := g.EdgeWeight(0, 1); w != 2 {
		t.Errorf("weight(0,1) = %v, want 2 (first weight wins)", w)
	}
	if w := g.EdgeWeight(1, 2); w != 1 {
		t.Errorf("weight(1,2) = %v, want 1 (clamped)", w)
	}
	if g.HasEdge(1, 1) {
		t.Errorf("self loop survived")
	}
	if g.Degree(3) != 0 || g.Degree(4) != 0 {
		t.Errorf("isolated vertices should have degree 0")
	}
	if err := g.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestBuilderEmpty(t *testing.T) {
	var b Builder
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 0 || g.NumEdges() != 0 {
		t.Errorf("empty build: V=%d E=%d", g.NumVertices(), g.NumEdges())
	}
}

func TestBuilderNegativeID(t *testing.T) {
	var b Builder
	b.AddEdge(-1, 2, 1)
	if _, err := b.Build(); err == nil {
		t.Fatal("want error for negative vertex id")
	}
}

func TestNorms(t *testing.T) {
	g, err := FromEdges(3, [][3]float64{{0, 1, 2}, {0, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	// l_0 = 1 (self) + 4 + 9 = 14
	if got := g.Norm(0); got != 14 {
		t.Errorf("Norm(0) = %v, want 14", got)
	}
	if got := g.MaxWeight(0); got != 3 {
		t.Errorf("MaxWeight(0) = %v, want 3", got)
	}
	// l_1 = 1 + 4 = 5
	if got := g.Norm(1); got != 5 {
		t.Errorf("Norm(1) = %v, want 5", got)
	}
	if got := g.MaxWeight(1); got != 2 {
		t.Errorf("MaxWeight(1) = %v, want 2", got)
	}
}

func TestReverseEdgeIndex(t *testing.T) {
	g := randomGraph(200, 1000, 42)
	rev := g.ReverseEdgeIndex()
	for v := int32(0); v < int32(g.NumVertices()); v++ {
		lo, hi := g.NeighborRange(v)
		for e := lo; e < hi; e++ {
			q, w := g.Arc(e)
			r := rev[e]
			head, wr := g.Arc(r)
			if head != v {
				t.Fatalf("rev arc of %d→%d points to %d", v, q, head)
			}
			if wr != w {
				t.Fatalf("rev arc weight mismatch")
			}
			if rev[r] != e {
				t.Fatalf("rev not involutive at arc %d", e)
			}
		}
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	g := randomGraphWeighted(100, 400, 7)
	var buf bytes.Buffer
	if err := g.WriteEdgeList(&buf); err != nil {
		t.Fatal(err)
	}
	g2, _, err := LoadEdgeList(&buf, LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	assertSameGraph(t, g, g2)
}

func TestBinaryRoundTrip(t *testing.T) {
	g := randomGraphWeighted(150, 700, 11)
	var buf bytes.Buffer
	if err := g.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertSameGraph(t, g, g2)
}

// TestUnitWeightGraphKeepsNoWeightArray: every way to make a flat CSR
// drops the weight array when all weights are 1 and keeps it otherwise;
// the run of 1s handed out in its place cannot be written through by an
// append; and the files written are the ones an explicit array of 1s gives.
func TestUnitWeightGraphKeepsNoWeightArray(t *testing.T) {
	g := randomGraph(200, 800, 3)
	relabeled, _ := RelabelByDegree(g)
	var bin, text bytes.Buffer
	if err := g.WriteBinary(&bin); err != nil {
		t.Fatal(err)
	}
	if err := g.WriteEdgeList(&text); err != nil {
		t.Fatal(err)
	}
	fromBin, err := ReadBinary(bytes.NewReader(bin.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	fromText, _, err := LoadEdgeList(bytes.NewReader(text.Bytes()), LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for name, u := range map[string]*CSR{
		"built": g, "relabeled": relabeled, "decompressed": Compress(g).Decompress(),
		"binary": fromBin, "edge list": fromText, "empty": empty(),
	} {
		if u.weights != nil || !UnitWeights(u) {
			t.Fatalf("%s: weight array kept (%d) or UnitWeights false", name, len(u.weights))
		}
		if err := u.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for v := int32(0); v < int32(u.NumVertices()); v++ {
			adj, w := u.Neighbors(v)
			if len(w) != len(adj) || cap(w) != len(w) {
				t.Fatalf("%s: vertex %d: %d weights with capacity %d for %d neighbors", name, v, len(w), cap(w), len(adj))
			}
			_ = append(w, 2) // must reallocate, not write the shared run
			for i, x := range w {
				if x != 1 {
					t.Fatalf("%s: vertex %d: weight %d is %v", name, v, i, x)
				}
			}
			if len(adj) > 0 {
				if _, aw := u.Arc(int64(u.offsets[v])); aw != 1 || u.EdgeWeight(v, adj[0]) != 1 {
					t.Fatalf("%s: vertex %d: Arc or EdgeWeight is not 1", name, v)
				}
			}
		}
		for i, x := range u.ones {
			if x != 1 {
				t.Fatalf("%s: an append wrote %v into the shared run at %d", name, x, i)
			}
		}
	}
	if wg := randomGraphWeighted(50, 200, 3); wg.weights == nil || UnitWeights(wg) {
		t.Fatal("a weighted graph dropped its weights")
	}
	explicit := &CSR{offsets: g.offsets, neighbors: g.neighbors, weights: make([]float32, len(g.neighbors))}
	for i := range explicit.weights {
		explicit.weights[i] = 1
	}
	var ebin, etext bytes.Buffer
	if err := explicit.WriteBinary(&ebin); err != nil {
		t.Fatal(err)
	}
	if err := explicit.WriteEdgeList(&etext); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bin.Bytes(), ebin.Bytes()) || !bytes.Equal(text.Bytes(), etext.Bytes()) {
		t.Fatal("a unit-weight graph writes different files than one with an explicit array of 1s")
	}
}

func TestBinaryRejectsGarbage(t *testing.T) {
	if _, err := ReadBinary(strings.NewReader("not a graph at all")); err == nil {
		t.Fatal("want error for bad magic")
	}
}

func TestLoadEdgeListParsing(t *testing.T) {
	input := `# comment
% another comment
// yet another
10 20
20 30 2.5

30 10 0.5
`
	g, ids, err := LoadEdgeList(strings.NewReader(input), LoadOptions{Remap: true})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 3 {
		t.Fatalf("want 3 vertices after remap, got %d", g.NumVertices())
	}
	if g.NumEdges() != 3 {
		t.Fatalf("want 3 edges, got %d", g.NumEdges())
	}
	want := []int64{10, 20, 30}
	for i, id := range ids {
		if id != want[i] {
			t.Errorf("ids[%d] = %d, want %d", i, id, want[i])
		}
	}
	// Weighted edge parsed; default weight 1 applied to the first edge.
	if w := g.EdgeWeight(0, 1); w != 1 {
		t.Errorf("default weight = %v, want 1", w)
	}
	if w := g.EdgeWeight(1, 2); w != 2.5 {
		t.Errorf("weight(20,30) = %v, want 2.5", w)
	}
}

func TestLoadEdgeListErrors(t *testing.T) {
	for _, bad := range []string{"1", "a b", "1 b", "1 2 x"} {
		if _, _, err := LoadEdgeList(strings.NewReader(bad), LoadOptions{}); err == nil {
			t.Errorf("input %q: want parse error", bad)
		}
	}
	// Negative ids without remap are rejected.
	if _, _, err := LoadEdgeList(strings.NewReader("-1 2"), LoadOptions{}); err == nil {
		t.Errorf("negative id without Remap: want error")
	}
}

func TestLoadEdgeListRejectsNonFiniteWeights(t *testing.T) {
	// A NaN/Inf/negative weight must fail parsing with the offending line
	// number, not be clamped or poison similarity computations downstream.
	cases := []struct {
		name, input, wantSub string
	}{
		{"nan", "1 2 NaN", "NaN"},
		{"nan-lower", "1 2 nan", "NaN"},
		{"pos-inf", "1 2 +Inf", "infinite"},
		{"neg-inf", "1 2 -Inf", "infinite"},
		{"inf-word", "1 2 Infinity", "infinite"},
		{"negative", "1 2 -0.5", "negative"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := LoadEdgeList(strings.NewReader("0 1 1.0\n"+tc.input+"\n"), LoadOptions{})
			if err == nil {
				t.Fatalf("input %q: want weight error", tc.input)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Errorf("input %q: error %q does not mention %q", tc.input, err, tc.wantSub)
			}
			if !strings.Contains(err.Error(), "line 2") {
				t.Errorf("input %q: error %q does not carry the line number", tc.input, err)
			}
		})
	}
	// Zero and positive weights still load.
	if _, _, err := LoadEdgeList(strings.NewReader("0 1 0\n1 2 3.5\n"), LoadOptions{}); err != nil {
		t.Fatalf("valid weights rejected: %v", err)
	}
}

func TestStatsOnTriangle(t *testing.T) {
	g := buildTriangle(t)
	s := ComputeStats(g)
	if s.Vertices != 3 || s.Edges != 3 {
		t.Fatalf("stats: %+v", s)
	}
	if s.AvgDegree != 2 {
		t.Errorf("AvgDegree = %v, want 2", s.AvgDegree)
	}
	if s.AvgCC != 1 {
		t.Errorf("AvgCC = %v, want 1 (triangle)", s.AvgCC)
	}
	if s.MaxDegree != 2 {
		t.Errorf("MaxDegree = %v, want 2", s.MaxDegree)
	}
}

func TestStatsPathHasNoTriangles(t *testing.T) {
	g, err := FromUnweightedEdges(4, [][2]int32{{0, 1}, {1, 2}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if cc := ComputeStats(g).AvgCC; cc != 0 {
		t.Errorf("path AvgCC = %v, want 0", cc)
	}
}

func TestApproxCCMatchesExactWhenSamplingAll(t *testing.T) {
	g := randomGraph(300, 2500, 3)
	exact := ComputeStats(g).AvgCC
	approx := ApproxAvgCC(g, g.NumVertices(), 1)
	if diff := exact - approx; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("full-sample approx %v != exact %v", approx, exact)
	}
}

func TestConnectedComponents(t *testing.T) {
	g, err := FromUnweightedEdges(7, [][2]int32{{0, 1}, {1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	n, labels := ConnectedComponents(g)
	if n != 4 { // {0,1,2}, {3,4}, {5}, {6}
		t.Fatalf("components = %d, want 4", n)
	}
	if labels[0] != labels[1] || labels[1] != labels[2] {
		t.Errorf("component of 0,1,2 split: %v", labels[:3])
	}
	if labels[3] != labels[4] {
		t.Errorf("component of 3,4 split")
	}
	if labels[5] == labels[6] || labels[5] == labels[0] {
		t.Errorf("isolated vertices mislabeled: %v", labels)
	}
}

func TestDegreeHistogram(t *testing.T) {
	g := buildTriangle(t)
	h := DegreeHistogram(g)
	if len(h) != 3 || h[2] != 3 {
		t.Fatalf("histogram = %v, want [0 0 3]", h)
	}
}

// Property: any graph built from random edges passes Validate, and its CSR
// invariants (sorted adjacency, weight symmetry) hold.
func TestBuilderPropertyValid(t *testing.T) {
	f := func(seed int64, nSmall uint8, mSmall uint16) bool {
		n := int(nSmall)%100 + 2
		m := int(mSmall) % 500
		g := randomGraphWeighted(n, m, seed)
		return g.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: degrees sum to twice the edge count.
func TestDegreeSumProperty(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(80, 300, seed)
		var sum int64
		for v := 0; v < g.NumVertices(); v++ {
			sum += int64(g.Degree(int32(v)))
		}
		return sum == 2*g.NumEdges() && sum == g.NumArcs()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func randomGraph(n, m int, seed int64) *CSR {
	rng := rand.New(rand.NewSource(seed))
	var b Builder
	b.SetNumVertices(n)
	for i := 0; i < m; i++ {
		b.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)), 1)
	}
	return b.MustBuild()
}

func randomGraphWeighted(n, m int, seed int64) *CSR {
	rng := rand.New(rand.NewSource(seed))
	var b Builder
	b.SetNumVertices(n)
	for i := 0; i < m; i++ {
		b.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)), 0.5+rng.Float32())
	}
	return b.MustBuild()
}

func assertSameGraph(t *testing.T, a, b *CSR) {
	t.Helper()
	if a.NumVertices() != b.NumVertices() {
		t.Fatalf("vertex count %d != %d", a.NumVertices(), b.NumVertices())
	}
	if a.NumEdges() != b.NumEdges() {
		t.Fatalf("edge count %d != %d", a.NumEdges(), b.NumEdges())
	}
	for v := int32(0); v < int32(a.NumVertices()); v++ {
		aAdj, aW := a.Neighbors(v)
		bAdj, bW := b.Neighbors(v)
		if len(aAdj) != len(bAdj) {
			t.Fatalf("vertex %d degree %d != %d", v, len(aAdj), len(bAdj))
		}
		for i := range aAdj {
			if aAdj[i] != bAdj[i] {
				t.Fatalf("vertex %d neighbor %d: %d != %d", v, i, aAdj[i], bAdj[i])
			}
			diff := float64(aW[i]) - float64(bW[i])
			if diff > 1e-4 || diff < -1e-4 {
				t.Fatalf("vertex %d weight %d: %v != %v", v, i, aW[i], bW[i])
			}
		}
	}
}

func TestInducedSubgraph(t *testing.T) {
	g, err := FromEdges(6, [][3]float64{
		{0, 1, 2}, {1, 2, 1}, {2, 3, 1}, {4, 5, 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	sub, orig, err := InducedSubgraph(g, []int32{2, 0, 1, 2, 99, -1})
	if err != nil {
		t.Fatal(err)
	}
	if sub.NumVertices() != 3 {
		t.Fatalf("V = %d, want 3 (dup and out-of-range dropped)", sub.NumVertices())
	}
	if len(orig) != 3 || orig[0] != 2 || orig[1] != 0 || orig[2] != 1 {
		t.Fatalf("orig = %v", orig)
	}
	// Edges inside {0,1,2}: (0,1) w=2 and (1,2) w=1; (2,3) crosses out.
	if sub.NumEdges() != 2 {
		t.Fatalf("E = %d, want 2", sub.NumEdges())
	}
	// New ids: 2→0, 0→1, 1→2. Edge (0,1) w=2 becomes (1,2); (1,2) w=1 → (2,0).
	if w := sub.EdgeWeight(1, 2); w != 2 {
		t.Fatalf("weight (1,2) = %v, want 2", w)
	}
	if w := sub.EdgeWeight(0, 2); w != 1 {
		t.Fatalf("weight (0,2) = %v, want 1", w)
	}
	if err := sub.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestLargestComponent(t *testing.T) {
	g, err := FromUnweightedEdges(8, [][2]int32{
		{0, 1}, {1, 2}, {2, 0}, // component of 3
		{4, 5}, // component of 2
		// 3, 6, 7 isolated
	})
	if err != nil {
		t.Fatal(err)
	}
	lc, orig, err := LargestComponent(g)
	if err != nil {
		t.Fatal(err)
	}
	if lc.NumVertices() != 3 || lc.NumEdges() != 3 {
		t.Fatalf("largest component V=%d E=%d", lc.NumVertices(), lc.NumEdges())
	}
	want := []int32{0, 1, 2}
	for i, v := range orig {
		if v != want[i] {
			t.Fatalf("orig = %v", orig)
		}
	}
	// Empty graph.
	eg, _ := FromUnweightedEdges(0, nil)
	lc, _, err = LargestComponent(eg)
	if err != nil || lc.NumVertices() != 0 {
		t.Fatalf("empty: %v, V=%d", err, lc.NumVertices())
	}
}

func BenchmarkSimilarityJoin(b *testing.B) {
	g := randomGraphWeighted(2000, 40000, 9)
	// Warm the norms; the join cost is what we measure via HasEdge-ish
	// adjacency intersections through stats' intersectCount path.
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := int32(i % g.NumVertices())
		adj, _ := g.Neighbors(v)
		if len(adj) > 0 {
			_ = localCC(g, v)
		}
	}
}

func BenchmarkReverseEdgeIndex(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g := randomGraph(5000, 50000, int64(i))
		g.ReverseEdgeIndex()
	}
}
