package graph

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
)

// randomCSR builds a random graph: n vertices, ~avgDeg average degree,
// optionally unit weights.
func randomCSR(t *testing.T, rng *rand.Rand, n int, avgDeg float64, unitWeights bool) *CSR {
	t.Helper()
	var b Builder
	b.SetNumVertices(n)
	edges := int(float64(n) * avgDeg / 2)
	for i := 0; i < edges; i++ {
		u := rng.Int31n(int32(n))
		v := rng.Int31n(int32(n))
		if u == v {
			continue
		}
		w := float32(1)
		if !unitWeights {
			w = 0.5 + rng.Float32()
		}
		b.AddEdge(u, v, w)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatalf("building random graph: %v", err)
	}
	return g
}

// TestCompressedRoundTrip is the property test of the issue: for any
// generated CSR, Compress produces an isomorphic graph — per-vertex neighbor
// and weight equality, identical arc indexing, bit-identical norms, the same
// UnitWeights answer (the compressed one from its flag) — and Decompress
// inverts it exactly.
func TestCompressedRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	cases := []struct {
		n      int
		avgDeg float64
		unit   bool
	}{
		{1, 0, true}, {2, 1, false}, {50, 4, true}, {50, 4, false},
		{300, 12, false}, {300, 30, true}, {1000, 8, false}, {97, 96, false},
	}
	for _, tc := range cases {
		g := randomCSR(t, rng, tc.n, tc.avgDeg, tc.unit)
		c := Compress(g)
		if err := c.Validate(); err != nil {
			t.Fatalf("n=%d unit=%v: Validate: %v", tc.n, tc.unit, err)
		}
		assertEquivalentBackends(t, g, c)
		back := c.Decompress()
		if err := back.Validate(); err != nil {
			t.Fatalf("n=%d: decompressed Validate: %v", tc.n, err)
		}
		assertEquivalentBackends(t, g, back)
		if FingerprintOf(g) != FingerprintOf(c) {
			t.Fatalf("n=%d: fingerprint differs between CSR and compressed form", tc.n)
		}
		unit := true
		for _, w := range g.weights {
			unit = unit && w == 1
		}
		for _, b := range []Graph{g, c, back} {
			if UnitWeights(b) != unit {
				t.Fatalf("n=%d unit=%v: UnitWeights(%T) = %v", tc.n, tc.unit, b, !unit)
			}
		}
	}
}

// assertEquivalentBackends checks structural and numeric identity of two backends.
func assertEquivalentBackends(t *testing.T, want *CSR, got Graph) {
	t.Helper()
	if got.NumVertices() != want.NumVertices() || got.NumEdges() != want.NumEdges() || got.NumArcs() != want.NumArcs() {
		t.Fatalf("size mismatch: got (%d,%d,%d) want (%d,%d,%d)",
			got.NumVertices(), got.NumEdges(), got.NumArcs(),
			want.NumVertices(), want.NumEdges(), want.NumArcs())
	}
	cur := NewCursor(got)
	for v := int32(0); v < int32(want.NumVertices()); v++ {
		wn, ww := want.Neighbors(v)
		gn, gw := got.Neighbors(v)
		if !reflect.DeepEqual(append([]int32{}, wn...), append([]int32{}, gn...)) {
			t.Fatalf("vertex %d: neighbors differ: got %v want %v", v, gn, wn)
		}
		for i := range ww {
			if ww[i] != gw[i] {
				t.Fatalf("vertex %d arc %d: weight %v != %v", v, i, gw[i], ww[i])
			}
		}
		cn, cw := cur.Neighbors(v)
		if !reflect.DeepEqual(append([]int32{}, wn...), append([]int32{}, cn...)) {
			t.Fatalf("vertex %d: cursor neighbors differ", v)
		}
		for i := range ww {
			if ww[i] != cw[i] {
				t.Fatalf("vertex %d arc %d: cursor weight differs", v, i)
			}
		}
		i := 0
		full := got.EachNeighbor(v, func(j int, u int32, w float32) bool {
			if j != i {
				t.Fatalf("vertex %d: EachNeighbor index %d, want %d", v, j, i)
			}
			if u != wn[i] || w != ww[i] {
				t.Fatalf("vertex %d pos %d: EachNeighbor (%d,%v), want (%d,%v)", v, i, u, w, wn[i], ww[i])
			}
			i++
			return true
		})
		if !full || i != len(wn) {
			t.Fatalf("vertex %d: EachNeighbor visited %d of %d", v, i, len(wn))
		}
		wlo, whi := want.NeighborRange(v)
		glo, ghi := got.NeighborRange(v)
		if wlo != glo || whi != ghi {
			t.Fatalf("vertex %d: NeighborRange (%d,%d) != (%d,%d)", v, glo, ghi, wlo, whi)
		}
		if got.Degree(v) != want.Degree(v) {
			t.Fatalf("vertex %d: degree mismatch", v)
		}
		if got.Norm(v) != want.Norm(v) || got.SqrtNorm(v) != want.SqrtNorm(v) || got.MaxWeight(v) != want.MaxWeight(v) {
			t.Fatalf("vertex %d: derived quantities differ", v)
		}
	}
	// Spot-check edge queries, present and absent.
	n := int32(want.NumVertices())
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		u, v := rng.Int31n(n), rng.Int31n(n)
		if got.HasEdge(u, v) != want.HasEdge(u, v) {
			t.Fatalf("HasEdge(%d,%d) disagrees", u, v)
		}
		if got.EdgeWeight(u, v) != want.EdgeWeight(u, v) {
			t.Fatalf("EdgeWeight(%d,%d) disagrees", u, v)
		}
	}
}

// TestCompressedEarlyExit checks EachNeighbor's early-termination contract.
func TestCompressedEarlyExit(t *testing.T) {
	g := randomCSR(t, rand.New(rand.NewSource(3)), 100, 10, false)
	c := Compress(g)
	for v := int32(0); v < 100; v++ {
		if c.Degree(v) < 2 {
			continue
		}
		seen := 0
		full := c.EachNeighbor(v, func(i int, _ int32, _ float32) bool {
			seen++
			return i < 0 // stop immediately after the first neighbor
		})
		if full || seen != 1 {
			t.Fatalf("vertex %d: early exit visited %d (full=%v)", v, seen, full)
		}
	}
}

// TestPropagateMirrors fills canonical arc slots with unique values and
// checks every mirror slot receives its pair's value, on both backends.
func TestPropagateMirrors(t *testing.T) {
	g := randomCSR(t, rand.New(rand.NewSource(9)), 200, 14, false)
	for _, backend := range []Graph{g, Compress(g)} {
		vals := make([]float64, g.NumArcs())
		for p := int32(0); p < 200; p++ {
			lo, _ := backend.NeighborRange(p)
			backend.EachNeighbor(p, func(i int, q int32, _ float32) bool {
				if q > p {
					vals[lo+int64(i)] = float64(p)*1e6 + float64(q)
				}
				return true
			})
		}
		PropagateMirrors(backend, vals)
		rev := g.ReverseEdgeIndex()
		for e := range vals {
			if vals[e] != vals[rev[e]] {
				t.Fatalf("arc %d: mirror not propagated (%v != %v)", e, vals[e], vals[rev[e]])
			}
		}
	}
}

// TestCompressedSizeRatio documents that delta encoding actually shrinks a
// relabeled graph (the claim the backend exists for).
func TestCompressedSizeRatio(t *testing.T) {
	g := randomCSR(t, rand.New(rand.NewSource(11)), 2000, 20, true)
	rel, _ := RelabelByDegree(g)
	c := Compress(rel)
	if r := float64(c.Bytes()) / float64(rel.Bytes()); r > 0.8 {
		t.Fatalf("compressed/raw ratio %.2f, expected < 0.8", r)
	}
}

func TestCompressedStreamRoundTrip(t *testing.T) {
	g := randomCSR(t, rand.New(rand.NewSource(5)), 400, 9, false)
	c := Compress(g)
	var buf bytes.Buffer
	if err := c.WriteCompressed(&buf); err != nil {
		t.Fatalf("WriteCompressed: %v", err)
	}
	back, err := ReadCompressed(&buf)
	if err != nil {
		t.Fatalf("ReadCompressed: %v", err)
	}
	if err := back.Validate(); err != nil {
		t.Fatalf("Validate after stream round trip: %v", err)
	}
	assertEquivalentBackends(t, g, back)
}

// TestCompressedValidateRejectsInvalidLists pins two lists the check
// before the cursor walk accepted. In the first, arcs 0→2 and 1→2 have no
// reverse, and each runs from the end of lower degree: a lookup in the
// shorter list finds the arc itself. In the second, vertex 0's list
// decodes to 2 then 1, a gap that wraps below the id before it.
func TestCompressedValidateRejectsInvalidLists(t *testing.T) {
	for _, tc := range []struct {
		name      string
		offsets   []int64
		neighbors []int32
	}{
		{"missing reverse from the lower degree", []int64{0, 2, 4, 7, 8, 9, 10}, []int32{1, 2, 0, 2, 3, 4, 5, 2, 2, 2}},
		{"descending ids", []int64{0, 2, 3, 4}, []int32{2, 1, 0, 0}},
	} {
		c := compressArrays(&CSR{offsets: tc.offsets, neighbors: tc.neighbors})
		if err := c.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %v over %v", tc.name, tc.neighbors, tc.offsets)
		}
		if err := validateByLookup(c); err == nil {
			t.Errorf("%s: the per-arc reference accepted %v over %v", tc.name, tc.neighbors, tc.offsets)
		}
	}
}
