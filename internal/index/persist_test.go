package index

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"testing"

	"anyscan/internal/gen"
	"anyscan/internal/graph"
	"anyscan/internal/simeval"
	"anyscan/internal/testutil"
)

// TestPersistedLayoutOracle ties every persisted value to its arc. The file
// stores σ (and an approximate index's bands) in CSR arc order while the
// index keeps them only in σ-sorted order, so the save path's un-permute is
// checked against independent oracles: an exact index's σ of arc v→q must be
// the crossing of a fresh exact evaluation, an approximate index's σ̂ and
// band must be q's entry in v's sorted order, and Save → Load → Save must
// reproduce the file byte for byte. The exact oracle is the reference merge
// join, simeval.Engine.EdgeNumerator, so it also ties the one exact σ kernel
// to it on unit and weighted graphs. Graphs: the random families; an R-MAT
// with hubs past the sketch size, so the approximate index has sketched
// arcs; shapes that stress the kernel's (degree, id) ranking and common
// neighborhoods (oracleShapes); each on the flat and the compressed backend.
func TestPersistedLayoutOracle(t *testing.T) {
	cases := testutil.RandomCases(1)
	rmat := gen.RMAT(10, 8<<10, 0.57, 0.19, 0.19, gen.WeightConfig{}, 7)
	cases = append(cases, testutil.RandomCase{Name: "rmat-hubs", G: rmat})
	cases = append(cases, oracleShapes(t)...)
	for _, tc := range cases {
		for _, g := range []graph.Graph{tc.G, graph.Compress(tc.G)} {
			name := fmt.Sprintf("%s/%T", tc.Name, g)
			x := Build(g, 2)
			p := savedPayload(t, x)
			eng := simeval.New(g, 0, simeval.Options{})
			eachArc(g, func(v, q int32, w float32, e int64) {
				want := simeval.Crossing(eng.EdgeNumerator(v, q, w))
				if math.Float64bits(p.Sigma[e]) != math.Float64bits(want) {
					t.Fatalf("%s: arc %d (%d→%d) persisted σ %v, exact evaluation %v", name, e, v, q, p.Sigma[e], want)
				}
			})
			checkSortedEntries(t, name, x, p)
			checkResave(t, name, x)

			ax, err := BuildApprox(g, 2, DefaultApproxDelta)
			if err != nil {
				t.Fatal(err)
			}
			if tc.Name == "rmat-hubs" && ax.Approx().Sketched == 0 {
				t.Fatalf("%s: no sketched arcs; the approximate layout is untested", name)
			}
			checkSortedEntries(t, name+"/approx", ax, savedPayload(t, ax))
			checkResave(t, name+"/approx", ax)
		}
	}
}

// oracleShapes returns unit-weight graphs at the extremes of the exact σ
// kernel: a clique (every pair of neighbors common, all degrees tied), a
// star (no common neighbor, one hub), a ring lattice (all degrees equal, so
// id breaks every rank tie), a single edge, isolated vertices with no edge,
// and an R-MAT shaped like perfbench's explore and build graph at 1/8 of its
// size.
func oracleShapes(t *testing.T) []testutil.RandomCase {
	t.Helper()
	var clique, star, ring [][2]int32
	for u := int32(0); u < 40; u++ {
		for v := u + 1; v < 40; v++ {
			clique = append(clique, [2]int32{u, v})
		}
	}
	for v := int32(1); v <= 50; v++ {
		star = append(star, [2]int32{0, v})
	}
	const ringN, ringK = 60, 3 // every vertex adjacent to its 3 nearest on each side
	for u := int32(0); u < ringN; u++ {
		for d := int32(1); d <= ringK; d++ {
			ring = append(ring, [2]int32{u, (u + d) % ringN})
		}
	}
	var cases []testutil.RandomCase
	for _, s := range []struct {
		name  string
		n     int
		edges [][2]int32
	}{
		{"clique-40", 40, clique},
		{"star-50", 51, star},
		{"ring-lattice", ringN, ring},
		{"single-edge", 2, [][2]int32{{0, 1}}},
		{"isolated", 5, nil},
	} {
		g, err := graph.FromUnweightedEdges(s.n, s.edges)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, testutil.RandomCase{Name: s.name, G: g})
	}
	return append(cases, testutil.RandomCase{Name: "rmat-perfbench-1/8",
		G: gen.RMAT(10, 1024*43, 0.45, 0.22, 0.22, gen.WeightConfig{}, 1)})
}

// savedPayload saves x and decodes the payload back out of the container.
func savedPayload(t *testing.T, x *Index) indexPayload {
	t.Helper()
	var buf bytes.Buffer
	if err := x.Save(&buf); err != nil {
		t.Fatal(err)
	}
	raw, err := indexKind.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var p indexPayload
	if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&p); err != nil {
		t.Fatal(err)
	}
	return p
}

// eachArc calls fn for every arc v→q of g with its weight and CSR slot.
func eachArc(g graph.Graph, fn func(v, q int32, w float32, e int64)) {
	for v := int32(0); v < int32(g.NumVertices()); v++ {
		lo, _ := g.NeighborRange(v)
		g.EachNeighbor(v, func(j int, q int32, w float32) bool {
			fn(v, q, w, lo+int64(j))
			return true
		})
	}
}

// checkSortedEntries asserts that the persisted σ and band of every arc v→q
// are bit-identical to q's entry in v's sorted order.
func checkSortedEntries(t *testing.T, name string, x *Index, p indexPayload) {
	t.Helper()
	var band []float32
	if x.approx != nil && !x.approx.exactFallback {
		band = x.approx.nbrBand
		if len(p.Band) != len(band) {
			t.Fatalf("%s: %d persisted bands for %d arcs", name, len(p.Band), len(band))
		}
	}
	at := make([]int64, x.NumVertices()) // neighbor id → sorted slot of the current vertex
	for v := int32(0); v < int32(x.NumVertices()); v++ {
		lo, hi := x.g.NeighborRange(v)
		for e := lo; e < hi; e++ {
			at[x.nbr[e]] = e
		}
		x.g.EachNeighbor(v, func(j int, q int32, _ float32) bool {
			e, s := lo+int64(j), at[q]
			if math.Float64bits(p.Sigma[e]) != math.Float64bits(x.nbrSig[s]) {
				t.Fatalf("%s: arc %d (%d→%d) persisted σ %v, sorted order holds %v", name, e, v, q, p.Sigma[e], x.nbrSig[s])
			}
			if band != nil && math.Float32bits(p.Band[e]) != math.Float32bits(band[s]) {
				t.Fatalf("%s: arc %d (%d→%d) persisted band %v, sorted order holds %v", name, e, v, q, p.Band[e], band[s])
			}
			return true
		})
	}
}

// checkResave asserts Save → Load → Save reproduces the file byte for byte.
func checkResave(t *testing.T, name string, x *Index) {
	t.Helper()
	var a, b bytes.Buffer
	if err := x.Save(&a); err != nil {
		t.Fatal(err)
	}
	y, err := Load(x.g, bytes.NewReader(a.Bytes()), 2)
	if err != nil {
		t.Fatalf("%s: Load: %v", name, err)
	}
	if err := y.Save(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("%s: Save → Load → Save changed the file", name)
	}
}
