package index

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"anyscan/internal/gen"
	"anyscan/internal/graph"
	"anyscan/internal/simeval"
	"anyscan/internal/testutil"
)

// TestPersistedLayoutOracle ties every persisted value to its arc. The file
// stores σ in CSR arc order while the index keeps it only in σ-sorted order,
// so the save path's un-permute is checked against independent oracles: the
// σ of arc v→q must be the crossing of a fresh exact evaluation and q's
// entry in v's sorted order, and Save → Load → Save must reproduce the file
// byte for byte. The exact oracle is the reference merge join,
// simeval.Engine.EdgeNumerator, so it also ties the one exact σ kernel to it
// on unit and weighted graphs. Graphs: the random families; an R-MAT with
// hubs; shapes that stress the kernel's (degree, id) ranking and common
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
		}
	}
}

// legacyFrame frames a payload the way files were written while the format
// had a second, approximate version: gob of the seven-field indexPayload of
// that time (a function-local copy under the same name, so the descriptor
// names the same type and fields), in the index container.
func legacyFrame(t *testing.T, version int, g graph.Graph, sigma []float64, delta float64, k int, seed uint64, band []float32) []byte {
	t.Helper()
	type indexPayload struct {
		Version int
		Graph   graph.Fingerprint
		Sigma   []float64
		Delta   float64
		K       int
		Seed    uint64
		Band    []float32
	}
	var payload, file bytes.Buffer
	p := indexPayload{version, graph.FingerprintOf(g), sigma, delta, k, seed, band}
	if err := gob.NewEncoder(&payload).Encode(&p); err != nil {
		t.Fatal(err)
	}
	if err := indexKind.Write(&file, payload.Bytes()); err != nil {
		t.Fatal(err)
	}
	return file.Bytes()
}

// TestLoadsSevenFieldVersion1Files loads exact index files written with the
// seven-field payload, whose descriptor also names the approximate fields:
// gob matches fields by name, so each loads to the neighbor orders and
// thresholds a fresh build holds, bit for bit, and resaves in the smaller
// three-field form.
func TestLoadsSevenFieldVersion1Files(t *testing.T) {
	for _, tc := range testutil.RandomCases(1)[:5] { // unit and weighted families
		for _, g := range []graph.Graph{tc.G, graph.Compress(tc.G)} {
			name := fmt.Sprintf("%s/%T", tc.Name, g)
			x := Build(g, 2)
			old := legacyFrame(t, 1, g, arcOrder(x, x.nbrSig), 0, 0, 0, nil)
			y, err := Load(g, bytes.NewReader(old), 1)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !slices.Equal(y.nbr, x.nbr) || !slices.EqualFunc(y.nbrSig, x.nbrSig, func(a, b float64) bool {
				return math.Float64bits(a) == math.Float64bits(b)
			}) {
				t.Fatalf("%s: a seven-field version-1 file loads to other neighbor orders or thresholds", name)
			}
			var now bytes.Buffer
			if err := y.Save(&now); err != nil {
				t.Fatal(err)
			}
			if now.Len() >= len(old) {
				t.Fatalf("%s: resaved file has %d bytes, the seven-field one %d", name, now.Len(), len(old))
			}
		}
	}
}

// TestLoadRejectsVersion2 hands Load a well-formed version-2 file, an
// approximate index's estimates, bands and sketch parameters: the version
// is no longer read, so Load must fail naming it and return no index.
func TestLoadRejectsVersion2(t *testing.T) {
	g := gen.RMAT(10, 8<<10, 0.57, 0.19, 0.19, gen.WeightConfig{}, 7)
	ax, err := BuildApprox(g, 2, DefaultApproxDelta)
	if err != nil {
		t.Fatal(err)
	}
	if ax.Approx().Sketched == 0 {
		t.Fatal("no sketched arcs: the approximate index is exact")
	}
	sig, band := ax.ArcOrder()
	file := legacyFrame(t, 2, g, sig, DefaultApproxDelta, simeval.DefaultSketchK, defaultSketchSeed, band)
	y, err := Load(g, bytes.NewReader(file), 2)
	if err == nil || !strings.Contains(err.Error(), "version 2") || y != nil {
		t.Fatalf("Load of a version-2 file: index %v, error %v; want no index and an error naming version 2", y != nil, err)
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

// checkSortedEntries asserts that the persisted σ of every arc v→q is
// bit-identical to q's entry in v's sorted order.
func checkSortedEntries(t *testing.T, name string, x *Index, p indexPayload) {
	t.Helper()
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
