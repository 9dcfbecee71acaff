package index_test

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"testing"

	"anyscan/internal/cluster"
	"anyscan/internal/graph"
	"anyscan/internal/index"
	"anyscan/internal/live"
	"anyscan/internal/simeval"
	"anyscan/internal/testutil"
)

// FuzzLoadIndex feeds arbitrary bytes to the persisted-index loader: it must
// either reject them with an error or return an index that answers queries —
// never panic, never poison later queries with out-of-range σ values. The
// corpus seeds a pristine save plus the corruption shapes of
// TestLoadRejectsDamage (truncations, header and payload bit flips).
func FuzzLoadIndex(f *testing.F) {
	g := testutil.Karate()
	var buf bytes.Buffer
	if err := index.Build(g, 1).Save(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:19])
	f.Add([]byte("garbage"))
	f.Add([]byte{})
	for _, off := range []int{0, 4, 8, 16, 20, len(valid) / 2, len(valid) - 1} {
		flipped := append([]byte(nil), valid...)
		flipped[off] ^= 0x01
		f.Add(flipped)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		x, err := index.Load(g, bytes.NewReader(data), 1)
		if err != nil {
			return
		}
		res, err := x.Query(2, 0.5)
		if err != nil {
			t.Fatalf("loaded index cannot answer a basic query: %v", err)
		}
		if res.NumClusters < 0 {
			t.Fatalf("loaded index returned %d clusters", res.NumClusters)
		}
	})
}

// FuzzBuildSigma builds the index of a small graph decoded from the input,
// on the flat and the compressed backend, and checks every arc's σ from the
// one exact σ kernel against the reference merge join,
// simeval.Crossing(Engine.EdgeNumerator), bit for bit. Byte 0 is a flag:
// bit 0 clear keeps every weight 1; set, each edge takes a weight in (0, 4].
// Byte 1 sets the vertex count (1 to 64); the rest is edges, two endpoint
// bytes each plus a weight byte when weighted.
func FuzzBuildSigma(f *testing.F) {
	var clique []byte
	for u := byte(0); u < 12; u++ {
		for v := u + 1; v < 12; v++ {
			clique = append(clique, u, v)
		}
	}
	f.Add(append([]byte{0, 11}, clique...))
	f.Add([]byte{0, 7, 0, 1, 1, 2, 2, 0, 2, 3, 3, 4, 4, 2, 5, 6})
	f.Add([]byte{1, 7, 0, 1, 10, 1, 2, 200, 2, 0, 77, 2, 3, 63, 3, 0, 5})
	f.Add([]byte{0, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		csr, weighted := fuzzGraph(t, data)
		if csr == nil {
			return
		}
		for _, g := range []graph.Graph{csr, graph.Compress(csr)} {
			x := index.Build(g, 2)
			sig, _ := x.ArcOrder()
			eng := simeval.New(g, 0, simeval.Options{})
			for v := int32(0); v < int32(g.NumVertices()); v++ {
				lo, _ := g.NeighborRange(v)
				g.EachNeighbor(v, func(j int, q int32, w float32) bool {
					want := simeval.Crossing(eng.EdgeNumerator(v, q, w))
					if got := sig[lo+int64(j)]; math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%T, weighted=%v: arc %d→%d σ %v, exact evaluation %v", g, weighted, v, q, got, want)
					}
					return true
				})
			}
		}
	})
}

// fuzzGraph decodes a graph in the input layout FuzzBuildSigma documents,
// or returns nil when the input is too short to name a vertex count.
func fuzzGraph(t *testing.T, data []byte) (g *graph.CSR, weighted bool) {
	if len(data) < 2 {
		return nil, false
	}
	weighted = data[0]&1 != 0
	n := 1 + int(data[1])%64
	step := 2
	if weighted {
		step = 3
	}
	var b graph.Builder
	b.SetNumVertices(n)
	for i := 2; i+step <= len(data); i += step {
		w := float32(1)
		if weighted {
			w = float32(int(data[i+2])+1) / 64
		}
		b.AddEdge(int32(int(data[i])%n), int32(int(data[i+1])%n), w)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g, weighted
}

// FuzzQueryReference checks the exact replay against the literal reference:
// Index.Query at 1 and 2 threads and a live epoch's Query must equal
// cluster.Reference label for label and role for role. Byte 0 sets μ (1 to
// 8), byte 1 sets ε ((b+1)/256, so in (0, 1]), and the rest is a graph in
// FuzzBuildSigma's layout (fuzzGraph). The seeds steer the hub/outlier
// split down each of its paths: two clusters whose hubs are found from the
// labelled side, a dense graph whose pendant vertices are scanned, and a
// graph with no core.
func FuzzQueryReference(f *testing.F) {
	// Two 4-cliques {0..3} and {4..7}, both clusters at μ=4, ε=0.5. Vertex
	// 8 touches one vertex of each and is the center of a star over 9..28:
	// a hub. Vertex 29 touches 1 and 2, one cluster twice, and leaves
	// 9..18: an outlier. The noise side carries more arcs than the
	// cliques, so the split pushes from the labelled side.
	cliques := []byte{3, 127, 0, 29}
	for _, k := range []byte{0, 4} {
		for u := k; u < k+4; u++ {
			for v := u + 1; v < k+4; v++ {
				cliques = append(cliques, u, v)
			}
		}
	}
	cliques = append(cliques, 8, 0, 8, 4, 29, 1, 29, 2)
	for leaf := byte(9); leaf <= 28; leaf++ {
		cliques = append(cliques, 8, leaf)
		if leaf <= 18 {
			cliques = append(cliques, 29, leaf)
		}
	}
	f.Add(cliques)
	// Two 6-cliques {0..5} and {6..11} at μ=4, ε=0.7 with pendant vertices:
	// 12 touches 0 and 6 (a hub), 13 touches 1 and 2 (an outlier), 14
	// touches 7 (an outlier). The noise side is the smaller, so the split
	// scans it.
	pendants := []byte{3, 179, 0, 14}
	for _, k := range []byte{0, 6} {
		for u := k; u < k+6; u++ {
			for v := u + 1; v < k+6; v++ {
				pendants = append(pendants, u, v)
			}
		}
	}
	f.Add(append(pendants, 12, 0, 12, 6, 13, 1, 13, 2, 14, 7))
	// A ring of 8 at μ=4: every vertex has two neighbors, so no core.
	f.Add([]byte{3, 127, 0, 7, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		mu, eps := 1+int(data[0])%8, float64(int(data[1])+1)/256
		g, _ := fuzzGraph(t, data[2:])
		if g == nil {
			return
		}
		want := cluster.Reference(g, mu, eps)
		check := func(name string, got *cluster.Result, err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("%s at μ=%d ε=%v: %v", name, mu, eps, err)
			}
			if !reflect.DeepEqual(got.Labels, want.Labels) || !reflect.DeepEqual(got.Roles, want.Roles) {
				t.Fatalf("%s at μ=%d ε=%v differs from Reference:\n labels %v\n  want  %v\n roles  %v\n  want  %v",
					name, mu, eps, got.Labels, want.Labels, got.Roles, want.Roles)
			}
		}
		for _, threads := range []int{1, 2} {
			x := index.Build(g, threads)
			res, err := x.Query(mu, eps)
			check(fmt.Sprintf("Index.Query, %d threads", threads), res, err)
			res, err = live.FromIndex(x).Epoch().Query(mu, eps)
			check(fmt.Sprintf("Epoch.Query, %d threads", threads), res, err)
		}
	})
}
