package index_test

import (
	"bytes"
	"math"
	"testing"

	"anyscan/internal/graph"
	"anyscan/internal/index"
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
// on the flat and the compressed backend, and checks every arc's σ against a
// fresh exact evaluation, simeval.Crossing(EdgeNumerator), bit for bit.
// Byte 0 is a flag: bit 0 clear keeps every weight 1, so the build runs the
// triangle kernel; set, each edge takes a weight in (0, 4] and the build runs
// the per-edge kernel. Byte 1 sets the vertex count (1 to 64); the rest is
// edges, two endpoint bytes each plus a weight byte when weighted.
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
		if len(data) < 2 {
			return
		}
		weighted := data[0]&1 != 0
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
		csr, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range []graph.Graph{csr, graph.Compress(csr)} {
			x := index.Build(g, 2)
			sig, _ := x.ArcOrder()
			eng := simeval.New(g, 0, simeval.Options{})
			for v := int32(0); v < int32(n); v++ {
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
