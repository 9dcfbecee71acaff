package graph_test

import (
	"bytes"
	"testing"

	"anyscan/internal/gen"
	"anyscan/internal/graph"
)

// BenchmarkReadBinary times loading a flat .bin graph, the read and the
// full Validate every registration runs, on BenchmarkBuild's GR05L-shaped
// R-MAT (8192 vertices, ~352k edges), perfbench build's graph at seed 1.
func BenchmarkReadBinary(b *testing.B) {
	g := gen.RMAT(13, 8192*43, 0.45, 0.22, 0.22, gen.WeightConfig{}, 1)
	var buf bytes.Buffer
	if err := g.WriteBinary(&buf); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := graph.ReadBinary(bytes.NewReader(buf.Bytes()))
		if err != nil {
			b.Fatal(err)
		}
		if got.NumArcs() != g.NumArcs() {
			b.Fatalf("read %d arcs of %d", got.NumArcs(), g.NumArcs())
		}
	}
}

// BenchmarkValidate times the full structural check of the same R-MAT on
// the flat backend and on the compressed one, which every ValidateFull
// open of a .csrz container runs.
func BenchmarkValidate(b *testing.B) {
	g := gen.RMAT(13, 8192*43, 0.45, 0.22, 0.22, gen.WeightConfig{}, 1)
	for _, c := range []struct {
		name     string
		validate func() error
	}{
		{"flat", g.Validate},
		{"compressed", graph.Compress(g).Validate},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := c.validate(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
