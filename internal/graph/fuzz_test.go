package graph

import (
	"bytes"
	"strings"
	"testing"
)

// Fuzz targets: the loaders must never panic and every successfully parsed
// graph must satisfy the CSR invariants. (Run with `go test -fuzz`; the
// seed corpus also executes under plain `go test`.)

func FuzzLoadEdgeList(f *testing.F) {
	f.Add("1 2\n2 3\n")
	f.Add("# comment\n1 2 0.5\n")
	f.Add("0 0\n")
	f.Add("-1 5\n")
	f.Add("9999999999999999999999 1\n")
	f.Add("1 2 nan\n1 2 inf\n")
	f.Add("a b c d e\n")
	f.Add("1\t2\t3\t4\n")
	f.Fuzz(func(t *testing.T, input string) {
		for _, remap := range []bool{false, true} {
			g, _, err := LoadEdgeList(strings.NewReader(input), LoadOptions{Remap: remap})
			if err != nil {
				continue
			}
			if err := g.Validate(); err != nil {
				t.Fatalf("accepted invalid graph (remap=%v): %v\ninput: %q", remap, err, input)
			}
		}
	})
}

func FuzzLoadMETIS(f *testing.F) {
	f.Add("3 2\n2\n1 3\n2\n")
	f.Add("3 3 001\n2 1 3 1\n1 1 3 1\n1 1 2 1\n")
	f.Add("% c\n1 0\n\n")
	f.Add("2 1 011 2\n1 1 2 1\n1 1 1 1\n")
	f.Add("0 0\n")
	f.Add("1 1\n1\n")
	f.Fuzz(func(t *testing.T, input string) {
		g, err := LoadMETIS(strings.NewReader(input))
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("accepted invalid graph: %v\ninput: %q", err, input)
		}
	})
}

// FuzzReadCompressed hammers the .csrz container loader: whatever the bytes,
// ReadCompressed must either return an error or a graph whose Validate passes
// without panicking (Validate's two-pass structure is what guarantees the
// cross-stream symmetry check never trips the decoder's corrupt-varint
// panic). A graph that fully validates must also round-trip through
// Decompress into a CSR that satisfies the flat invariants.
func FuzzReadCompressed(f *testing.F) {
	var buf bytes.Buffer
	if err := Compress(randomGraphWeighted(20, 50, 1)).WriteCompressed(&buf); err != nil {
		f.Fatal(err)
	}
	// A unit-weight seed exercises the weightless container layout too.
	var ub Builder
	ub.SetNumVertices(6)
	for _, e := range [][2]int32{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}, {0, 3}} {
		ub.AddEdge(e[0], e[1], 1)
	}
	ug, err := ub.Build()
	if err != nil {
		f.Fatal(err)
	}
	var unit bytes.Buffer
	if err := Compress(ug).WriteCompressed(&unit); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(unit.Bytes())
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:20]) // header only
	f.Add([]byte("garbage"))
	f.Add([]byte{})
	for _, off := range []int{0, 4, 8, 16, 24, 32, 52, len(valid) - 1} {
		flipped := append([]byte(nil), valid...)
		flipped[off] ^= 0x40
		f.Add(flipped)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := ReadCompressed(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := c.Validate(); err != nil {
			return // structurally invalid but well-framed: rejected, not panicked
		}
		if err := c.Decompress().Validate(); err != nil {
			t.Fatalf("validated compressed graph decompresses invalid: %v", err)
		}
	})
}

// FuzzReadBinary hammers the flat binary loader: whatever the bytes,
// ReadBinary must either return an error or a graph that validates, keeps
// no weight array exactly when every weight is 1, and writes back with
// WriteBinary to the bytes it accepted (a prefix of the input: the reader
// stops after the weight section).
func FuzzReadBinary(f *testing.F) {
	for _, g := range []*CSR{randomGraphWeighted(20, 50, 1), randomGraph(20, 50, 1)} {
		var buf bytes.Buffer
		if err := g.WriteBinary(&buf); err != nil {
			f.Fatal(err)
		}
		valid := buf.Bytes()
		f.Add(valid)
		f.Add(valid[:len(valid)/2])
		f.Add(valid[:10]) // truncated header
	}
	f.Add([]byte("garbage"))
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("accepted invalid binary graph: %v", err)
		}
		unit := true
		for e := int64(0); e < g.NumArcs(); e++ {
			_, w := g.Arc(e)
			unit = unit && w == 1
		}
		if UnitWeights(g) != unit || (g.weights == nil) != unit {
			t.Fatalf("every weight 1: %v, but UnitWeights %v and weight array kept: %v", unit, UnitWeights(g), g.weights != nil)
		}
		var out bytes.Buffer
		if err := g.WriteBinary(&out); err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, out.Bytes()) {
			t.Fatalf("accepted bytes do not round-trip: read %d-byte input, wrote %d bytes", len(data), out.Len())
		}
	})
}
