package graph

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
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
// without panicking (Validate bounds-checks every decode step, so its
// cross-stream symmetry walk never trips the decoder's corrupt-varint
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

// FuzzValidateMatchesReference requires CSR.Validate, whose symmetry check is
// one monotone cursor per vertex, to accept and reject exactly the arrays
// that validateByFindArc, the per-arc binary search it replaced, accepts and
// rejects. Byte 0 is a flag (bit 0 keeps a weight array), byte 1 sets the
// vertex count (1 to 16), byte 2 the edge count; then come the edges, two
// endpoint bytes and a weight byte each, and then corruptions of the built
// arrays, three bytes each (kind, a, b): shifted offsets, out-of-range or
// rewritten ids, swapped entries, asymmetric or invalid weights, and
// deleted or inserted arcs.
func FuzzValidateMatchesReference(f *testing.F) {
	edges := []byte{0, 1, 9, 1, 2, 60, 2, 0, 77, 2, 3, 63, 3, 4, 5, 4, 0, 200}
	valid := append([]byte{1, 5, 6}, edges...)
	f.Add(valid)
	f.Add(append([]byte{0, 5, 6}, edges...))
	for kind := byte(0); kind < 6; kind++ {
		for _, ab := range [][2]byte{{1, 3}, {4, 250}, {7, 0}, {2, 129}} {
			f.Add(append(slices.Clone(valid), kind, ab[0], ab[1]))
		}
	}
	// A star on 8 whose arc 9→8 is replaced by 9→0: the cursor at 9's only
	// entry, 0, must not be taken for the reverse of 8→9.
	f.Add([]byte{0, 9, 5, 0, 8, 64, 5, 8, 64, 6, 8, 64, 7, 8, 64, 8, 9, 64, 4, 9, 0, 5, 9, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		g := fuzzArrays(data)
		if g == nil {
			return
		}
		got, want := g.Validate(), validateByFindArc(g)
		if (got == nil) != (want == nil) {
			t.Fatalf("Validate: %v, per-arc reference: %v\noffsets %v\nneighbors %v\nweights %v",
				got, want, g.offsets, g.neighbors, g.weights)
		}
	})
}

// fuzzArrays decodes FuzzValidateMatchesReference's input into raw CSR
// arrays, or returns nil when the input is too short to name a graph.
func fuzzArrays(data []byte) *CSR {
	if len(data) < 3 {
		return nil
	}
	n := 1 + int(data[1])%16
	var b Builder
	b.SetNumVertices(n)
	i := 3
	for k := 0; k < int(data[2]) && i+3 <= len(data); k, i = k+1, i+3 {
		b.AddEdge(int32(int(data[i])%n), int32(int(data[i+1])%n), float32(int(data[i+2])+1)/64)
	}
	built, err := b.Build()
	if err != nil {
		panic(err)
	}
	g := &CSR{offsets: slices.Clone(built.offsets), neighbors: slices.Clone(built.neighbors)}
	if data[0]&1 != 0 {
		g.weights = make([]float32, len(g.neighbors))
		for e := range g.weights {
			g.weights[e] = built.weight(int64(e))
		}
	}
	for ; i+3 <= len(data); i += 3 {
		kind, a, c := data[i]%6, int(data[i+1]), data[i+2]
		m := len(g.neighbors)
		switch {
		case kind == 0: // shift an offset
			g.offsets[a%len(g.offsets)] += int64(int8(c))
		case kind == 1 && m > 0: // rewrite an id, possibly out of range
			g.neighbors[a%m] = int32(int(c)%(n+2)) - 1
		case kind == 2 && m > 0: // swap two entries, weights with them
			x, y := a%m, int(c)%m
			g.neighbors[x], g.neighbors[y] = g.neighbors[y], g.neighbors[x]
			if g.weights != nil {
				g.weights[x], g.weights[y] = g.weights[y], g.weights[x]
			}
		case kind == 3 && m > 0 && g.weights != nil: // set one side's weight
			switch c {
			case 254:
				g.weights[a%m] = float32(math.NaN())
			case 255:
				g.weights[a%m] = float32(math.Inf(1))
			default:
				g.weights[a%m] = float32(c) / 64
			}
		case kind == 4 && m > 0: // delete one arc, keeping its reverse
			e := a % m
			g.neighbors = slices.Delete(g.neighbors, e, e+1)
			if g.weights != nil {
				g.weights = slices.Delete(g.weights, e, e+1)
			}
			for v := range g.offsets {
				if g.offsets[v] > int64(e) {
					g.offsets[v]--
				}
			}
		case kind == 5: // insert arc v→u at its sorted place, without its reverse
			v, u := a%n, int32(int(c)%n)
			if g.offsets[v] < 0 || g.offsets[v+1] > int64(len(g.neighbors)) || g.offsets[v] > g.offsets[v+1] {
				continue // an earlier corruption broke v's range
			}
			lo, hi := g.offsets[v], g.offsets[v+1]
			p, _ := slices.BinarySearch(g.neighbors[lo:hi], u)
			e := int(lo) + p
			g.neighbors = slices.Insert(g.neighbors, e, u)
			if g.weights != nil {
				g.weights = slices.Insert(g.weights, e, float32(c)/64)
			}
			for w := v + 1; w < len(g.offsets); w++ {
				g.offsets[w]++
			}
		}
	}
	return g
}

// validateByFindArc is CSR.Validate as it was before its symmetry check
// became a monotone cursor walk: the reverse of every arc is looked up by
// binary search (FindArc). It is the reference FuzzValidateMatchesReference
// holds the linear check to.
func validateByFindArc(g *CSR) error {
	n := int32(g.NumVertices())
	if g.weights != nil && len(g.neighbors) != len(g.weights) {
		return fmt.Errorf("graph: neighbors/weights length mismatch %d != %d", len(g.neighbors), len(g.weights))
	}
	if g.offsets[0] != 0 || g.offsets[n] != int64(len(g.neighbors)) {
		return fmt.Errorf("graph: offset bounds corrupt")
	}
	for v := int32(0); v < n; v++ {
		if g.offsets[v] > g.offsets[v+1] {
			return fmt.Errorf("graph: negative degree at vertex %d", v)
		}
	}
	for v := int32(0); v < n; v++ {
		lo, hi := g.offsets[v], g.offsets[v+1]
		for e := lo; e < hi; e++ {
			u := g.neighbors[e]
			if u < 0 || u >= n {
				return fmt.Errorf("graph: vertex %d has out-of-range neighbor %d", v, u)
			}
			if u == v {
				return fmt.Errorf("graph: self loop at vertex %d", v)
			}
			if e > lo && g.neighbors[e-1] >= u {
				return fmt.Errorf("graph: adjacency of %d not strictly sorted at arc %d", v, e)
			}
			if w := g.weight(e); !(w > 0) || math.IsInf(float64(w), 0) {
				return fmt.Errorf("graph: non-positive or non-finite weight %v on edge (%d,%d)", w, v, u)
			}
			r, ok := g.FindArc(u, v)
			if !ok {
				return fmt.Errorf("graph: edge (%d,%d) missing reverse arc", v, u)
			}
			if g.weight(r) != g.weight(e) {
				return fmt.Errorf("graph: asymmetric weight on edge (%d,%d)", v, u)
			}
		}
	}
	return nil
}

// FuzzValidateCompressedMatchesReference requires CompressedCSR.Validate,
// one forward-only decode cursor per vertex, to accept and reject exactly
// the payloads validateByLookup, a decode per arc, accepts and rejects, and
// every payload it accepts to decompress into a CSR that validates. data is
// FuzzValidateMatchesReference's input (fuzzArrays): raw CSR arrays, which
// compressArrays encodes as they are, so swapped entries become gaps that
// wrap and deleted or inserted arcs break symmetry. stream then corrupts
// the encoding, three bytes each (kind, a, b): a flipped data byte or a
// shifted byte offset.
func FuzzValidateCompressedMatchesReference(f *testing.F) {
	edges := []byte{0, 1, 9, 1, 2, 60, 2, 0, 77, 2, 3, 63, 3, 4, 5, 4, 0, 200}
	valid := append([]byte{1, 5, 6}, edges...)
	f.Add(valid, []byte{})
	f.Add(append([]byte{0, 5, 6}, edges...), []byte{})
	for kind := byte(0); kind < 6; kind++ {
		for _, ab := range [][2]byte{{1, 3}, {4, 250}, {7, 0}, {2, 129}} {
			f.Add(append(slices.Clone(valid), kind, ab[0], ab[1]), []byte{})
		}
	}
	for kind := byte(0); kind < 2; kind++ {
		for _, ab := range [][2]byte{{1, 3}, {4, 0x80}, {7, 0xff}, {2, 1}} {
			f.Add(valid, []byte{kind, ab[0], ab[1]})
		}
	}
	f.Fuzz(func(t *testing.T, data, stream []byte) {
		g := fuzzArrays(data)
		if g == nil {
			return
		}
		c := compressArrays(g)
		if c == nil {
			return
		}
		for i := 0; i+3 <= len(stream); i += 3 {
			kind, a, b := stream[i]%2, int(stream[i+1]), stream[i+2]
			switch {
			case kind == 0 && len(c.data) > 0:
				c.data[a%len(c.data)] ^= b
			case kind == 1:
				c.byteOf[a%len(c.byteOf)] += int64(int8(b))
			}
		}
		got, want := c.Validate(), validateByLookup(c)
		if (got == nil) != (want == nil) {
			t.Fatalf("Validate: %v, per-arc reference: %v\narcOff %v\nbyteOf %v\ndata %v\nweights %v",
				got, want, c.arcOff, c.byteOf, c.data, c.weights)
		}
		if got == nil {
			if err := c.Decompress().Validate(); err != nil {
				t.Fatalf("validated compressed graph decompresses invalid: %v", err)
			}
		}
	})
}

// compressArrays encodes raw CSR arrays, valid or not, the way Compress
// encodes a valid graph: an id at or below the one before it becomes the
// wrapped uvarint gap a corrupt file could carry. It returns nil when the
// offsets do not cut the neighbor array into ranges.
func compressArrays(g *CSR) *CompressedCSR {
	n := len(g.offsets) - 1
	if g.offsets[0] != 0 || g.offsets[n] != int64(len(g.neighbors)) {
		return nil
	}
	for v := 0; v < n; v++ {
		if g.offsets[v] > g.offsets[v+1] {
			return nil
		}
	}
	c := &CompressedCSR{
		n: n, edges: int64(len(g.neighbors)) / 2, unit: g.weights == nil,
		arcOff: slices.Clone(g.offsets), byteOf: make([]int64, n+1), weights: slices.Clone(g.weights),
		norm: make([]float64, n), sqrtNorm: make([]float64, n), maxW: make([]float32, n),
	}
	var buf [binary.MaxVarintLen64]byte
	for v := 0; v < n; v++ {
		lo, hi := g.offsets[v], g.offsets[v+1]
		c.maxDeg = max(c.maxDeg, int(hi-lo))
		prev := int64(v)
		for e := lo; e < hi; e++ {
			u := int64(g.neighbors[e])
			enc := uint64(u - prev - 1)
			if e == lo {
				enc = zigzag(u - prev)
			}
			c.data = append(c.data, buf[:binary.PutUvarint(buf[:], enc)]...)
			prev = u
		}
		c.byteOf[v+1] = int64(len(c.data))
	}
	if c.unit {
		c.ones = onesSlice(c.maxDeg)
	}
	return c
}

// validateByLookup is CompressedCSR.Validate as it was before its symmetry
// check became a cursor walk: a pass that decodes every list on its own,
// then the reverse of every arc looked up by decoding the far end's list
// (findNeighbor), a decode per arc. It is the reference
// FuzzValidateCompressedMatchesReference holds the linear check to, with
// the old check's two holes closed, as the linear check closes them: the
// lookup scans the far end's own list (the old EdgeWeight call scanned the
// shorter of the two lists, which for an arc from the lower-degree end is
// that arc itself, so a missing reverse there went unseen), and the decode
// pass rejects a gap that wraps to an id at or below the one before it.
// Like CSR.Validate, both reject an infinite weight.
func validateByLookup(c *CompressedCSR) error {
	if err := c.validateOffsets(); err != nil {
		return err
	}
	n := int32(c.n)
	nbr := make([]int32, c.maxDeg)
	for v := int32(0); v < n; v++ {
		adj := nbr[:c.Degree(v)]
		pos := c.byteOf[v]
		prev := int64(v)
		for i := range adj {
			raw, k := binary.Uvarint(c.data[pos:c.byteOf[v+1]])
			if k <= 0 {
				return fmt.Errorf("graph: corrupt varint at vertex %d arc %d", v, i)
			}
			pos += int64(k)
			if i == 0 {
				prev += unzigzag(raw)
			} else if raw >= uint64(n) {
				return fmt.Errorf("graph: vertex %d has out-of-range gap %d", v, raw)
			} else {
				prev += int64(raw) + 1
			}
			if prev < 0 || prev >= int64(n) {
				return fmt.Errorf("graph: vertex %d has out-of-range neighbor %d", v, prev)
			}
			if prev == int64(v) {
				return fmt.Errorf("graph: self loop at vertex %d", v)
			}
			adj[i] = int32(prev)
		}
		if pos != c.byteOf[v+1] {
			return fmt.Errorf("graph: vertex %d adjacency decodes %d bytes, frame says %d",
				v, pos-c.byteOf[v], c.byteOf[v+1]-c.byteOf[v])
		}
	}
	for v := int32(0); v < n; v++ {
		adj := nbr[:c.Degree(v)]
		c.decodeIDs(v, adj)
		for i, u := range adj {
			w := c.weightAt(c.arcOff[v] + int64(i))
			if !(w > 0) || math.IsInf(float64(w), 0) {
				return fmt.Errorf("graph: non-positive or non-finite weight %v on edge (%d,%d)", w, v, u)
			}
			r, ok := c.findNeighbor(u, v)
			if !ok {
				return fmt.Errorf("graph: edge (%d,%d) missing reverse arc", v, u)
			}
			if c.weightAt(c.arcOff[u]+int64(r)) != w {
				return fmt.Errorf("graph: asymmetric or missing reverse edge (%d,%d)", v, u)
			}
		}
	}
	return nil
}
