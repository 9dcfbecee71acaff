package graph

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// CompressedCSR is an immutable weighted undirected graph whose adjacency is
// varint byte-delta encoded, in the style of Ligra+/GBBS: within a vertex's
// sorted neighbor list the first id is zigzag-encoded relative to the vertex
// itself and each subsequent id as uvarint(gap-1). After RelabelByDegree the
// gaps on real graphs are small, so the encoding lands around 1-2 bytes per
// arc versus the CSR's 4 (plus 4 for the weight, which a weight-1 graph
// drops entirely) — typically a 3-6x size reduction.
//
// Per-vertex derived quantities (norm, √norm, max weight) are stored
// uncompressed, so σ kernels pay decode cost only for adjacency, and the
// on-disk container can be mmapped and served with near-zero startup work.
//
// Access cost model: NeighborRange/Degree/Norm are O(1) array reads like the
// CSR's; EachNeighbor and Cursor.Neighbors decode at memory speed;
// Neighbors allocates a fresh id slice per call; EdgeWeight/HasEdge decode
// the shorter endpoint's list with early exit. There is no Arc(e) random
// access and no ReverseEdgeIndex — see the Graph interface contract.
type CompressedCSR struct {
	n      int
	edges  int64
	arcOff []int64 // len n+1; cumulative degrees (arc-index ranges)
	byteOf []int64 // len n+1; adjacency of v occupies data[byteOf[v]:byteOf[v+1]]
	data   []byte  // varint delta stream

	// unit marks an all-weight-1 graph: weights is nil and every decode
	// yields SelfWeight-compatible 1.0 without touching storage.
	unit    bool
	weights []float32 // per-arc weights (nil when unit); indexed by arc index

	norm     []float64
	sqrtNorm []float64
	maxW     []float32

	maxDeg int
	ones   []float32 // maxDeg 1.0s shared by unit-weight decodes (read-only)

	// closer unmaps the backing file of an mmap-loaded graph; nil for
	// heap-backed graphs. residentBytes is set by the loader to the portion
	// of the storage that lives on the Go heap rather than in the mapping.
	closer        io.Closer
	residentBytes int64
}

// zigzag encodes a signed delta as an unsigned varint-friendly value.
func zigzag(x int64) uint64 { return uint64((x << 1) ^ (x >> 63)) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// Compress encodes g. The encoding is lossless and order-preserving: the
// compressed graph is isomorphic to g under the identity map, with
// bit-identical weights, norms, and arc indexing.
func Compress(g *CSR) *CompressedCSR {
	n := g.NumVertices()
	c := &CompressedCSR{
		n:        n,
		edges:    g.NumEdges(),
		arcOff:   g.offsets,
		byteOf:   make([]int64, n+1),
		norm:     g.norm,
		sqrtNorm: g.sqrtNorm,
		maxW:     g.maxW,
	}
	c.unit = g.weights == nil
	c.weights = g.weights
	var buf [binary.MaxVarintLen64]byte
	data := make([]byte, 0, len(g.neighbors)) // ~1 byte/arc guess
	for v := int32(0); v < int32(n); v++ {
		adj, _ := g.Neighbors(v)
		if len(adj) > c.maxDeg {
			c.maxDeg = len(adj)
		}
		prev := int64(v)
		for i, u := range adj {
			var enc uint64
			if i == 0 {
				enc = zigzag(int64(u) - prev)
			} else {
				enc = uint64(int64(u) - prev - 1)
			}
			data = append(data, buf[:binary.PutUvarint(buf[:], enc)]...)
			prev = int64(u)
		}
		c.byteOf[v+1] = int64(len(data))
	}
	c.data = data
	if c.unit {
		c.ones = onesSlice(c.maxDeg)
	}
	return c
}

func onesSlice(n int) []float32 {
	s := make([]float32, n)
	for i := range s {
		s[i] = 1
	}
	return s
}

// Decompress materializes the flat CSR. The result shares the weight, norm
// and offset arrays with the compressed graph when possible; adjacency ids
// are fully decoded. The returned CSR is independent of any backing mmap —
// callers may Close the compressed graph afterwards only if they also stop
// using shared arrays, so in practice keep both alive or use a heap-backed
// source.
func (c *CompressedCSR) Decompress() *CSR {
	nbr := make([]int32, c.arcOff[c.n])
	wts := c.weights
	if !c.unit && c.closer != nil {
		// Copy out of the mapping so the CSR survives a later Close.
		wts = append([]float32(nil), c.weights...)
	}
	g := &CSR{
		offsets:   append([]int64(nil), c.arcOff...),
		neighbors: nbr,
		weights:   wts,
		ones:      c.ones,
		norm:      append([]float64(nil), c.norm...),
		sqrtNorm:  append([]float64(nil), c.sqrtNorm...),
		maxW:      append([]float32(nil), c.maxW...),
	}
	for v := int32(0); v < int32(c.n); v++ {
		lo := c.arcOff[v]
		c.decodeIDs(v, nbr[lo:c.arcOff[v+1]])
	}
	return g
}

// NumVertices returns the number of vertices.
func (c *CompressedCSR) NumVertices() int { return c.n }

// NumEdges returns the number of undirected edges.
func (c *CompressedCSR) NumEdges() int64 { return c.edges }

// NumArcs returns the number of directed arcs.
func (c *CompressedCSR) NumArcs() int64 { return c.arcOff[c.n] }

// Degree returns the neighbor count of v.
func (c *CompressedCSR) Degree(v int32) int { return int(c.arcOff[v+1] - c.arcOff[v]) }

// NeighborRange returns the half-open arc-index range of v's adjacency.
func (c *CompressedCSR) NeighborRange(v int32) (lo, hi int64) {
	return c.arcOff[v], c.arcOff[v+1]
}

// MaxDegree returns the largest degree in the graph (cursor buffer size).
func (c *CompressedCSR) MaxDegree() int { return c.maxDeg }

// Norm returns l_v (see CSR.Norm).
func (c *CompressedCSR) Norm(v int32) float64 { return c.norm[v] }

// SqrtNorm returns √Norm(v).
func (c *CompressedCSR) SqrtNorm(v int32) float64 { return c.sqrtNorm[v] }

// MaxWeight returns the maximum incident edge weight of v.
func (c *CompressedCSR) MaxWeight(v int32) float32 { return c.maxW[v] }

// decodeIDs decodes v's neighbor ids into dst (len = Degree(v)).
func (c *CompressedCSR) decodeIDs(v int32, dst []int32) {
	pos := c.byteOf[v]
	prev := int64(v)
	for i := range dst {
		raw, n := binary.Uvarint(c.data[pos:c.byteOf[v+1]])
		if n <= 0 {
			panic(fmt.Sprintf("graph: corrupt varint stream at vertex %d (run Validate on untrusted files)", v))
		}
		pos += int64(n)
		if i == 0 {
			prev += unzigzag(raw)
		} else {
			prev += int64(raw) + 1
		}
		dst[i] = int32(prev)
	}
}

// decodeInto decodes v's adjacency into the cursor-owned buffer and returns
// it together with the weight view (storage alias, or the shared unit-weight
// slice).
func (c *CompressedCSR) decodeInto(v int32, buf []int32) ([]int32, []float32) {
	d := c.Degree(v)
	dst := buf[:d]
	c.decodeIDs(v, dst)
	if c.unit {
		return dst, c.ones[:d]
	}
	lo, hi := c.arcOff[v], c.arcOff[v+1]
	return dst, c.weights[lo:hi]
}

// Neighbors returns v's adjacency, allocating a fresh id slice per call. Hot
// loops should use EachNeighbor or a Cursor instead.
func (c *CompressedCSR) Neighbors(v int32) ([]int32, []float32) {
	return c.decodeInto(v, make([]int32, c.Degree(v)))
}

// EachNeighbor decodes v's adjacency inline, without allocating.
func (c *CompressedCSR) EachNeighbor(v int32, yield func(i int, u int32, w float32) bool) bool {
	lo, hi := c.byteOf[v], c.byteOf[v+1]
	d := c.Degree(v)
	pos := lo
	prev := int64(v)
	var wts []float32
	if !c.unit {
		wts = c.weights[c.arcOff[v]:c.arcOff[v+1]]
	}
	for i := 0; i < d; i++ {
		raw, n := binary.Uvarint(c.data[pos:hi])
		if n <= 0 {
			panic(fmt.Sprintf("graph: corrupt varint stream at vertex %d (run Validate on untrusted files)", v))
		}
		pos += int64(n)
		if i == 0 {
			prev += unzigzag(raw)
		} else {
			prev += int64(raw) + 1
		}
		w := float32(1)
		if wts != nil {
			w = wts[i]
		}
		if !yield(i, int32(prev), w) {
			return false
		}
	}
	return true
}

// findNeighbor decodes v's list until it reaches u, returning u's position.
// Early exit on the sorted order makes the expected cost half a decode.
func (c *CompressedCSR) findNeighbor(v, u int32) (int, bool) {
	found, idx := false, 0
	c.EachNeighbor(v, func(i int, q int32, _ float32) bool {
		if q >= u {
			found, idx = q == u, i
			return false
		}
		return true
	})
	return idx, found
}

// HasEdge reports whether the undirected edge (u,v) exists. The shorter
// adjacency list is scanned.
func (c *CompressedCSR) HasEdge(u, v int32) bool {
	if c.Degree(v) < c.Degree(u) {
		u, v = v, u
	}
	_, ok := c.findNeighbor(u, v)
	return ok
}

// EdgeWeight returns the weight of edge (u,v), or 0 if absent.
func (c *CompressedCSR) EdgeWeight(u, v int32) float32 {
	if c.Degree(v) < c.Degree(u) {
		u, v = v, u
	}
	i, ok := c.findNeighbor(u, v)
	if !ok {
		return 0
	}
	return c.weightAt(c.arcOff[u] + int64(i))
}

// Bytes returns the total storage footprint: offset arrays, varint data,
// weights, and the per-vertex derived arrays.
func (c *CompressedCSR) Bytes() int64 {
	b := int64(len(c.arcOff))*8 + int64(len(c.byteOf))*8 + int64(len(c.data)) +
		int64(len(c.norm))*8 + int64(len(c.sqrtNorm))*8 + int64(len(c.maxW))*4
	if !c.unit {
		b += int64(len(c.weights)) * 4
	}
	return b
}

// ResidentBytes is the heap-resident portion of Bytes: zero-copy sections of
// an mmap-backed graph live in the page cache and are excluded.
func (c *CompressedCSR) ResidentBytes() int64 {
	if c.closer == nil {
		return c.Bytes()
	}
	return c.residentBytes
}

// Close releases the backing file mapping of an mmap-loaded graph (no-op for
// heap-backed graphs). The graph must not be used afterwards; anyscand never
// closes registry graphs eagerly because queries may still hold them — the
// mapping is reclaimed when the graph is garbage collected.
func (c *CompressedCSR) Close() error {
	if c.closer == nil {
		return nil
	}
	cl := c.closer
	c.closer = nil
	return cl.Close()
}

// Validate fully decodes every adjacency list and checks the structural
// invariants of CSR.Validate (ids strictly ascending and in range, no self
// loop, symmetry, positive finite weights equal on both arcs of an edge)
// plus the compressed-specific ones (offset monotonicity, exact byte
// consumption per vertex). Intended for loaders handling untrusted files
// and for tests, not hot paths.
//
// It is one O(|arcs|) pass, CSR.Validate's walk over a varint stream: each
// vertex u keeps a cursor, a decode position into its own list plus the
// last id decoded there, that only moves forward. Visiting v in id order,
// v first decodes on from its own cursor, which the lower vertices have
// advanced past the reverses of their arcs into v, so an entry below v
// left there is an arc no lower vertex matched. Every arc from v to a
// higher u then steps u's cursor, which must decode exactly v. Every list
// is decoded once, and every step checks its varint, range and byte
// bounds, so the walk never trips the decoder's corrupt-varint panic.
func (c *CompressedCSR) Validate() error {
	if err := c.validateOffsets(); err != nil {
		return err
	}
	cur := make([]arcCursor, c.n)
	for v := range cur {
		cur[v] = arcCursor{pos: c.byteOf[v], arc: c.arcOff[v], prev: int32(v)}
	}
	for v := int32(0); v < int32(c.n); v++ {
		k := &cur[v]
		for k.arc < c.arcOff[v+1] {
			e := k.arc
			u, err := c.step(v, k)
			if err != nil {
				return err
			}
			if u < v {
				return fmt.Errorf("graph: edge (%d,%d) missing reverse arc", v, u)
			}
			w := c.weightAt(e)
			if !(w > 0) || math.IsInf(float64(w), 0) {
				return fmt.Errorf("graph: non-positive or non-finite weight %v on edge (%d,%d)", w, v, u)
			}
			r := &cur[u]
			if r.arc == c.arcOff[u+1] {
				return fmt.Errorf("graph: edge (%d,%d) missing reverse arc", v, u)
			}
			re := r.arc
			back, err := c.step(u, r)
			if err != nil {
				return err
			}
			if back != v {
				return fmt.Errorf("graph: edge (%d,%d) missing reverse arc", v, u)
			}
			if c.weightAt(re) != w {
				return fmt.Errorf("graph: asymmetric weight on edge (%d,%d)", v, u)
			}
		}
		if k.pos != c.byteOf[v+1] {
			return fmt.Errorf("graph: vertex %d adjacency decodes %d bytes, frame says %d",
				v, k.pos-c.byteOf[v], c.byteOf[v+1]-c.byteOf[v])
		}
	}
	return nil
}

// arcCursor is a forward-only decode position in one vertex's list: the
// byte offset of its next entry, that entry's arc index, and the id
// decoded last (the vertex itself before the first entry).
type arcCursor struct {
	pos  int64
	arc  int64
	prev int32
}

// step decodes the entry of v's list at k and advances k past it. It
// rejects what decodeIDs would panic on or silently accept: a truncated or
// overlong varint, an id out of range or equal to v, and a gap that does
// not ascend. The caller checks k.arc against v's degree first.
func (c *CompressedCSR) step(v int32, k *arcCursor) (int32, error) {
	raw, n := binary.Uvarint(c.data[k.pos:c.byteOf[v+1]])
	if n <= 0 {
		return 0, fmt.Errorf("graph: corrupt varint at vertex %d arc %d", v, k.arc-c.arcOff[v])
	}
	var id int64
	switch {
	case k.arc == c.arcOff[v]:
		id = int64(v) + unzigzag(raw) // a wrap lands below 0
	case raw >= uint64(c.n):
		return 0, fmt.Errorf("graph: vertex %d has out-of-range gap %d", v, raw)
	default:
		id = int64(k.prev) + int64(raw) + 1
	}
	if id < 0 || id >= int64(c.n) {
		return 0, fmt.Errorf("graph: vertex %d has out-of-range neighbor %d", v, id)
	}
	if id == int64(v) {
		return 0, fmt.Errorf("graph: self loop at vertex %d", v)
	}
	k.pos += int64(n)
	k.arc++
	k.prev = int32(id)
	return int32(id), nil
}

// weightAt is the weight of arc e.
func (c *CompressedCSR) weightAt(e int64) float32 {
	if c.unit {
		return 1
	}
	return c.weights[e]
}

// validateOffsets checks the O(n) structural invariants cheap enough for
// every load: monotone offsets that stay inside the data and weight arrays.
func (c *CompressedCSR) validateOffsets() error {
	if len(c.arcOff) != c.n+1 || len(c.byteOf) != c.n+1 {
		return fmt.Errorf("graph: offset array length mismatch")
	}
	if c.arcOff[0] != 0 || c.byteOf[0] != 0 {
		return fmt.Errorf("graph: offsets do not start at 0")
	}
	if c.byteOf[c.n] != int64(len(c.data)) {
		return fmt.Errorf("graph: byte offsets end at %d, data is %d bytes", c.byteOf[c.n], len(c.data))
	}
	if !c.unit && c.arcOff[c.n] != int64(len(c.weights)) {
		return fmt.Errorf("graph: arc offsets end at %d, weights hold %d", c.arcOff[c.n], len(c.weights))
	}
	maxDeg := 0
	for v := 0; v < c.n; v++ {
		if c.arcOff[v+1] < c.arcOff[v] || c.byteOf[v+1] < c.byteOf[v] {
			return fmt.Errorf("graph: negative extent at vertex %d", v)
		}
		if d := int(c.arcOff[v+1] - c.arcOff[v]); d > maxDeg {
			maxDeg = d
		}
	}
	if maxDeg != c.maxDeg {
		return fmt.Errorf("graph: recorded max degree %d, offsets imply %d", c.maxDeg, maxDeg)
	}
	if c.edges*2 != c.arcOff[c.n] {
		return fmt.Errorf("graph: edge count %d inconsistent with %d arcs", c.edges, c.arcOff[c.n])
	}
	return nil
}
