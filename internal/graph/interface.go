package graph

// Graph is the read-only access interface every clustering algorithm in this
// repository iterates through. Two backends satisfy it: *CSR (flat adjacency
// arrays, zero-cost random access) and *CompressedCSR (varint byte-delta
// encoded adjacency, ~3-5x smaller, optionally mmap-backed so graphs larger
// than RAM can be served).
//
// The interface deliberately excludes Arc(e) random access and
// ReverseEdgeIndex: both force O(1) addressing of individual arcs, which a
// delta-encoded backend cannot provide without decompressing. Hot loops that
// previously indexed arcs walk EachNeighbor (which reports the arc index of
// every neighbor) or a Cursor instead, and mirror writes that previously went
// through the reverse edge index use PropagateMirrors.
//
// All implementations are immutable after construction and safe for
// concurrent use.
type Graph interface {
	// NumVertices returns the number of vertices.
	NumVertices() int
	// NumEdges returns the number of undirected edges.
	NumEdges() int64
	// NumArcs returns the number of directed arcs (2 per undirected edge).
	NumArcs() int64
	// Degree returns the neighbor count of v (excluding the implicit
	// self-loop of the closed-neighborhood convention).
	Degree(v int32) int
	// NeighborRange returns the half-open arc-index range of v's adjacency.
	// Arc indexes order all adjacency lists back to back in vertex order, on
	// every backend; they index per-arc side arrays (σ, thresholds, …).
	NeighborRange(v int32) (lo, hi int64)
	// Neighbors returns v's sorted adjacency and parallel weights. The
	// returned slices are read-only views; a compressed backend may allocate
	// on every call, so hot loops should use EachNeighbor or a Cursor.
	Neighbors(v int32) ([]int32, []float32)
	// EachNeighbor calls yield(i, u, w) for each neighbor u of v with weight
	// w, in ascending u order; i is the position within v's adjacency, so the
	// arc index is lo+i with lo from NeighborRange. Iteration stops early
	// when yield returns false; EachNeighbor reports whether the full list
	// was visited. It never allocates.
	EachNeighbor(v int32, yield func(i int, u int32, w float32) bool) bool
	// Norm returns l_v = SelfWeight² + Σ w², the closed-neighborhood weighted
	// norm of Definition 1.
	Norm(v int32) float64
	// SqrtNorm returns √Norm(v), cached.
	SqrtNorm(v int32) float64
	// MaxWeight returns max over v's incident edge weights (Lemma 5), or 0
	// for an isolated vertex.
	MaxWeight(v int32) float32
	// HasEdge reports whether the undirected edge (u,v) exists.
	HasEdge(u, v int32) bool
	// EdgeWeight returns the weight of edge (u,v), or 0 if absent.
	EdgeWeight(u, v int32) float32
}

var (
	_ Graph = (*CSR)(nil)
	_ Graph = (*CompressedCSR)(nil)
)

// Sizer is implemented by backends that can report their memory footprint;
// the anyscand /metrics endpoint sums these over the registry.
type Sizer interface {
	// Bytes is the total logical size of the graph's storage.
	Bytes() int64
	// ResidentBytes is the heap-resident portion of Bytes: for an
	// mmap-backed graph the adjacency pages live in the page cache and do
	// not count, so ResidentBytes can be far below Bytes.
	ResidentBytes() int64
}

// EachNeighbor implements Graph for *CSR by walking the flat arrays.
func (g *CSR) EachNeighbor(v int32, yield func(i int, u int32, w float32) bool) bool {
	lo, hi := g.offsets[v], g.offsets[v+1]
	adj, wt := g.neighbors[lo:hi], g.weightsOf(lo, hi)
	for i, u := range adj {
		if !yield(i, u, wt[i]) {
			return false
		}
	}
	return true
}

// Bytes returns the total size of the CSR's storage arrays.
func (g *CSR) Bytes() int64 {
	return int64(len(g.offsets))*8 + int64(len(g.neighbors))*4 + int64(len(g.weights)+len(g.ones))*4 +
		int64(len(g.norm))*8 + int64(len(g.sqrtNorm))*8 + int64(len(g.maxW))*4
}

// ResidentBytes equals Bytes for the heap-backed CSR.
func (g *CSR) ResidentBytes() int64 { return g.Bytes() }

// Materialize returns g as a concrete *CSR, decompressing or rebuilding when
// necessary. Algorithms that genuinely need flat random-access arrays (the
// anytime clusterer's checkpointable state, pSCAN, SCAN++) call this at their
// boundary; everything else iterates through the interface.
func Materialize(g Graph) *CSR {
	switch t := g.(type) {
	case *CSR:
		return t
	case *CompressedCSR:
		return t.Decompress()
	default:
		n := g.NumVertices()
		var b Builder
		b.SetNumVertices(n)
		for v := int32(0); v < int32(n); v++ {
			g.EachNeighbor(v, func(_ int, u int32, w float32) bool {
				if u > v {
					b.AddEdge(v, u, w)
				}
				return true
			})
		}
		return b.MustBuild()
	}
}

// Cursor provides zero-allocation adjacency reads from any backend. For a
// *CSR it returns aliases of the flat arrays (free); for a *CompressedCSR it
// decodes into buffers owned by the cursor, reused across calls. A cursor is
// NOT safe for concurrent use and each Neighbors call invalidates the slices
// returned by the previous one — use one cursor per worker, and two when a
// kernel holds two adjacency lists at once.
type Cursor struct {
	g   Graph
	csr *CSR
	cg  *CompressedCSR
	nbr []int32
	wt  []float32
}

// NewCursor returns a cursor over g with buffers sized to g's maximum degree.
func NewCursor(g Graph) *Cursor {
	c := &Cursor{g: g}
	switch t := g.(type) {
	case *CSR:
		c.csr = t
	case *CompressedCSR:
		c.cg = t
		c.nbr = make([]int32, t.MaxDegree())
	default:
		c.nbr = make([]int32, 0, 64)
		c.wt = make([]float32, 0, 64)
	}
	return c
}

// Neighbors returns v's sorted adjacency and weights. The slices are valid
// until the next call on this cursor.
func (c *Cursor) Neighbors(v int32) ([]int32, []float32) {
	switch {
	case c.csr != nil:
		return c.csr.Neighbors(v)
	case c.cg != nil:
		return c.cg.decodeInto(v, c.nbr)
	default:
		c.nbr, c.wt = c.nbr[:0], c.wt[:0]
		c.g.EachNeighbor(v, func(_ int, u int32, w float32) bool {
			c.nbr = append(c.nbr, u)
			c.wt = append(c.wt, w)
			return true
		})
		return c.nbr, c.wt
	}
}

// UnitWeights reports whether every edge weight of g is exactly 1: the
// unweighted SCAN case, where σ's numerator is the integer 2 + |N(p)∩N(q)|.
// Both backends answer in O(1), since they keep no weight array exactly
// then; any other Graph is scanned, so callers evaluate it once per build.
func UnitWeights(g Graph) bool {
	switch t := g.(type) {
	case *CompressedCSR:
		return t.unit
	case *CSR:
		return t.weights == nil
	}
	n := g.NumVertices()
	unit := true
	for v := int32(0); v < int32(n) && unit; v++ {
		g.EachNeighbor(v, func(_ int, _ int32, w float32) bool {
			if w != 1 {
				unit = false
				return false
			}
			return true
		})
	}
	return unit
}

// NeighborWeights returns v's edge weights in adjacency order without
// decoding its ids: a storage alias on both backends, O(1), the shared run
// of 1s on a unit-weight graph. Read-only; any other Graph is asked for
// its Neighbors.
func NeighborWeights(g Graph, v int32) []float32 {
	switch t := g.(type) {
	case *CSR:
		return t.weightsOf(t.offsets[v], t.offsets[v+1])
	case *CompressedCSR:
		lo, hi := t.arcOff[v], t.arcOff[v+1]
		if t.unit {
			return t.ones[: hi-lo : hi-lo]
		}
		return t.weights[lo:hi]
	}
	_, w := g.Neighbors(v)
	return w
}

// PropagateMirrors copies per-arc values from each arc's canonical slot to
// its mirror: after a pass that fills vals[e] for every arc e = (p,q) with
// q > p, PropagateMirrors fills vals[f] for the reverse arc f = (q,p). This
// replaces writes through ReverseEdgeIndex, which a compressed backend cannot
// offer: the compressed walk keeps one monotone decoder position per vertex
// (u values arrive in ascending order for fixed q, matching q's sorted
// adjacency prefix), so the whole fill is O(|arcs|) with no 8-byte-per-arc
// reverse index ever materialized.
func PropagateMirrors[T any](g Graph, vals []T) {
	n := int32(g.NumVertices())
	// cursor[q] is the next unfilled slot in q's adjacency prefix of ids < q.
	// Since p ascends and adjacency lists are sorted, the mirror writes into q
	// arrive in exactly q's prefix order, so each arc (q,p) with p < q is
	// found by advancing cursor[q] once — without ever decoding q's list.
	cursor := make([]int64, n)
	for q := int32(0); q < n; q++ {
		lo, _ := g.NeighborRange(q)
		cursor[q] = lo
	}
	for p := int32(0); p < n; p++ {
		lo, _ := g.NeighborRange(p)
		g.EachNeighbor(p, func(i int, q int32, _ float32) bool {
			if q > p {
				vals[cursor[q]] = vals[lo+int64(i)]
				cursor[q]++
			}
			return true
		})
	}
}
