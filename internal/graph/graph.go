// Package graph provides the weighted undirected graph substrate shared by
// every clustering algorithm in this repository.
//
// Graphs are stored in compressed sparse row (CSR) form: a flat, sorted
// adjacency array with parallel edge weights. The layout is chosen for the
// access patterns of structural graph clustering — sort-merge joins between
// adjacency lists dominate the runtime (Definition 1 of the paper) — and to
// keep garbage-collector pressure low on multi-million-edge graphs: no
// per-vertex allocations, int32 vertex ids, float32 weights.
//
// Following Section II of the paper, similarity uses the *closed*
// neighborhood convention: every vertex conceptually carries a self-loop of
// weight 1, so the weighted structural similarity degenerates to the
// original (unweighted) SCAN similarity when all edge weights are 1. The
// per-vertex norms needed by Definition 1 and the Lemma 5 pruning bound are
// precomputed at construction time.
package graph

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// SelfWeight is the implicit self-loop weight of the closed neighborhood
// convention (Section II-A).
const SelfWeight = 1.0

// CSR is an immutable weighted undirected graph in compressed sparse row
// form. Use a Builder to construct one. All exported methods are safe for
// concurrent use because the structure is never mutated after Build.
type CSR struct {
	offsets   []int64 // len n+1; adjacency of v is [offsets[v], offsets[v+1])
	neighbors []int32 // sorted within each vertex's range
	// weights is parallel to neighbors, or nil when every weight is 1: then
	// ones, a run of 1s as long as the largest degree, stands in for any
	// vertex's weights (finalize decides, as CompressedCSR does).
	weights []float32
	ones    []float32

	// Precomputed per-vertex quantities (Section II-A and Lemma 5):
	norm     []float64 // l_p = SelfWeight^2 + Σ_{r∈N(p)} w_pr²
	sqrtNorm []float64 // √l_p, cached to avoid math.Sqrt on the hot path
	maxW     []float32 // w_p = max_{q∈N(p)} w_pq (0 for isolated vertices)

	revOnce sync.Once
	rev     []int64 // reverse edge index (lazy; see ReverseEdgeIndex)
}

// NumVertices returns the number of vertices.
func (g *CSR) NumVertices() int { return len(g.offsets) - 1 }

// NumEdges returns the number of undirected edges.
func (g *CSR) NumEdges() int64 { return int64(len(g.neighbors)) / 2 }

// NumArcs returns the number of directed arcs (2 per undirected edge).
func (g *CSR) NumArcs() int64 { return int64(len(g.neighbors)) }

// Degree returns the number of neighbors of v (excluding the implicit self-loop).
func (g *CSR) Degree(v int32) int {
	return int(g.offsets[v+1] - g.offsets[v])
}

// Neighbors returns the sorted adjacency list of v and the parallel weight
// slice. The returned slices alias internal storage and must not be modified.
func (g *CSR) Neighbors(v int32) ([]int32, []float32) {
	lo, hi := g.offsets[v], g.offsets[v+1]
	return g.neighbors[lo:hi], g.weightsOf(lo, hi)
}

// weightsOf returns the weights of arcs [lo, hi). A unit-weight graph hands
// out its shared run of 1s capped at its length, so an append cannot write
// into it.
func (g *CSR) weightsOf(lo, hi int64) []float32 {
	if g.weights == nil {
		d := hi - lo
		return g.ones[:d:d]
	}
	return g.weights[lo:hi]
}

// weight returns the weight of arc e.
func (g *CSR) weight(e int64) float32 {
	if g.weights == nil {
		return 1
	}
	return g.weights[e]
}

// NeighborRange returns the half-open arc-index range of v's adjacency.
func (g *CSR) NeighborRange(v int32) (lo, hi int64) {
	return g.offsets[v], g.offsets[v+1]
}

// Arc returns the head vertex and weight of arc e.
func (g *CSR) Arc(e int64) (head int32, w float32) {
	return g.neighbors[e], g.weight(e)
}

// Norm returns l_v = SelfWeight² + Σ w², the closed-neighborhood weighted
// norm used as the denominator term of Definition 1.
func (g *CSR) Norm(v int32) float64 { return g.norm[v] }

// SqrtNorm returns √Norm(v).
func (g *CSR) SqrtNorm(v int32) float64 { return g.sqrtNorm[v] }

// MaxWeight returns w_v = max over v's incident edge weights (Lemma 5), or 0
// if v is isolated.
func (g *CSR) MaxWeight(v int32) float32 { return g.maxW[v] }

// HasEdge reports whether the undirected edge (u,v) exists.
func (g *CSR) HasEdge(u, v int32) bool {
	_, ok := g.FindArc(u, v)
	return ok
}

// FindArc returns the arc index of u→v if the edge exists.
func (g *CSR) FindArc(u, v int32) (int64, bool) {
	lo, hi := g.offsets[u], g.offsets[u+1]
	adj := g.neighbors[lo:hi]
	i := sort.Search(len(adj), func(i int) bool { return adj[i] >= v })
	if i < len(adj) && adj[i] == v {
		return lo + int64(i), true
	}
	return 0, false
}

// EdgeWeight returns the weight of edge (u,v), or 0 if absent.
func (g *CSR) EdgeWeight(u, v int32) float32 {
	if e, ok := g.FindArc(u, v); ok {
		return g.weight(e)
	}
	return 0
}

// ReverseEdgeIndex returns rev such that for every arc e = u→v,
// rev[e] is the arc index of v→u. The index is computed on first use and
// cached; computing it is O(|E|) using per-vertex cursors. It is used by
// pSCAN and SCAN++ to share one similarity memo slot per undirected edge.
//
// Safe for concurrent use: first callers race to compute the index behind a
// sync.Once, so a graph shared by several concurrent clustering runs (as in
// the anyscand service) needs no external coordination.
func (g *CSR) ReverseEdgeIndex() []int64 {
	g.revOnce.Do(func() {
		rev := make([]int64, len(g.neighbors))
		cursor := make([]int64, g.NumVertices())
		for v := range cursor {
			cursor[v] = g.offsets[v]
		}
		for u := int32(0); u < int32(g.NumVertices()); u++ {
			for e := g.offsets[u]; e < g.offsets[u+1]; e++ {
				v := g.neighbors[e]
				if u <= v {
					continue // handled from the smaller endpoint
				}
				// cursor[v] advances monotonically through v's sorted adjacency;
				// u values arrive in increasing order for fixed v.
				c := cursor[v]
				for g.neighbors[c] != u {
					c++
				}
				cursor[v] = c + 1
				rev[e] = c
				rev[c] = e
			}
		}
		g.rev = rev
	})
	return g.rev
}

// Validate checks structural invariants (sortedness, symmetry, no self
// loops, positive weights) and returns a descriptive error on the first
// violation it meets. Every .bin load runs it. It is one sequential O(|E|)
// pass: the reverse of each arc v→u with v < u is matched through one
// monotone cursor per vertex (the walk of PropagateMirrors), because for
// fixed u those arcs arrive in ascending v, which is the order of u's
// neighbors below u. It accepts exactly the arrays a per-arc search for
// every reverse arc accepts, but where several arcs are at fault the first
// error may name a different one.
func (g *CSR) Validate() error {
	n := int32(g.NumVertices())
	if g.weights != nil && len(g.neighbors) != len(g.weights) {
		return fmt.Errorf("graph: neighbors/weights length mismatch %d != %d", len(g.neighbors), len(g.weights))
	}
	if g.offsets[0] != 0 || g.offsets[n] != int64(len(g.neighbors)) {
		return fmt.Errorf("graph: offset bounds corrupt")
	}
	// Every range first: the symmetry check below reads a neighbor's range,
	// which may lie ahead of v.
	for v := int32(0); v < n; v++ {
		if g.offsets[v] > g.offsets[v+1] {
			return fmt.Errorf("graph: negative degree at vertex %d", v)
		}
	}
	// cursor[u] is the first arc of u not yet matched as the reverse of an
	// arc into u from below.
	cursor := make([]int64, n)
	copy(cursor, g.offsets)
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
			// !(w > 0) also catches NaN, which compares false to everything.
			if w := g.weight(e); !(w > 0) || math.IsInf(float64(w), 0) {
				return fmt.Errorf("graph: non-positive or non-finite weight %v on edge (%d,%d)", w, v, u)
			}
			if u < v {
				continue // matched from u's side
			}
			r := cursor[u]
			if r == g.offsets[u+1] || g.neighbors[r] > v {
				return fmt.Errorf("graph: edge (%d,%d) missing reverse arc", v, u)
			}
			if g.neighbors[r] < v {
				return fmt.Errorf("graph: edge (%d,%d) missing reverse arc", u, g.neighbors[r])
			}
			if g.weight(r) != g.weight(e) {
				return fmt.Errorf("graph: asymmetric weight on edge (%d,%d)", v, u)
			}
			cursor[u] = r + 1
		}
		// Every arc of v to a lower id has now been matched.
		if r := cursor[v]; r < hi && g.neighbors[r] < v {
			return fmt.Errorf("graph: edge (%d,%d) missing reverse arc", v, g.neighbors[r])
		}
	}
	return nil
}

// NormOf returns l_v = SelfWeight² + Σ w² of a vertex whose edge weights, in
// ascending neighbor order, are w: the closed-neighborhood norm of
// Definition 1. It is the one accumulation of a norm, so every adjacency
// with the same weights gets the same bits, whoever builds it.
func NormOf(w []float32) float64 {
	l := float64(SelfWeight) * float64(SelfWeight)
	for _, x := range w {
		l += float64(x) * float64(x)
	}
	return l
}

// finalize computes the derived per-vertex arrays and, when every weight is
// 1, drops the weight array for a shared run of 1s. Every constructor ends
// here, so a CSR keeps its weights exactly when some weight is not 1. A CSR
// that arrives without weights gets its run of 1s first, so each vertex's
// norm is NormOf of the weights Neighbors hands out, taken while they are
// in cache from the max and unit checks.
func (g *CSR) finalize() {
	n := g.NumVertices()
	g.norm = make([]float64, n)
	g.sqrtNorm = make([]float64, n)
	g.maxW = make([]float32, n)
	maxDeg := 0
	for v := range n {
		maxDeg = max(maxDeg, int(g.offsets[v+1]-g.offsets[v]))
	}
	if g.weights == nil {
		g.ones = onesSlice(maxDeg)
	}
	unit := true
	for v := range n {
		w := g.weightsOf(g.offsets[v], g.offsets[v+1])
		var mw float32
		for _, x := range w {
			if x > mw {
				mw = x
			}
			unit = unit && x == 1
		}
		g.norm[v] = NormOf(w)
		g.sqrtNorm[v] = sqrt(g.norm[v])
		g.maxW[v] = mw
	}
	if unit && g.weights != nil {
		g.weights, g.ones = nil, onesSlice(maxDeg)
	}
}
