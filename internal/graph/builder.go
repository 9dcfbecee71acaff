package graph

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

func sqrt(x float64) float64 { return math.Sqrt(x) }

// Builder accumulates undirected weighted edges and produces an immutable
// CSR. It tolerates duplicate edges (the first weight wins), reversed
// duplicates, and silently drops self loops, so loaders and generators can
// feed it raw data.
//
// The zero value is ready to use.
type Builder struct {
	edges []rawEdge
	n     int32 // max vertex id seen + 1, or explicit via SetNumVertices
}

type rawEdge struct {
	u, v int32
	w    float32
}

// SetNumVertices forces the vertex count to at least n, so isolated vertices
// at the tail of the id space are preserved.
func (b *Builder) SetNumVertices(n int) {
	if int32(n) > b.n {
		b.n = int32(n)
	}
}

// AddEdge records the undirected edge (u,v) with weight w. Self loops are
// dropped (the closed-neighborhood self loop is implicit, per Section II-A).
// Non-positive or non-finite weights are clamped to 1.
func (b *Builder) AddEdge(u, v int32, w float32) {
	if u == v {
		return
	}
	if !(w > 0) || math.IsInf(float64(w), 0) {
		w = 1
	}
	if u > v {
		u, v = v, u
	}
	b.edges = append(b.edges, rawEdge{u, v, w})
	if v+1 > b.n {
		b.n = v + 1
	}
}

// AddEdgeUnweighted records (u,v) with weight 1.
func (b *Builder) AddEdgeUnweighted(u, v int32) { b.AddEdge(u, v, 1) }

// NumEdgesBuffered returns the number of (possibly duplicate) edges recorded.
func (b *Builder) NumEdgesBuffered() int { return len(b.edges) }

// Build sorts, deduplicates, symmetrizes and freezes the graph. The Builder
// can be reused afterwards (it keeps its buffered edges).
func (b *Builder) Build() (*CSR, error) {
	if b.n == 0 && len(b.edges) == 0 {
		return empty(), nil
	}
	for _, e := range b.edges {
		if e.u < 0 {
			return nil, fmt.Errorf("graph: negative vertex id %d", e.u)
		}
	}
	sort.Slice(b.edges, func(i, j int) bool {
		if b.edges[i].u != b.edges[j].u {
			return b.edges[i].u < b.edges[j].u
		}
		return b.edges[i].v < b.edges[j].v
	})
	// Deduplicate in place: first occurrence wins.
	uniq := b.edges[:0]
	for i, e := range b.edges {
		if i > 0 && e.u == uniq[len(uniq)-1].u && e.v == uniq[len(uniq)-1].v {
			continue
		}
		uniq = append(uniq, e)
	}
	b.edges = uniq

	n := int(b.n)
	deg := make([]int64, n+1)
	for _, e := range b.edges {
		deg[e.u+1]++
		deg[e.v+1]++
	}
	offsets := make([]int64, n+1)
	for v := 1; v <= n; v++ {
		offsets[v] = offsets[v-1] + deg[v]
	}
	m := offsets[n]
	neighbors := make([]int32, m)
	weights := make([]float32, m)
	cursor := make([]int64, n)
	copy(cursor, offsets[:n])
	for _, e := range b.edges {
		neighbors[cursor[e.u]], weights[cursor[e.u]] = e.v, e.w
		cursor[e.u]++
		neighbors[cursor[e.v]], weights[cursor[e.v]] = e.u, e.w
		cursor[e.v]++
	}
	// Each adjacency list must be sorted. Arcs u→v with u<v were appended in
	// sorted v order already; arcs v→u arrive in sorted u order too, but the
	// two interleave, so sort each range (cheap: lists are nearly sorted).
	g := &CSR{offsets: offsets, neighbors: neighbors, weights: weights}
	for v := 0; v < n; v++ {
		lo, hi := offsets[v], offsets[v+1]
		sortAdjacency(neighbors[lo:hi], weights[lo:hi])
	}
	g.finalize()
	return g, nil
}

// MustBuild is Build but panics on error; for tests and generators whose
// inputs are known valid.
func (b *Builder) MustBuild() *CSR {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

func empty() *CSR {
	g := &CSR{offsets: []int64{0}}
	g.finalize()
	return g
}

// sortAdjacency sorts the neighbor slice and keeps weights parallel; w is
// nil for a unit-weight graph.
func sortAdjacency(adj []int32, w []float32) {
	if sort.SliceIsSorted(adj, func(i, j int) bool { return adj[i] < adj[j] }) {
		return
	}
	if w == nil {
		slices.Sort(adj)
		return
	}
	idx := make([]int32, len(adj))
	for i := range idx {
		idx[i] = int32(i)
	}
	sort.Slice(idx, func(i, j int) bool { return adj[idx[i]] < adj[idx[j]] })
	adjCopy := append([]int32(nil), adj...)
	wCopy := append([]float32(nil), w...)
	for i, k := range idx {
		adj[i], w[i] = adjCopy[k], wCopy[k]
	}
}

// FromEdges is a convenience constructor building a graph from an edge list
// of (u, v, w) triples.
func FromEdges(n int, edges [][3]float64) (*CSR, error) {
	var b Builder
	b.SetNumVertices(n)
	for _, e := range edges {
		b.AddEdge(int32(e[0]), int32(e[1]), float32(e[2]))
	}
	return b.Build()
}

// FromUnweightedEdges builds a weight-1 graph from (u, v) pairs.
func FromUnweightedEdges(n int, edges [][2]int32) (*CSR, error) {
	var b Builder
	b.SetNumVertices(n)
	for _, e := range edges {
		b.AddEdgeUnweighted(e[0], e[1])
	}
	return b.Build()
}
