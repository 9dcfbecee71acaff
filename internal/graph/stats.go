package graph

import "math/rand"

// Stats summarizes the dataset characteristics the paper reports in
// Tables I and II: vertex count, edge count, average degree d̄, and average
// (local) clustering coefficient c.
type Stats struct {
	Vertices  int
	Edges     int64
	AvgDegree float64
	AvgCC     float64
	MaxDegree int
}

// ComputeStats returns exact statistics. The clustering coefficient is the
// mean local coefficient over vertices with degree ≥ 2 (degree < 2 vertices
// contribute 0, matching networkx's average_clustering convention used by
// the SNAP dataset pages the paper cites).
func ComputeStats(g *CSR) Stats {
	s := Stats{Vertices: g.NumVertices(), Edges: g.NumEdges()}
	if s.Vertices == 0 {
		return s
	}
	s.AvgDegree = float64(g.NumArcs()) / float64(s.Vertices)
	var ccSum float64
	for v := int32(0); v < int32(s.Vertices); v++ {
		d := g.Degree(v)
		if d > s.MaxDegree {
			s.MaxDegree = d
		}
		ccSum += localCC(g, v)
	}
	s.AvgCC = ccSum / float64(s.Vertices)
	return s
}

// ApproxAvgCC estimates the average clustering coefficient from a uniform
// sample of vertices; for samples >= n it is exact. Deterministic for a
// given seed.
func ApproxAvgCC(g *CSR, samples int, seed int64) float64 {
	n := g.NumVertices()
	if n == 0 {
		return 0
	}
	if samples >= n {
		var sum float64
		for v := int32(0); v < int32(n); v++ {
			sum += localCC(g, v)
		}
		return sum / float64(n)
	}
	rng := rand.New(rand.NewSource(seed))
	var sum float64
	for i := 0; i < samples; i++ {
		sum += localCC(g, int32(rng.Intn(n)))
	}
	return sum / float64(samples)
}

// localCC returns the local clustering coefficient of v: the fraction of
// pairs of v's neighbors that are themselves adjacent.
func localCC(g *CSR, v int32) float64 {
	d := g.Degree(v)
	if d < 2 {
		return 0
	}
	adj, _ := g.Neighbors(v)
	links := 0
	for i, u := range adj {
		uAdj, _ := g.Neighbors(u)
		// Count neighbors of u that appear later in adj (each triangle once).
		links += intersectCount(uAdj, adj[i+1:])
	}
	return 2 * float64(links) / (float64(d) * float64(d-1))
}

// intersectCount returns |a ∩ b| for two sorted int32 slices.
func intersectCount(a, b []int32) int {
	i, j, c := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			c++
			i++
			j++
		}
	}
	return c
}

// ConnectedComponents returns the number of connected components and a
// component label per vertex (BFS over an explicit stack; no recursion).
func ConnectedComponents(g *CSR) (int, []int32) {
	n := g.NumVertices()
	label := make([]int32, n)
	for i := range label {
		label[i] = -1
	}
	var stack []int32
	comps := int32(0)
	for v := int32(0); v < int32(n); v++ {
		if label[v] >= 0 {
			continue
		}
		label[v] = comps
		stack = append(stack[:0], v)
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			adj, _ := g.Neighbors(u)
			for _, w := range adj {
				if label[w] < 0 {
					label[w] = comps
					stack = append(stack, w)
				}
			}
		}
		comps++
	}
	return int(comps), label
}
