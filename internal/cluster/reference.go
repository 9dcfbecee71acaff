package cluster

import (
	"fmt"

	"anyscan/internal/graph"
	"anyscan/internal/simeval"
	"anyscan/internal/unionfind"
)

// Reference computes the clustering by following Definitions 2–5 literally:
// evaluate σ on every edge, mark cores, union adjacent similar cores, then
// attach borders. It makes no attempt to be fast and exists as the ground
// truth every optimized algorithm is tested against.
//
// Border vertices claimed by several clusters are attached to the cluster of
// their smallest qualifying core, making Reference fully deterministic.
func Reference(g *graph.CSR, mu int, eps float64) *Result {
	n := g.NumVertices()
	eng := simeval.New(g, eps, simeval.Options{}) // no pruning: literal definition
	similar := edgeSimilarities(g, eng)

	isCore := make([]bool, n)
	for v := int32(0); v < int32(n); v++ {
		cnt := 1 // closed neighborhood: σ(v,v)=1
		lo, hi := g.NeighborRange(v)
		for e := lo; e < hi; e++ {
			if similar[e] {
				cnt++
			}
		}
		isCore[v] = cnt >= mu
	}

	ds := unionfind.NewConcurrent(n)
	for v := int32(0); v < int32(n); v++ {
		if !isCore[v] {
			continue
		}
		lo, hi := g.NeighborRange(v)
		for e := lo; e < hi; e++ {
			q, _ := g.Arc(e)
			if isCore[q] && similar[e] {
				ds.Union(v, q)
			}
		}
	}

	res := NewResult(n)
	// Cluster ids: representative core of each union-find component.
	for v := int32(0); v < int32(n); v++ {
		if isCore[v] {
			res.Roles[v] = Core
			res.Labels[v] = ds.Find(v)
		}
	}
	// Borders: non-core with a similar adjacent core; pick smallest core.
	for v := int32(0); v < int32(n); v++ {
		if isCore[v] {
			continue
		}
		lo, hi := g.NeighborRange(v)
		for e := lo; e < hi; e++ {
			q, _ := g.Arc(e)
			if isCore[q] && similar[e] {
				res.Roles[v] = Border
				res.Labels[v] = ds.Find(q)
				break // neighbors sorted ⇒ smallest qualifying core
			}
		}
	}
	ClassifyNoise(g, res)
	res.Canonicalize()
	return res
}

// edgeSimilarities evaluates σ ≥ ε once per undirected edge and mirrors the
// outcome onto both arcs.
func edgeSimilarities(g *graph.CSR, eng *simeval.Engine) []bool {
	similar := make([]bool, g.NumArcs())
	rev := g.ReverseEdgeIndex()
	n := int32(g.NumVertices())
	for v := int32(0); v < n; v++ {
		lo, hi := g.NeighborRange(v)
		for e := lo; e < hi; e++ {
			q, w := g.Arc(e)
			if v < q {
				ok := eng.SimilarEdge(v, q, w)
				similar[e] = ok
				similar[rev[e]] = ok
			}
		}
	}
	return similar
}

// ClassifyNoise upgrades unlabeled vertices to Hub or Outlier: a noise
// vertex whose (plain) neighbors belong to two or more distinct clusters is
// a hub, otherwise an outlier. Vertices already classified are untouched.
func ClassifyNoise(g graph.Graph, r *Result) {
	for v := int32(0); v < int32(g.NumVertices()); v++ {
		if r.Roles[v] == Core || r.Roles[v] == Border {
			continue
		}
		first := NoLabel
		role := Outlier
		g.EachNeighbor(v, func(_ int, q int32, _ float32) bool {
			l := r.Labels[q]
			if l == NoLabel {
				return true
			}
			if first == NoLabel {
				first = l
			} else if l != first {
				role = Hub
				return false
			}
			return true
		})
		r.Roles[v] = role
	}
}

// Validate checks that res is a correct SCAN clustering of g under (μ, ε):
// roles match the definitions, cores in the same cluster are exactly the
// density-connected components, borders are attached to a qualifying
// cluster, and noise touches no similar core. Returns nil if valid.
func Validate(g *graph.CSR, mu int, eps float64, res *Result) error {
	n := g.NumVertices()
	if res.N() != n {
		return fmt.Errorf("cluster: result has %d vertices, graph has %d", res.N(), n)
	}
	want := Reference(g, mu, eps)

	// Role agreement (hub/outlier split may legitimately differ when shared
	// borders are assigned differently, so compare at noise granularity).
	for v := 0; v < n; v++ {
		gw, gr := want.Roles[v], res.Roles[v]
		if gw == Core != (gr == Core) {
			return fmt.Errorf("cluster: vertex %d: core mismatch (want %v, got %v)", v, gw, gr)
		}
		if gw == Border != (gr == Border) {
			return fmt.Errorf("cluster: vertex %d: border mismatch (want %v, got %v)", v, gw, gr)
		}
		if gw.IsNoise() != gr.IsNoise() {
			return fmt.Errorf("cluster: vertex %d: noise mismatch (want %v, got %v)", v, gw, gr)
		}
	}

	// Core partition must match exactly (bidirectional label bijection).
	if err := coresMatch(want, res); err != nil {
		return err
	}

	// Borders must be attached to the cluster of SOME adjacent similar core.
	eng := simeval.New(g, eps, simeval.Options{})
	for v := int32(0); v < int32(n); v++ {
		if res.Roles[v] != Border {
			continue
		}
		if res.Labels[v] == NoLabel {
			return fmt.Errorf("cluster: border %d has no label", v)
		}
		ok := false
		adj, wts := g.Neighbors(v)
		for i, q := range adj {
			if res.Roles[q] == Core && res.Labels[q] == res.Labels[v] && eng.SimilarEdge(v, q, wts[i]) {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("cluster: border %d attached to cluster %d without a similar core neighbor there", v, res.Labels[v])
		}
	}

	// Noise must carry no label.
	for v := 0; v < n; v++ {
		if res.Roles[v].IsNoise() && res.Labels[v] != NoLabel {
			return fmt.Errorf("cluster: noise vertex %d carries label %d", v, res.Labels[v])
		}
	}
	return nil
}

// coresMatch verifies the two results induce the same partition on core
// vertices.
func coresMatch(a, b *Result) error {
	aToB := map[int32]int32{}
	bToA := map[int32]int32{}
	for v := 0; v < a.N(); v++ {
		if a.Roles[v] != Core {
			continue
		}
		la, lb := a.Labels[v], b.Labels[v]
		if prev, ok := aToB[la]; ok && prev != lb {
			return fmt.Errorf("cluster: core partition split: cluster %d maps to both %d and %d (at vertex %d)", la, prev, lb, v)
		}
		if prev, ok := bToA[lb]; ok && prev != la {
			return fmt.Errorf("cluster: core partition merged: cluster %d maps to both %d and %d (at vertex %d)", lb, prev, la, v)
		}
		aToB[la] = lb
		bToA[lb] = la
	}
	return nil
}

// Equivalent reports whether two results are the same clustering modulo the
// arbitrary assignment of shared border vertices: identical core sets and
// core partition, identical border and noise sets, and (strictly) identical
// labels for non-shared borders is not required — border attachment validity
// is the caller's concern (see Validate).
func Equivalent(a, b *Result) error {
	if a.N() != b.N() {
		return fmt.Errorf("cluster: vertex count mismatch %d vs %d", a.N(), b.N())
	}
	for v := 0; v < a.N(); v++ {
		if (a.Roles[v] == Core) != (b.Roles[v] == Core) {
			return fmt.Errorf("cluster: vertex %d core mismatch", v)
		}
		if (a.Roles[v] == Border) != (b.Roles[v] == Border) {
			return fmt.Errorf("cluster: vertex %d border mismatch", v)
		}
	}
	return coresMatch(a, b)
}
