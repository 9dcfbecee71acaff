// Package scan implements the exact batch competitors evaluated in
// Section IV of the paper: the original SCAN (Xu et al., KDD'07), SCAN-B
// (SCAN plus the Section III-D pruning optimizations), pSCAN (Chang et al.,
// ICDE'16) and SCAN++ (Shiokawa et al., VLDB'15), all generalized to
// weighted graphs exactly like anySCAN, plus the "ideal" embarrassingly
// parallel similarity evaluator used as the scalability yardstick of
// Fig. 11. All algorithms produce the same clustering (modulo shared-border
// assignment) and report comparable work metrics.
package scan

import (
	"time"

	"anyscan/internal/cluster"
	"anyscan/internal/graph"
	"anyscan/internal/simeval"
)

// Metrics reports the work an algorithm performed, in the units the paper
// plots: structural similarity evaluations (Fig. 7), merging Union
// operations (Fig. 12: n − Sets() of the run's forest, since each merge
// removes one set) and wall-clock time.
type Metrics struct {
	Sim     simeval.CounterValues
	Unions  int64
	Elapsed time.Duration
}

const unclassified = int32(-2)

// SCAN runs the original SCAN algorithm: BFS cluster expansion with a full
// ε-neighborhood query per visited vertex and no similarity pruning. Its
// similarity count is Σ_v deg(v) = 2|E|, the paper's baseline workload.
func SCAN(g graph.Graph, mu int, eps float64) (*cluster.Result, Metrics) {
	return scanImpl(g, mu, eps, simeval.Options{})
}

// SCANB runs SCAN-B: the SCAN control flow with the Lemma 5 upper-bound
// prune and merge-join early exits enabled (Section III-D / Section IV-A).
func SCANB(g graph.Graph, mu int, eps float64) (*cluster.Result, Metrics) {
	return scanImpl(g, mu, eps, simeval.AllOptimizations)
}

func scanImpl(g graph.Graph, mu int, eps float64, opt simeval.Options) (*cluster.Result, Metrics) {
	start := time.Now()
	n := g.NumVertices()
	eng := simeval.New(g, eps, opt)

	labels := make([]int32, n)
	for i := range labels {
		labels[i] = unclassified
	}
	isCore := make([]bool, n)

	var queue []int32
	var epsBuf []int32 // scratch: similar neighbors of the current vertex

	// epsNeighbors fills epsBuf with v's similar neighbors and returns the
	// closed ε-neighborhood size (|N^ε[v]| including v itself).
	epsNeighbors := func(v int32) int {
		epsBuf = epsBuf[:0]
		g.EachNeighbor(v, func(_ int, q int32, w float32) bool {
			if eng.SimilarEdge(v, q, w) {
				epsBuf = append(epsBuf, q)
			}
			return true
		})
		return len(epsBuf) + 1
	}

	nextCluster := int32(0)
	for v := int32(0); v < int32(n); v++ {
		if labels[v] != unclassified {
			continue
		}
		if epsNeighbors(v) < mu {
			labels[v] = cluster.NoLabel // noise for now; may become border later
			continue
		}
		// v is a core: start a new cluster and expand.
		cid := nextCluster
		nextCluster++
		isCore[v] = true
		labels[v] = cid
		queue = queue[:0]
		for _, q := range epsBuf {
			if labels[q] == unclassified {
				labels[q] = cid
				queue = append(queue, q)
			} else if labels[q] == cluster.NoLabel {
				labels[q] = cid // former noise becomes border
			}
		}
		for len(queue) > 0 {
			y := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			if epsNeighbors(y) < mu {
				continue // y is a border of cid
			}
			isCore[y] = true
			for _, x := range epsBuf {
				switch labels[x] {
				case unclassified:
					labels[x] = cid
					queue = append(queue, x)
				case cluster.NoLabel:
					labels[x] = cid
				}
			}
		}
	}

	res := buildResult(g, labels, isCore)
	m := Metrics{Sim: eng.C.Snapshot(), Elapsed: time.Since(start)}
	return res, m
}

// buildResult converts raw labels + core flags into a canonical Result with
// noise classified into hubs and outliers.
func buildResult(g graph.Graph, labels []int32, isCore []bool) *cluster.Result {
	res := cluster.NewResult(len(labels))
	for v := range labels {
		l := labels[v]
		if l == unclassified {
			l = cluster.NoLabel
		}
		res.Labels[v] = l
		switch {
		case isCore[v]:
			res.Roles[v] = cluster.Core
		case l != cluster.NoLabel:
			res.Roles[v] = cluster.Border
		}
	}
	cluster.ClassifyNoise(g, res)
	res.Canonicalize()
	return res
}
