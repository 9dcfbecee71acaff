package scan

import (
	"math"
	"math/rand"
	"time"

	"anyscan/internal/cluster"
	"anyscan/internal/graph"
	"anyscan/internal/simeval"
	"anyscan/internal/unionfind"
)

// ApproxSCAN is an edge-sampling approximation of SCAN in the spirit of
// LinkSCAN* (Lim et al., ICDE 2014), the approximate competitor the paper's
// related-work section contrasts anySCAN against: each vertex evaluates σ
// on only a ρ fraction of its incident edges (at least minSample, at most
// its degree) and estimates its ε-neighborhood size by scaling the sampled
// hit rate. Clusters are built from the sampled similar core-core edges.
//
// The result approximates SCAN — unlike anySCAN's intermediate results it
// cannot be refined to exactness, which is precisely the contrast the
// paper draws ("it only approximates the result of SCAN", Section V). Use
// rho=1 for exact (then it degenerates to SCAN-B's work profile).
func ApproxSCAN(g *graph.CSR, mu int, eps, rho float64, seed int64) (*cluster.Result, Metrics) {
	start := time.Now()
	if rho <= 0 {
		rho = 0.01
	}
	if rho > 1 {
		rho = 1
	}
	const minSample = 4
	n := g.NumVertices()
	eng := simeval.New(g, eps, simeval.AllOptimizations)
	rng := rand.New(rand.NewSource(seed))

	// Per-vertex sampled similarity testing. similarHit records sampled
	// arcs found similar so cluster building reuses them without paying
	// for the evaluation twice.
	similarHit := make([]bool, g.NumArcs())
	estCore := make([]bool, n)
	scratch := make([]int64, 0, 256)
	for v := int32(0); v < int32(n); v++ {
		lo, hi := g.NeighborRange(v)
		d := int(hi - lo)
		if d+1 < mu {
			continue
		}
		k := int(math.Ceil(rho * float64(d)))
		if k < minSample {
			k = minSample
		}
		if k > d {
			k = d
		}
		// Sample k arcs without replacement (partial Fisher-Yates).
		scratch = scratch[:0]
		for e := lo; e < hi; e++ {
			scratch = append(scratch, e)
		}
		hits := 0
		for i := 0; i < k; i++ {
			j := i + rng.Intn(len(scratch)-i)
			scratch[i], scratch[j] = scratch[j], scratch[i]
			arc := scratch[i]
			q, w := g.Arc(arc)
			if eng.SimilarEdge(v, q, w) {
				similarHit[arc] = true
				hits++
			}
		}
		est := float64(hits) / float64(k) * float64(d)
		estCore[v] = est+1 >= float64(mu)
	}

	// Cluster: union sampled similar edges between estimated cores.
	ds := unionfind.NewConcurrent(n)
	for v := int32(0); v < int32(n); v++ {
		if !estCore[v] {
			continue
		}
		lo, hi := g.NeighborRange(v)
		for e := lo; e < hi; e++ {
			q, _ := g.Arc(e)
			if similarHit[e] && estCore[q] {
				ds.Union(v, q)
			}
		}
	}
	labels := make([]int32, n)
	isCore := make([]bool, n)
	for i := range labels {
		labels[i] = unclassified
	}
	for v := int32(0); v < int32(n); v++ {
		if estCore[v] {
			isCore[v] = true
			labels[v] = ds.Find(v)
		}
	}
	// Borders from sampled similar arcs only (no extra evaluations).
	for v := int32(0); v < int32(n); v++ {
		if !isCore[v] {
			continue
		}
		lo, hi := g.NeighborRange(v)
		for e := lo; e < hi; e++ {
			q, _ := g.Arc(e)
			if similarHit[e] && !isCore[q] && labels[q] == unclassified {
				labels[q] = labels[v]
			}
		}
	}

	res := buildResult(g, labels, isCore)
	m := Metrics{
		Sim:     eng.C.Snapshot(),
		Unions:  int64(n - ds.Sets()),
		Elapsed: time.Since(start),
	}
	return res, m
}
