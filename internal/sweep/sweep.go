// Package sweep implements interactive ε exploration for structural graph
// clustering: evaluate every edge similarity once, then answer "what is the
// clustering at ε?" for any number of thresholds without recomputing a
// single σ.
//
// This addresses the parameter-setting problem the paper's related-work
// section attributes to SCOT and HintClus (Section V): SCAN's output is
// very sensitive to ε, and users typically probe several values. The
// observation making the sweep cheap is that every SCAN decision is a
// threshold test:
//
//   - vertex v is a core at ε  ⇔  ε ≤ coreThr(v), where coreThr(v) is the
//     (μ-1)-th largest similarity among v's edges (σ(v,v)=1 supplies the
//     μ-th);
//   - a core-core edge (u,v) merges two clusters at ε  ⇔
//     ε ≤ min(σ(u,v), coreThr(u), coreThr(v));
//   - a non-core v is a border of q's cluster at ε  ⇔
//     ε ≤ min(σ(v,q), coreThr(q)) for an adjacent q.
//
// So one O(|E|) similarity pass (parallelized like the paper's "ideal"
// algorithm) plus one sort yields a structure from which the clustering at
// any ε follows by a union-find replay — the same dendrogram idea as
// single-linkage clustering, specialized to SCAN semantics.
package sweep

import (
	"fmt"
	"math"
	"sort"

	"anyscan/internal/cluster"
	"anyscan/internal/graph"
	"anyscan/internal/index"
	"anyscan/internal/unionfind"
)

// Explorer answers clustering queries at arbitrary ε for a fixed (graph, μ).
//
// An Explorer is immutable once NewExplorer returns: every query method
// (ClusteringAt, SweepProfile, InterestingThresholds, Dendrogram,
// CoreThreshold, Sigma) only reads the precomputed threshold structures and
// allocates its own scratch state (a fresh union-find per replay), so one
// Explorer is safe for any number of concurrent readers with no external
// locking.
type Explorer struct {
	g  graph.Graph
	mu int

	coreThr []float64   // max ε at which v is still a core; 0 = never
	edges   []mergeEdge // core-core merge events, sorted by threshold desc
	sigma   []float64   // per-arc σ (both directions)
}

type mergeEdge struct {
	thr  float64
	u, v int32
}

// NewExplorer evaluates all |E| similarities with the given number of
// workers and prepares the threshold structures. Cost: one exact σ per
// undirected edge (the query index's σ pass, see index.Build) plus an
// O(|E| log |E|) sort.
func NewExplorer(g graph.Graph, mu int, threads int) (*Explorer, error) {
	if mu < 1 {
		return nil, fmt.Errorf("sweep: mu must be >= 1, got %d", mu)
	}
	return FromIndex(index.Build(g, threads), mu)
}

// mergeEvents collects each undirected edge's merge threshold
// min(σ, coreThr(u), coreThr(v)) and sorts the events by threshold
// descending, the replay order ClusteringAt consumes.
func mergeEvents(g graph.Graph, sigma, coreThr []float64) []mergeEdge {
	var edges []mergeEdge
	for v := int32(0); v < int32(g.NumVertices()); v++ {
		lo, _ := g.NeighborRange(v)
		g.EachNeighbor(v, func(j int, q int32, _ float32) bool {
			if v >= q {
				return true
			}
			thr := math.Min(sigma[lo+int64(j)], math.Min(coreThr[v], coreThr[q]))
			if thr > 0 {
				edges = append(edges, mergeEdge{thr, v, q})
			}
			return true
		})
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i].thr > edges[j].thr })
	return edges
}

// FromIndex derives a μ-fixed Explorer from a per-graph query index without
// re-evaluating a single similarity: the index already holds every per-arc
// activation threshold, so only the O(n) core thresholds (an O(1) lookup
// each) and the O(|E| log |E|) merge-event sort remain. The Explorer shares
// the index's σ storage (both treat it as read-only), so the μ-fixed
// dendrogram/profile APIs cost no second Θ(|E|) pass and no extra arc-sized
// allocation beyond the merge-event list.
func FromIndex(x *index.Index, mu int) (*Explorer, error) {
	if mu < 1 {
		return nil, fmt.Errorf("sweep: mu must be >= 1, got %d", mu)
	}
	g := x.Graph()
	n := g.NumVertices()
	sigma := x.ArcSigmas()

	coreThr := make([]float64, n)
	for v := int32(0); v < int32(n); v++ {
		coreThr[v] = x.CoreThreshold(v, mu)
	}

	edges := mergeEvents(g, sigma, coreThr)
	return &Explorer{g: g, mu: mu, coreThr: coreThr, edges: edges, sigma: sigma}, nil
}

// Mu returns the μ the explorer was built for.
func (e *Explorer) Mu() int { return e.mu }

// CoreThreshold returns the largest ε at which v is a core (0 = never).
func (e *Explorer) CoreThreshold(v int32) float64 { return e.coreThr[v] }

// Sigma returns the exact structural similarity of the arc's endpoints.
func (e *Explorer) Sigma(arc int64) float64 { return e.sigma[arc] }

// ClusteringAt returns the exact SCAN clustering at ε. Borders claimed by
// several clusters attach to their smallest qualifying core, making the
// output deterministic (it matches cluster.Reference exactly).
func (e *Explorer) ClusteringAt(eps float64) *cluster.Result {
	n := e.g.NumVertices()
	ds := unionfind.New(n)
	for _, me := range e.edges {
		if me.thr < eps {
			break // sorted descending: the rest are inactive too
		}
		ds.Union(me.u, me.v)
	}
	res := cluster.NewResult(n)
	for v := int32(0); v < int32(n); v++ {
		if e.coreThr[v] >= eps {
			res.Roles[v] = cluster.Core
			res.Labels[v] = ds.Find(v)
		}
	}
	// Borders: the smallest-id adjacent core with σ ≥ ε.
	for v := int32(0); v < int32(n); v++ {
		if res.Roles[v] == cluster.Core {
			continue
		}
		lo, _ := e.g.NeighborRange(v)
		e.g.EachNeighbor(v, func(j int, q int32, _ float32) bool {
			if e.coreThr[q] >= eps && e.sigma[lo+int64(j)] >= eps {
				res.Roles[v] = cluster.Border
				res.Labels[v] = ds.Find(q)
				return false
			}
			return true
		})
	}
	cluster.ClassifyNoise(e.g, res)
	res.Canonicalize()
	return res
}

// Profile summarizes the clustering at one ε (for sweep tables and UIs).
type Profile struct {
	Eps      float64
	Clusters int
	Counts   cluster.Counts
}

// SweepProfile evaluates the clustering at each ε and returns compact
// summaries, most useful for plotting cluster-count and noise curves while
// choosing ε interactively.
func (e *Explorer) SweepProfile(epsValues []float64) []Profile {
	out := make([]Profile, 0, len(epsValues))
	for _, eps := range epsValues {
		res := e.ClusteringAt(eps)
		out = append(out, Profile{Eps: eps, Clusters: res.NumClusters, Counts: res.RoleCounts()})
	}
	return out
}

// InterestingThresholds returns the distinct ε values (descending) at which
// the set of cores or the cluster structure can change — the merge-event
// and core thresholds. Probing only these values observes every distinct
// clustering of the (graph, μ) pair.
func (e *Explorer) InterestingThresholds(limit int) []float64 {
	seen := map[float64]struct{}{}
	var out []float64
	add := func(t float64) {
		if t <= 0 {
			return
		}
		if _, dup := seen[t]; !dup {
			seen[t] = struct{}{}
			out = append(out, t)
		}
	}
	for _, me := range e.edges {
		add(me.thr)
	}
	for _, t := range e.coreThr {
		add(t)
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(out)))
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out
}

// Merge is one event of the clustering dendrogram: at ε values below Thr,
// the clusters containing cores A and B are one cluster.
type Merge struct {
	Thr  float64
	A, B int32
}

// Dendrogram returns the full merge hierarchy of (graph, μ) over decreasing
// ε: replaying the core-core merge events through a union-find and emitting
// one Merge per successful join. This is the agglomerative view of the
// SCAN clustering family (cf. AHSCAN in the paper's related work): cutting
// the dendrogram at any ε reproduces the core partition of ClusteringAt.
// The result has at most |V|-1 entries, sorted by descending threshold.
func (e *Explorer) Dendrogram() []Merge {
	ds := unionfind.New(e.g.NumVertices())
	var out []Merge
	for _, me := range e.edges {
		if ds.Union(me.u, me.v) {
			out = append(out, Merge{Thr: me.thr, A: me.u, B: me.v})
		}
	}
	return out
}
