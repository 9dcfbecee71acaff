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
// algorithm) plus the per-vertex σ sort — package index's query index —
// is all an explorer reads: the clustering at any ε is the index's replay
// kernel, and the merge events of the dendrogram follow from the sorted
// orders — the same dendrogram idea as single-linkage clustering,
// specialized to SCAN semantics.
package sweep

import (
	"cmp"
	"fmt"
	"slices"

	"anyscan/internal/cluster"
	"anyscan/internal/graph"
	"anyscan/internal/index"
	"anyscan/internal/unionfind"
)

// Explorer answers clustering queries at arbitrary ε for a fixed (graph, μ).
//
// An Explorer is a μ-fixed view of a query index and holds nothing
// arc-sized: every query method reads the index's σ-sorted neighbor orders
// and its memoized core order for μ, and allocates its own scratch state, so
// one Explorer is safe for any number of concurrent readers with no external
// locking.
type Explorer struct {
	x  *index.Index
	mu int
}

// NewExplorer builds g's query index with the given number of workers — one
// exact σ per undirected edge plus the per-vertex neighbor sort — and
// returns its μ-fixed view.
func NewExplorer(g graph.Graph, mu int, threads int) (*Explorer, error) {
	if mu < 1 {
		return nil, fmt.Errorf("sweep: mu must be >= 1, got %d", mu)
	}
	return FromIndex(index.Build(g, threads), mu)
}

// FromIndex derives a μ-fixed Explorer from a per-graph query index without
// re-evaluating a single similarity or copying anything: the explorer reads
// the index's storage (read-only) for every query.
func FromIndex(x *index.Index, mu int) (*Explorer, error) {
	if mu < 1 {
		return nil, fmt.Errorf("sweep: mu must be >= 1, got %d", mu)
	}
	return &Explorer{x: x, mu: mu}, nil
}

// CoreThreshold returns the largest ε at which v is a core (0 = never).
func (e *Explorer) CoreThreshold(v int32) float64 { return e.x.CoreThreshold(v, e.mu) }

// ClusteringAt returns the exact SCAN clustering at ε: the index's replay
// kernel over the cores at ε. Borders claimed by several clusters attach to
// their smallest qualifying core, making the output deterministic (it
// matches cluster.Reference exactly).
func (e *Explorer) ClusteringAt(eps float64) *cluster.Result {
	return index.Replay(e.x, e.x.CoreOrder(e.mu).Prefix(eps), eps, e.x.Threads())
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
	out := slices.Clone(e.x.CoreOrder(e.mu).Thr)
	for _, m := range e.merges() {
		out = append(out, m.Thr)
	}
	slices.SortFunc(out, func(a, b float64) int { return cmp.Compare(b, a) })
	out = slices.Compact(out)
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

// merges derives every core–core merge event from the σ-sorted neighbor
// orders: each undirected edge (A < B) with a positive merge threshold
// min(σ(A,B), coreThr(A), coreThr(B)) — the largest ε at which both ends are
// cores and similar. The events come unsorted.
func (e *Explorer) merges() []Merge {
	var out []Merge
	for _, u := range e.x.CoreOrder(e.mu).Verts {
		tu := e.CoreThreshold(u)
		ids, sigs := e.x.NeighborOrder(u)
		for j, q := range ids {
			if sigs[j] <= 0 {
				break // sorted descending: the rest never activate
			}
			if u < q {
				if t := min(sigs[j], tu, e.CoreThreshold(q)); t > 0 {
					out = append(out, Merge{Thr: t, A: u, B: q})
				}
			}
		}
	}
	return out
}

// Dendrogram returns the full merge hierarchy of (graph, μ) over decreasing
// ε: replaying the core-core merge events through a union-find and emitting
// one Merge per successful join. This is the agglomerative view of the
// SCAN clustering family (cf. AHSCAN in the paper's related work): cutting
// the dendrogram at any ε reproduces the core partition of ClusteringAt.
// The result has at most |V|-1 entries, sorted by descending threshold with
// ties by (A, B), so it does not depend on iteration order.
func (e *Explorer) Dendrogram() []Merge {
	events := e.merges()
	slices.SortFunc(events, func(a, b Merge) int {
		return cmp.Or(cmp.Compare(b.Thr, a.Thr), cmp.Compare(a.A, b.A), cmp.Compare(a.B, b.B))
	})
	ds := unionfind.NewConcurrent(e.x.NumVertices())
	var out []Merge
	for _, m := range events {
		if ds.Union(m.A, m.B) {
			out = append(out, m)
		}
	}
	return out
}
