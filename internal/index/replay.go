package index

import (
	"sort"
	"sync/atomic"

	"anyscan/internal/cluster"
	"anyscan/internal/local"
	"anyscan/internal/par"
	"anyscan/internal/unionfind"
)

// CoreOrder is a per-μ core order: every vertex with a positive core
// threshold, in OrderLess order, so the cores at ε are exactly the prefix
// with Thr ≥ ε. Immutable once derived; callers share it freely.
type CoreOrder struct {
	Verts []int32
	Thr   []float64
}

// newCoreOrder derives the core order of the vertices [0, n) under the
// threshold function thr: two O(1) calls per vertex plus an O(k log k) sort
// over the k vertices with a positive threshold. The arrays are sized
// exactly, since memoized orders stay resident.
func newCoreOrder(n int, thr func(v int32) float64) *CoreOrder {
	k := 0
	for v := int32(0); v < int32(n); v++ {
		if thr(v) > 0 {
			k++
		}
	}
	co := &CoreOrder{Verts: make([]int32, 0, k), Thr: make([]float64, 0, k)}
	for v := int32(0); v < int32(n); v++ {
		if t := thr(v); t > 0 {
			co.Verts = append(co.Verts, v)
			co.Thr = append(co.Thr, t)
		}
	}
	SortOrder(co.Verts, co.Thr)
	return co
}

// Prefix returns the cores at ε: the order prefix with Thr ≥ ε.
func (co *CoreOrder) Prefix(eps float64) []int32 {
	return co.Verts[:sort.Search(len(co.Thr), func(i int) bool { return co.Thr[i] < eps })]
}

// Replay is the exact (μ, ε) replay behind both index.Query and
// live.Epoch.Query. cores must be the set of v's cores at (μ, ε), in any
// order: the union-find, the CAS-min claims and the canonicalization make
// the result independent of it, so an index passes its memoized core
// order's prefix (CoreOrder.Prefix) and a live epoch its threshold scan.
// Each core walks its σ-sorted neighbor order down to ε, joining its set to
// every similar core's and claiming every similar non-core for its smallest
// similar core (link); the remaining vertices split into hubs and outliers,
// and the labels are canonicalized. The split reads only arcs that can make
// a hub: none below two clusters, otherwise the side of the labelled/noise
// cut with the smaller degree sum. So a replay costs O(|V|), plus the
// prefixes its cores walk, plus that side's arcs; a core–core arc whose far
// end already hangs under the walking core's root costs one load. The
// result is byte-identical to cluster.Reference on the same graph, at any
// thread count.
func Replay(v local.View, cores []int32, eps float64, threads int) *cluster.Result {
	r := newReplay(v.NumVertices())
	for _, u := range cores {
		r.isCore[u] = true
	}
	each(len(cores), threads, func(_, i int) {
		u := cores[i]
		ids, sigs := v.NeighborOrder(u)
		hint := r.ds.Find(u)
		for j, q := range ids {
			if sigs[j] < eps {
				break // sorted descending: the rest are dissimilar too
			}
			if !r.joined(hint, q) {
				hint = r.link(u, hint, q)
			}
		}
	})
	return r.result(v, cores)
}

// parallelQueryMin is the core count above which a query fans its walks out
// across workers; below it the fork/join overhead exceeds the walk itself.
const parallelQueryMin = 4096

// each runs fn(worker, i) for every i in [0, n): inline for small n or one
// thread, on threads workers otherwise.
func each(n, threads int, fn func(w, i int)) {
	if threads == 1 || n < parallelQueryMin {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	par.ForWorker(n, threads, par.Adaptive, fn)
}

// replay is the per-query state of the union/claim walk. The exact Replay
// and the approximate index's band-aware walk both fill it through link.
type replay struct {
	isCore []bool
	ds     *unionfind.Concurrent
	claim  []int32 // non-core q → smallest similar core, -1 while unclaimed
}

func newReplay(n int) *replay {
	r := &replay{isCore: make([]bool, n), ds: unionfind.NewConcurrent(n), claim: make([]int32, n)}
	for i := range r.claim {
		r.claim[i] = -1
	}
	return r
}

// joined reports whether the similar arc to q needs no link: q's parent
// slot names hint, a member of the walking core's set (ParentIs). Only
// cores are ever unioned and the hint is a core, so a non-core's slot names
// itself, never the hint: one load, no core test, inlined into the walks.
func (r *replay) joined(hint, q int32) bool { return r.ds.ParentIs(q, hint) }

// link records a similar arc u→q of core u that joined did not find done,
// and returns the hint for u's next arc. hint is a member of u's set:
// Find(u) when u's walk starts, then whatever link returned. A core q's set
// is joined to u's, and the hint moves to the joined root. Both ends of a
// core–core edge walk it, and whichever meets it second mostly finds it
// joined. A non-core q is claimed by u unless a smaller core already holds
// it. The CAS-min makes the final claim the minimum over all claiming
// cores whatever order concurrent walks arrive in.
func (r *replay) link(u, hint, q int32) int32 {
	if r.isCore[q] {
		r.ds.Union(hint, q)
		return r.ds.Find(hint)
	}
	for {
		c := atomic.LoadInt32(&r.claim[q])
		if c != -1 && c <= u {
			return hint
		}
		if atomic.CompareAndSwapInt32(&r.claim[q], c, u) {
			return hint
		}
	}
}

// result labels the cores by component and each claimed vertex as a border
// of its claiming core's component. Every other vertex is a hub when its
// neighbors (v's NeighborOrder ids, σ order being irrelevant here) carry two
// or more distinct labels, an outlier otherwise — cluster.ClassifyNoise's
// rule, read from the resident order instead of the graph backend.
//
// Only an arc across the labelled/noise cut can make a hub, so the split
// reads no list at all below two clusters, and otherwise walks the side of
// the cut with the smaller degree sum: the noise vertices' own lists
// (scanNoise) or the cores' and borders' (pushNoise).
func (r *replay) result(v local.View, cores []int32) *cluster.Result {
	res := cluster.NewResult(len(r.claim))
	clusters := 0
	for _, u := range cores {
		l := r.ds.Find(u)
		res.Roles[u] = cluster.Core
		res.Labels[u] = l
		if l == u {
			clusters++ // every component's root is one of its cores
		}
	}
	for q, c := range r.claim {
		if c >= 0 {
			res.Roles[q] = cluster.Border
			res.Labels[q] = r.ds.Find(c)
		}
	}
	if clusters >= 2 {
		var labelled, noise int
		for q, role := range res.Roles {
			ids, _ := v.NeighborOrder(int32(q))
			if role == cluster.Unclassified {
				noise += len(ids)
			} else {
				labelled += len(ids)
			}
		}
		if labelled < noise {
			r.pushNoise(v, res)
		} else {
			scanNoise(v, res)
		}
	}
	for q, role := range res.Roles {
		if role == cluster.Unclassified {
			res.Roles[q] = cluster.Outlier
		}
	}
	res.Canonicalize()
	return res
}

// scanNoise marks as a hub every unclassified vertex whose own neighbor list
// carries two or more distinct labels.
func scanNoise(v local.View, res *cluster.Result) {
	for q, role := range res.Roles {
		if role != cluster.Unclassified {
			continue
		}
		ids, _ := v.NeighborOrder(int32(q))
		first := cluster.NoLabel
		for _, p := range ids {
			l := res.Labels[p]
			if l == cluster.NoLabel || l == first {
				continue
			}
			if first != cluster.NoLabel {
				res.Roles[q] = cluster.Hub
				break
			}
			first = l
		}
	}
}

// pushNoise is scanNoise from the other side of the cut: every core and
// border passes its label to its unclassified neighbors, and a neighbor that
// hears a second, different label becomes a hub. Adjacency is symmetric, so
// each noise vertex hears exactly the labels its own list carries. The
// first label heard is kept in claim, which the border pass has consumed
// and whose noise entries still read -1 (no label yet).
func (r *replay) pushNoise(v local.View, res *cluster.Result) {
	first := r.claim
	for p, l := range res.Labels {
		if l == cluster.NoLabel {
			continue
		}
		ids, _ := v.NeighborOrder(int32(p))
		for _, q := range ids {
			if res.Roles[q] != cluster.Unclassified {
				continue
			}
			if first[q] == -1 {
				first[q] = l
			} else if first[q] != l {
				res.Roles[q] = cluster.Hub
			}
		}
	}
}
