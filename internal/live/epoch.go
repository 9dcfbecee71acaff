package live

import (
	"fmt"
	"slices"
	"sort"

	"anyscan/internal/cluster"
	"anyscan/internal/graph"
	"anyscan/internal/index"
)

// seg is one vertex's slice of an epoch: its adjacency (ids ascending,
// weights parallel), the activation thresholds of its arcs in σ-sorted order
// (osig/onbr, σ descending with ties by id ascending), and its
// closed-neighborhood norm. Segments are immutable once their epoch
// publishes; epochs share the segments of untouched vertices, which is what
// makes publication copy-on-write.
type seg struct {
	nbr  []int32   // neighbor ids, ascending
	wt   []float32 // weights, parallel to nbr
	onbr []int32   // neighbor ids sorted by σ desc, id asc
	osig []float64 // thresholds, parallel to onbr

	norm     float64 // l_v, graph.NormOf(wt)
	sqrtNorm float64
}

// find returns the position of q in s.nbr, or (i, false) with i the
// insertion point.
func (s *seg) find(q int32) (int, bool) {
	i := sort.Search(len(s.nbr), func(i int) bool { return s.nbr[i] >= q })
	return i, i < len(s.nbr) && s.nbr[i] == q
}

// coreThreshold is the largest ε at which the segment's vertex is a core at
// μ, read off its sorted order (index.CoreThresholdOf).
func (s *seg) coreThreshold(mu int) float64 { return index.CoreThresholdOf(s.osig, mu) }

// sortOrder derives onbr/osig from nbr and sig, the σ row parallel to nbr,
// in the neighbor order of the static index (index.SortOrder). sig is
// sorted in place and becomes osig.
func (s *seg) sortOrder(sig []float64) {
	s.onbr = slices.Clone(s.nbr)
	s.osig = sig
	index.SortOrder(s.onbr, s.osig)
}

// move is one ring arc whose σ a batch moved: the entry for touched
// neighbor t in ring vertex q's order, with its σ before and after.
type move struct {
	q, t     int32
	old, new float64
}

// repairOrder derives s.onbr/s.osig from old, the parent segment's order,
// when only the entries in mv moved. Unmoved entries keep their relative
// order, so the new order is the old one with each moved entry cut out at
// its old (σ, id) position and put back at its new one. Binary searches on
// (σ, id) find both positions and the unmoved runs between them are block
// copies: O(deg + k log deg) for k moved entries, allocating only the two
// new slices. mv is re-sorted in place and from is scratch of len(mv). The
// (σ desc, id asc) comparator is a total order, so the result is the unique
// sorted order, identical to what sortOrder would produce.
func (s *seg) repairOrder(old *seg, mv []move, from []int32) {
	for i, m := range mv {
		at := orderSearch(old.onbr, old.osig, m.old, m.t)
		if at == len(old.onbr) || old.onbr[at] != m.t {
			// σ is symmetric in every index this package builds or patches;
			// a loaded index file is only range-checked, so find the entry
			// by id should its two directions disagree.
			at = slices.Index(old.onbr, m.t)
		}
		from[i] = int32(at)
	}
	if len(mv) > 1 {
		slices.Sort(from)
		slices.SortFunc(mv, func(a, b move) int {
			switch {
			case a.t == b.t:
				return 0
			case index.OrderLess(a.new, a.t, b.new, b.t):
				return -1
			}
			return 1
		})
	}
	s.onbr = make([]int32, len(old.onbr))
	s.osig = make([]float64, len(old.osig))
	src, dst, r := 0, 0, 0
	run := func(end int) { // copy old[src:end]
		copy(s.onbr[dst:], old.onbr[src:end])
		dst += copy(s.osig[dst:], old.osig[src:end])
		src = end
	}
	keepTo := func(end int) { // copy old[src:end] but its moved entries
		for ; r < len(from) && int(from[r]) < end; r++ {
			run(int(from[r]))
			src++
		}
		run(end)
	}
	for _, m := range mv {
		keepTo(orderSearch(old.onbr, old.osig, m.new, m.t))
		s.onbr[dst], s.osig[dst] = m.t, m.new
		dst++
	}
	keepTo(len(old.onbr))
}

// orderSearch returns how many entries of the (σ desc, id asc) order
// ids/sigs sort before (sg, id).
func orderSearch(ids []int32, sigs []float64, sg float64, id int32) int {
	lo, hi := 0, len(ids)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if index.OrderLess(sigs[m], ids[m], sg, id) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// Epoch is one immutable published version of a live graph. Readers resolve
// an epoch once (Graph.Epoch or Graph.WaitEpoch) and then query it with no
// further coordination: a concurrently applied batch publishes a *new* epoch
// and never mutates this one, so results are stable for as long as the
// caller holds the pointer.
type Epoch struct {
	seq   int64
	segs  []*seg
	edges int64

	threads int
}

// Seq returns the epoch's sequence number. Epoch 0 is the graph the live
// view was created from; each applied batch increments it by one.
func (e *Epoch) Seq() int64 { return e.seq }

// NumVertices returns the vertex count (fixed across epochs).
func (e *Epoch) NumVertices() int { return len(e.segs) }

// NumEdges returns the undirected edge count at this epoch.
func (e *Epoch) NumEdges() int64 { return e.edges }

// Degree returns the degree of v at this epoch.
func (e *Epoch) Degree(v int32) int { return len(e.segs[v].nbr) }

// EdgeWeight returns the weight of edge (u,v) at this epoch, or 0 if absent.
func (e *Epoch) EdgeWeight(u, v int32) float32 {
	if i, ok := e.segs[u].find(v); ok {
		return e.segs[u].wt[i]
	}
	return 0
}

// CoreThreshold returns the largest ε at which v is a core at μ (0 = never).
func (e *Epoch) CoreThreshold(v int32, mu int) float64 {
	return e.segs[v].coreThreshold(mu)
}

// NeighborOrder returns v's σ-sorted neighbor order at this epoch: neighbor
// ids sorted by σ descending (ties by id ascending) and the parallel
// activation thresholds. The slices alias the epoch's segment storage —
// callers must treat them as read-only (epochs are immutable, so the data
// never changes underneath them). Together with NumVertices and
// CoreThreshold this makes an Epoch a local.View for seed-centered queries.
func (e *Epoch) NeighborOrder(v int32) (ids []int32, sigs []float64) {
	s := e.segs[v]
	return s.onbr, s.osig
}

// Query returns the exact SCAN clustering at (μ, ε) for this epoch without
// recomputing any similarity. It runs index.Replay — the static index's own
// replay — over the epoch's neighbor orders and its cores at (μ, ε), so the
// result is byte-identical to index.Build + Query on the equivalent static
// CSR. Safe for any number of concurrent callers.
//
// Unlike the static index, an epoch memoizes no per-μ core order, so Apply
// never carries one forward: every query scans the segments for its cores
// instead, a read of one threshold per vertex that a memoized order would
// answer with a binary search.
func (e *Epoch) Query(mu int, eps float64) (*cluster.Result, error) {
	if mu < 1 {
		return nil, fmt.Errorf("live: mu must be >= 1, got %d", mu)
	}
	if !(eps > 0 && eps <= 1) {
		return nil, fmt.Errorf("live: eps must be in (0,1], got %v", eps)
	}
	return index.Replay(e, e.cores(mu, eps), eps, e.threads), nil
}

// cores returns the vertices that are cores at (μ, ε), in id order, from one
// pass over the segments.
func (e *Epoch) cores(mu int, eps float64) []int32 {
	cores := make([]int32, 0, len(e.segs))
	for v, s := range e.segs {
		if s.coreThreshold(mu) >= eps {
			cores = append(cores, int32(v))
		}
	}
	return cores
}

// ToCSR materializes the epoch's adjacency as a static CSR — the graph an
// offline rebuild would operate on. The equivalence contract of this package
// is that Query on the epoch is byte-identical to index.Build(ToCSR()) +
// Query.
func (e *Epoch) ToCSR() (*graph.CSR, error) {
	var b graph.Builder
	b.SetNumVertices(len(e.segs))
	for v := int32(0); v < int32(len(e.segs)); v++ {
		s := e.segs[v]
		for i, q := range s.nbr {
			if v < q { // each undirected edge once
				b.AddEdge(v, q, s.wt[i])
			}
		}
	}
	return b.Build()
}
