package index

import (
	"context"
	"runtime"
	"sync/atomic"
	"unsafe"

	"anyscan/internal/graph"
	"anyscan/internal/par"
	"anyscan/internal/simeval"
)

// triangleSigma is the exact σ pass of a unit-weight graph. There σ's
// numerator is the integer 2 + |N(p)∩N(q)|, so one degree-ordered triangle
// listing yields every edge's count at once, instead of one adjacency join
// per edge that finds each triangle three times (the GS*-index similarity
// pass of Tseng, Dhulipala & Shun; the parallel kernel of Dhulipala, Blelloch
// & Shun — see PAPERS.md). An integer numerator is exact in float64 in any
// summation order, so the thresholds are bit-identical to the per-edge
// kernel's simeval.Crossing(EdgeNumerator) on every arc.
//
// It returns the neighbor orders unsorted: within each vertex v's arc range,
// the neighbors ranked above v (its out-list) come first and the rest after,
// each paired with its threshold. sortNeighborsCtx then sorts them by the
// total (σ desc, id asc) order, whose result does not depend on where a
// neighbor started, so nothing needs to be placed at its CSR arc slot.
//
// Phases, each a par loop polling ctx:
//
//  1. Orient: vertices rank by (degree, id) and each edge points at its
//     higher-ranked endpoint. v's out-list (id-sorted, as the adjacency is)
//     is written into the head of v's own range of nbr, so the listing reads
//     compact int32 lists and a compressed backend is decoded once, here.
//  2. List: each triangle a→b→c (by rank) is found once, at a, by marking
//     out(a) and scanning out(b) for each b in out(a). Its three edges each
//     gain a count in the σ array's own storage, at the out-list slot of the
//     edge's lower endpoint. Edges a→b and a→c are a's own: they accumulate
//     in worker scratch and are added once per edge when a is done. b→c is
//     added per triangle. Both adds are atomic, because other workers add
//     to a's slots whenever a is the middle vertex of their triangles.
//  3. Threshold: each oriented edge's count becomes its threshold, written
//     over the count and appended to the higher endpoint's range after that
//     vertex's out-list, which holds no counts.
//
// Transient memory is two int32 per vertex and, per worker, one int32 per
// vertex, one uint64 per entry of the longest out-list (ranking by degree
// bounds every out-list by √(2|E|)) and, on a compressed backend, the
// cursor's decode buffer.
func triangleSigma(ctx context.Context, g graph.Graph, threads int) ([]int32, []float64, error) {
	n := g.NumVertices()
	nbr := make([]int32, g.NumArcs())
	sig := make([]float64, g.NumArcs())
	// cnt is sig's storage read as triangle counts until phase 3 overwrites
	// each count with its threshold.
	cnt := unsafe.Slice((*uint64)(unsafe.Pointer(unsafe.SliceData(sig))), len(sig))
	outDeg := make([]int32, n)

	if threads <= 0 {
		threads = runtime.GOMAXPROCS(0)
	}
	type scratch struct {
		cur *graph.Cursor
		at  []int32  // at[x] = 1 + x's position in the current out-list, 0 if absent
		own []uint64 // counts of the current vertex's out-edges
	}
	scr := make([]scratch, threads)
	err := par.ForWorkerCtx(ctx, n, threads, par.Adaptive, func(w, i int) {
		s := &scr[w]
		if s.cur == nil {
			s.cur = graph.NewCursor(g)
		}
		u := int32(i)
		du := g.Degree(u)
		lo, _ := g.NeighborRange(u)
		k := lo
		ids, _ := s.cur.Neighbors(u)
		for _, v := range ids {
			if dv := g.Degree(v); du < dv || du == dv && u < v {
				nbr[k] = v
				k++
			}
		}
		outDeg[u] = int32(k - lo)
	})
	if err != nil {
		return nil, nil, err
	}
	maxOut := int32(0)
	for _, d := range outDeg {
		maxOut = max(maxOut, d)
	}

	err = par.ForWorkerCtx(ctx, n, threads, par.Adaptive, func(w, i int) {
		a := int32(i)
		lo, _ := g.NeighborRange(a)
		out := nbr[lo : lo+int64(outDeg[a])]
		if len(out) < 2 {
			return // a triangle has two out-edges at its lowest-ranked vertex
		}
		s := &scr[w]
		if s.at == nil {
			s.at, s.own = make([]int32, n), make([]uint64, maxOut)
		}
		own := s.own[:len(out)]
		for j, b := range out {
			s.at[b] = int32(j) + 1
		}
		for j, b := range out {
			blo, _ := g.NeighborRange(b)
			var ab uint64
			for k, c := range nbr[blo : blo+int64(outDeg[b])] {
				if p := s.at[c]; p != 0 {
					ab++
					own[p-1]++
					atomic.AddUint64(&cnt[blo+int64(k)], 1)
				}
			}
			own[j] += ab
		}
		for j, b := range out {
			s.at[b] = 0
			if own[j] != 0 {
				atomic.AddUint64(&cnt[lo+int64(j)], own[j])
				own[j] = 0
			}
		}
	})
	if err != nil {
		return nil, nil, err
	}

	in := make([]int32, n) // entries appended after each vertex's out-list
	err = par.ForCtx(ctx, n, threads, par.Adaptive, func(i int) {
		a := int32(i)
		lo, _ := g.NeighborRange(a)
		sa := g.SqrtNorm(a)
		for e := lo; e < lo+int64(outDeg[a]); e++ {
			b := nbr[e]
			t := simeval.Crossing(float64(2+cnt[e]), sa*g.SqrtNorm(b))
			sig[e] = t
			blo, _ := g.NeighborRange(b)
			f := blo + int64(outDeg[b]) + int64(atomic.AddInt32(&in[b], 1)) - 1
			nbr[f], sig[f] = a, t
		}
	})
	if err != nil {
		return nil, nil, err
	}
	return nbr, sig, nil
}
