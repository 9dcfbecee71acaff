package simeval

import "anyscan/internal/graph"

// Slice-based dot kernels. These operate on raw sorted adjacency slices (ids
// ascending, weights parallel) rather than a *graph.CSR. Every kernel adds
// the common-neighbor products w_pr·w_qr in ascending neighbor-id order with
// the float expression of the sort-merge join, so the results are
// bit-identical to Engine.openDot and the WorkerEngine adaptive kernels.
//
// Row is the one dense-row kernel: of the exact σ pass (package index), the
// σ patch of package live and WorkerEngine's hub joins. It trades the merge
// join's branches for a dense row: one endpoint's weights are scattered by
// neighbor id into a zeroed row once, then every arc of that endpoint is
// one gather over the other endpoint's adjacency (the GS*-index similarity
// pass of Tseng, Dhulipala & Shun; see PAPERS.md). It stays bit-identical
// to the merge join:
//   - a float32×float32 product is exact in float64, so every term is the
//     merge join's term, and fused or unfused it adds the same value;
//   - a non-neighbor reads a zero slot, and adding the exact +0 it yields
//     leaves a non-negative sum unchanged (weights are positive);
//   - the nonzero terms are added in the same ascending id order.

// Row is one vertex's weights scattered by neighbor id into a dense float32
// row over every vertex, zero elsewhere. A Row is loaded once per vertex
// and cleared entry by entry, so switching vertices costs their degrees,
// not |V|. It is not safe for concurrent use: one per worker.
type Row struct {
	w   []float32 // |V| entries
	v   int32     // vertex loaded into w, -1 when w is all zero
	ids []int32   // v's adjacency as loaded: the entries Reset zeroes
}

// NewRow returns an all-zero row over n vertices.
func NewRow(n int) Row { return Row{w: make([]float32, n), v: -1} }

// Vertex returns the vertex the row holds, -1 when it holds none.
func (r *Row) Vertex() int32 { return r.v }

// Load makes the row hold v, whose sorted adjacency is ids with weights w.
// It zeroes the previous vertex's entries first. The row keeps ids to clear
// them later, so ids must stay unchanged until the next Load or Reset: a
// caller that decodes into a reused buffer calls Reset before decoding.
func (r *Row) Load(v int32, ids []int32, w []float32) {
	r.Reset()
	row, w := r.w, w[:len(ids)]
	for i, q := range ids {
		row[q] = w[i]
	}
	r.v, r.ids = v, ids
}

// Reset zeroes the loaded entries, leaving the row all zero.
func (r *Row) Reset() {
	row := r.w
	for _, q := range r.ids {
		row[q] = 0
	}
	r.v, r.ids = -1, nil
}

// Dot returns the open-neighborhood dot product of the loaded vertex with
// the vertex whose sorted adjacency is adj (weights w, parallel),
// bit-identical to mergeDotSlices on the two adjacencies. It gathers
// Σ row[q]·w_q over adj with no data-dependent branch: len(adj)
// multiply-adds whatever the overlap. The row is read through a local
// slice, which the compiler keeps in registers across the loop.
func (r *Row) Dot(adj []int32, w []float32) float64 {
	var acc float64
	row, w := r.w, w[:len(adj)]
	for i, q := range adj {
		acc += float64(row[q]) * float64(w[i])
	}
	return acc
}

// Crossing returns the activation threshold of the arc from the loaded
// vertex u to v, whose edge weight is wuv and whose sorted adjacency is adj
// (weights w): Crossing of the closed numerator and denom = √l_u·√l_v,
// bit-identical to Crossing(Engine.EdgeNumerator(u, v, wuv)).
func (r *Row) Crossing(wuv float32, adj []int32, w []float32, denom float64) float64 {
	return Crossing(selfTerms(wuv)+r.Dot(adj, w), denom)
}

// selfTerms is what the two closed self loops add to the numerator of an
// adjacent pair (p, q) with edge weight wpq: w_pp·w_qp + w_pq·w_qq.
func selfTerms(wpq float32) float64 { return 2 * float64(wpq) * graph.SelfWeight }

// mergeDotSlices is the classic ascending-id sort-merge join.
func mergeDotSlices(pAdj []int32, pW []float32, qAdj []int32, qW []float32) float64 {
	var acc float64
	i, j := 0, 0
	for i < len(pAdj) && j < len(qAdj) {
		switch {
		case pAdj[i] < qAdj[j]:
			i++
		case pAdj[i] > qAdj[j]:
			j++
		default:
			acc += float64(pW[i]) * float64(qW[j])
			i++
			j++
		}
	}
	return acc
}

// gallopDotSlices scans the shorter list and gallops through the longer one.
// Matches surface in ascending id order, so the accumulation order (and hence
// the float result) matches mergeDotSlices exactly.
func gallopDotSlices(pAdj []int32, pW []float32, qAdj []int32, qW []float32) float64 {
	sAdj, sW := pAdj, pW
	lAdj, lW := qAdj, qW
	if len(sAdj) > len(lAdj) {
		sAdj, lAdj = lAdj, sAdj
		sW, lW = lW, sW
	}
	dot := 0.0
	j := 0
	for i := 0; i < len(sAdj); i++ {
		j = gallopSearch(lAdj, j, sAdj[i])
		if j >= len(lAdj) {
			break
		}
		if lAdj[j] == sAdj[i] {
			dot += float64(sW[i]) * float64(lW[j])
			j++
		}
	}
	return dot
}
