package simeval

// Slice-based dot kernels. These operate on raw sorted adjacency slices (ids
// ascending, weights parallel) rather than a *graph.CSR. Every kernel adds
// the common-neighbor products w_pr·w_qr in ascending neighbor-id order with
// the float expression of the sort-merge join, so the results are
// bit-identical to Engine.openDot and the WorkerEngine adaptive kernels.
//
// GatherDot is the σ patch kernel of package live, whose copy-on-write epoch
// segments keep their own adjacency. It trades the merge join's branches
// for a dense row: the caller scatters one endpoint's weights by neighbor id
// into a zeroed row once, then every arc of that endpoint is one gather over
// the other endpoint's adjacency. It stays bit-identical to the merge join:
//   - a float32×float32 product is exact in float64, so every term is the
//     merge join's term, and fused or unfused it adds the same value;
//   - a non-neighbor reads a zero slot, and adding the exact +0 it yields
//     leaves a non-negative sum unchanged (weights are positive);
//   - the nonzero terms are added in the same ascending id order.

// GatherDot returns Σ row[r]·w_r over the ids r of the sorted adjacency adj
// (weights w, parallel): the open-neighborhood dot product of adj's vertex
// with the vertex whose weights row holds, scattered by neighbor id and zero
// elsewhere. Bit-identical to mergeDotSlices on the two adjacencies. The
// loop has no data-dependent branch: it costs len(adj) multiply-adds
// whatever the overlap.
func GatherDot(row []float32, adj []int32, w []float32) float64 {
	var acc float64
	w = w[:len(adj)]
	for i, r := range adj {
		acc += float64(row[r]) * float64(w[i])
	}
	return acc
}

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
