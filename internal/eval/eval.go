// Package eval provides clustering-quality measures used by the paper's
// anytime experiments: Normalized Mutual Information (NMI, the Fig. 5 and
// Fig. 8 quality axis) and the Adjusted Rand Index as a secondary check.
//
// Following the paper's convention, all noise vertices (hubs and outliers)
// are treated as members of one special cluster when comparing an
// intermediate result to the SCAN ground truth; vertices an anytime snapshot
// has not classified yet fall into the same special cluster.
package eval

import (
	"math"
	"slices"

	"anyscan/internal/cluster"
	"anyscan/internal/graph"
)

// labelsOf flattens a Result into one label per vertex, mapping noise and
// unclassified vertices to a single extra cluster.
func labelsOf(r *cluster.Result) ([]int, int) {
	k := r.NumClusters
	labels := make([]int, r.N())
	for v, l := range r.Labels {
		if l == cluster.NoLabel {
			labels[v] = k // special noise cluster
		} else {
			labels[v] = int(l)
		}
	}
	return labels, k + 1
}

// NMI returns the normalized mutual information between two clusterings of
// the same vertex set, using the geometric-mean normalization
// I(C;T)/√(H(C)·H(T)). The score is in [0,1]; 1 means identical partitions.
func NMI(a, b *cluster.Result) float64 {
	la, ka := labelsOf(a)
	lb, kb := labelsOf(b)
	return NMILabels(la, ka, lb, kb)
}

// NMILabels is NMI over raw label vectors with ka and kb clusters. It sums
// the mutual information in ascending (a, b) label order, so its bits do not
// depend on map iteration, and identical label vectors score exactly 1.
func NMILabels(la []int, ka int, lb []int, kb int) float64 {
	n := len(la)
	if n == 0 || n != len(lb) {
		return 0
	}
	if slices.Equal(la, lb) {
		return 1
	}
	cont := make(map[int64]int64)
	ca := make([]int64, ka)
	cb := make([]int64, kb)
	for i := 0; i < n; i++ {
		ca[la[i]]++
		cb[lb[i]]++
		cont[int64(la[i])*int64(kb)+int64(lb[i])]++
	}
	fn := float64(n)
	var ha, hb float64
	for _, c := range ca {
		if c > 0 {
			p := float64(c) / fn
			ha -= p * math.Log(p)
		}
	}
	for _, c := range cb {
		if c > 0 {
			p := float64(c) / fn
			hb -= p * math.Log(p)
		}
	}
	keys := make([]int64, 0, len(cont))
	for key := range cont {
		keys = append(keys, key)
	}
	slices.Sort(keys)
	var mi float64
	for _, key := range keys {
		i, j := key/int64(kb), key%int64(kb)
		pij := float64(cont[key]) / fn
		pi := float64(ca[i]) / fn
		pj := float64(cb[j]) / fn
		mi += pij * math.Log(pij/(pi*pj))
	}
	if ha == 0 && hb == 0 {
		return 1 // both trivial partitions: identical
	}
	if ha == 0 || hb == 0 {
		return 0
	}
	v := mi / math.Sqrt(ha*hb)
	// Clamp tiny numeric drift.
	if v > 1 {
		v = 1
	}
	if v < 0 {
		v = 0
	}
	return v
}

// ARI returns the Adjusted Rand Index between two clusterings (noise handled
// as in NMI). 1 means identical; 0 is the chance level; negative values mean
// worse than chance.
func ARI(a, b *cluster.Result) float64 {
	la, ka := labelsOf(a)
	lb, kb := labelsOf(b)
	return ARILabels(la, ka, lb, kb)
}

// ARILabels is ARI over raw label vectors with ka and kb clusters.
func ARILabels(la []int, ka int, lb []int, kb int) float64 {
	n := len(la)
	if n == 0 {
		return 1
	}
	cont := make(map[int64]int64)
	ca := make([]int64, ka)
	cb := make([]int64, kb)
	for i := 0; i < n; i++ {
		ca[la[i]]++
		cb[lb[i]]++
		cont[int64(la[i])*int64(kb)+int64(lb[i])]++
	}
	choose2 := func(x int64) float64 { return float64(x) * float64(x-1) / 2 }
	var sumIJ, sumA, sumB float64
	for _, c := range cont {
		sumIJ += choose2(c)
	}
	for _, c := range ca {
		sumA += choose2(c)
	}
	for _, c := range cb {
		sumB += choose2(c)
	}
	total := choose2(int64(n))
	if total == 0 {
		return 1
	}
	expected := sumA * sumB / total
	maxIdx := (sumA + sumB) / 2
	if maxIdx == expected {
		return 1
	}
	return (sumIJ - expected) / (maxIdx - expected)
}

// Agreement returns (ARI, NMI) between two clusterings in one call — the
// pair of accuracy scores the approximate-similarity experiments record per
// (dataset, δ) cell.
func Agreement(a, b *cluster.Result) (ari, nmi float64) {
	la, ka := labelsOf(a)
	lb, kb := labelsOf(b)
	return ARILabels(la, ka, lb, kb), NMILabels(la, ka, lb, kb)
}

// AgreementLabels returns (ARI, NMI) between two per-vertex label vectors in
// the wire form assignment payloads use: dense cluster ids with
// cluster.NoLabel (-1) marking noise. Noise folds into one special cluster,
// matching Agreement over cluster.Results.
func AgreementLabels(a, b []int32) (ari, nmi float64) {
	la, ka := flatten(a)
	lb, kb := flatten(b)
	return ARILabels(la, ka, lb, kb), NMILabels(la, ka, lb, kb)
}

// flatten maps a wire-form label vector to dense non-negative labels, noise
// becoming one extra cluster (mirroring labelsOf without a Result).
func flatten(labels []int32) ([]int, int) {
	k := 0
	for _, l := range labels {
		if int(l) >= k {
			k = int(l) + 1
		}
	}
	out := make([]int, len(labels))
	for i, l := range labels {
		if l == cluster.NoLabel {
			out[i] = k
		} else {
			out[i] = int(l)
		}
	}
	return out, k + 1
}

// Modularity returns the Newman weighted modularity Q of a clustering:
// the fraction of edge weight inside clusters minus the expectation under
// the configuration model. Noise vertices count as singletons. Q ∈
// [-0.5, 1); higher means stronger community structure. Useful for judging
// a clustering when no ground truth exists (the modularity-based methods
// the paper's introduction contrasts SCAN with optimize Q directly).
func Modularity(g *graph.CSR, r *cluster.Result) float64 {
	var m2 float64 // total weight × 2 (both arc directions)
	n := int32(g.NumVertices())
	for v := int32(0); v < n; v++ {
		_, wts := g.Neighbors(v)
		for _, w := range wts {
			m2 += float64(w)
		}
	}
	if m2 == 0 {
		return 0
	}
	// Community of each vertex; noise = unique singleton communities.
	comm := make([]int32, n)
	next := int32(r.NumClusters)
	for v := int32(0); v < n; v++ {
		if l := r.Labels[v]; l != cluster.NoLabel {
			comm[v] = l
		} else {
			comm[v] = next
			next++
		}
	}
	intra := make([]float64, next)  // Σ internal arc weight per community id
	degree := make([]float64, next) // Σ weighted degree per community id
	for v := int32(0); v < n; v++ {
		adj, wts := g.Neighbors(v)
		for i, q := range adj {
			w := float64(wts[i])
			degree[comm[v]] += w
			if comm[v] == comm[q] {
				intra[comm[v]] += w
			}
		}
	}
	var q float64
	for c, d := range degree { // in id order, so every call sums the same bits
		q += intra[c]/m2 - (d/m2)*(d/m2)
	}
	return q
}
