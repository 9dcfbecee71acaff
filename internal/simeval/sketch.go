package simeval

import (
	"context"
	"fmt"
	"math"

	"anyscan/internal/graph"
	"anyscan/internal/par"
)

// MinHash neighborhood sketches for approximate structural similarity
// (cf. the index-based SCAN approximation of Tseng, Dhulipala & Shun; see
// PAPERS.md). Each vertex gets k permutation minima over its *closed*
// neighborhood N[v]; the fraction of matching minima between two sketches is
// an unbiased estimator of the Jaccard similarity J(N[p], N[q]), from which
// the unweighted structural similarity σ(p,q) = |N[p]∩N[q]| / √(|N[p]|·|N[q]|)
// follows by a monotone change of variables (SigmaFromJaccard).
//
// The k permutations are synthesized from two hashes per element
// (Kirsch–Mitzenmacher double hashing): permutation i maps x to
// h1(x) + i·h2(x), so sketching a vertex costs two hash evaluations plus k
// fused multiply-adds per neighbor instead of k independent hashes.

// DefaultSketchK is the number of MinHash permutations per vertex. At k=128
// the Hoeffding half-width at the default δ=0.05 is
// √(ln(2/0.05)/(2·128)) ≈ 0.12 on Ĵ, and one sketch costs 512 bytes.
const DefaultSketchK = 128

// Sketches holds one k-permutation MinHash sketch per vertex, flat in one
// []uint32 (vertex v occupies mins[v*k : (v+1)*k]). Immutable after build;
// safe for concurrent readers.
type Sketches struct {
	k    int
	seed uint64
	mins []uint32
}

// splitmix64 is the SplitMix64 finalizer: a cheap, well-distributed 64-bit
// mixer used to derive the two per-element hashes.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// elementHashes returns the double-hashing pair (h1, h2) for element x under
// the sketch seed; h2 is forced odd so the k derived permutation values
// cycle through distinct residues.
func elementHashes(seed uint64, x int32) (h1, h2 uint64) {
	h := splitmix64(seed ^ uint64(uint32(x)))
	h1 = h
	h2 = splitmix64(h) | 1
	return h1, h2
}

// BuildSketches builds the per-vertex closed-neighborhood sketches in one
// parallel pass over the graph — any backend: flat, compressed, or
// mmap-backed, via EachNeighbor. Cost is O((2|E|+|V|)·k) hash-free
// multiply-adds; per-worker graph cursors come from EachNeighbor's internal
// decoding, so the pass allocates only the sketch array itself.
func BuildSketches(ctx context.Context, g graph.Graph, k int, seed uint64, threads int) (*Sketches, error) {
	if k < 1 {
		return nil, fmt.Errorf("simeval: sketch k must be >= 1, got %d", k)
	}
	n := g.NumVertices()
	s := &Sketches{k: k, seed: seed, mins: make([]uint32, n*k)}
	err := par.ForCtx(ctx, n, threads, par.Adaptive, func(i int) {
		v := int32(i)
		row := s.mins[i*k : (i+1)*k]
		for j := range row {
			row[j] = math.MaxUint32
		}
		update := func(x int32) {
			h1, h2 := elementHashes(seed, x)
			h := h1
			for j := range row {
				if m := uint32(h >> 32); m < row[j] {
					row[j] = m
				}
				h += h2
			}
		}
		update(v) // closed neighborhood: v itself is a member
		g.EachNeighbor(v, func(_ int, q int32, _ float32) bool {
			update(q)
			return true
		})
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// K returns the number of permutations per sketch.
func (s *Sketches) K() int { return s.k }

// Seed returns the hash seed the sketches were built with.
func (s *Sketches) Seed() uint64 { return s.seed }

// Bytes returns the resident size of the sketch array.
func (s *Sketches) Bytes() int64 { return int64(len(s.mins)) * 4 }

// EstimateJaccard returns Ĵ(p,q) = (matching permutation minima)/k, the
// unbiased MinHash estimate of the closed-neighborhood Jaccard similarity.
func (s *Sketches) EstimateJaccard(p, q int32) float64 {
	a := s.mins[int(p)*s.k : (int(p)+1)*s.k]
	b := s.mins[int(q)*s.k : (int(q)+1)*s.k]
	matches := 0
	for i := range a {
		if a[i] == b[i] {
			matches++
		}
	}
	return float64(matches) / float64(s.k)
}

// HoeffdingHalfWidth returns the two-sided Hoeffding/Chernoff confidence
// half-width t for a k-sample mean of [0,1] variables at failure probability
// δ: P(|Ĵ − J| > t) ≤ 2·exp(−2kt²) = δ, so t = √(ln(2/δ)/(2k)). δ must be in
// (0,1); smaller δ widens the band (more exact fallbacks, fewer possible
// misclassifications).
func HoeffdingHalfWidth(k int, delta float64) float64 {
	return math.Sqrt(math.Log(2/delta) / (2 * float64(k)))
}

// SigmaFromJaccard maps a closed-neighborhood Jaccard similarity to the
// unweighted structural similarity of an adjacent pair with closed
// neighborhood sizes a = deg(p)+1 and b = deg(q)+1:
//
//	|N[p]∩N[q]| = J·(a+b)/(1+J)   (from J = I/(a+b−I))
//	σ(p,q)      = |N[p]∩N[q]| / √(a·b)
//
// The map is monotone increasing in J, so a confidence interval on J
// transforms directly into one on σ. The result is clamped to [0,1] (the
// estimate Ĵ can overshoot the feasible intersection size).
func SigmaFromJaccard(j, a, b float64) float64 {
	if j <= 0 {
		return 0
	}
	sigma := j * (a + b) / ((1 + j) * math.Sqrt(a*b))
	if sigma > 1 {
		return 1
	}
	return sigma
}
