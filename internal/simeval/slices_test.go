package simeval

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// randomRow draws d distinct ids from [0, n), ascending, with weights over
// many binades: ordinary values, tiny and huge ones, and float32 subnormals,
// so any rounding that differs between the kernels would show.
func randomRow(rng *rand.Rand, n, d int) ([]int32, []float32) {
	ids := make([]int32, 0, d)
	for _, i := range rng.Perm(n)[:d] {
		ids = append(ids, int32(i))
	}
	slices.Sort(ids)
	w := make([]float32, d)
	for i := range w {
		switch rng.Intn(4) {
		case 0:
			w[i] = 1
		case 1:
			w[i] = 0.25 + rng.Float32()
		case 2:
			w[i] = float32(math.Ldexp(1+rng.Float64(), rng.Intn(200)-100))
		default:
			w[i] = math.Float32frombits(1 + uint32(rng.Intn(1<<23-1))) // subnormal
		}
	}
	return ids, w
}

// TestGatherDotMatchesMergeJoin checks the dense-row kernel against the
// merge join bit for bit, over balanced and skewed adjacency lengths, with
// one Row loaded, gathered and cleared again the way its callers reuse it.
func TestGatherDotMatchesMergeJoin(t *testing.T) {
	const n = 4096
	rng := rand.New(rand.NewSource(1))
	row := NewRow(n)
	for _, dp := range []int{1, 7, 60, 500, 3000} {
		for _, dq := range []int{1, 7, 60, 500, 3000} {
			t.Run(fmt.Sprintf("%dx%d", dp, dq), func(t *testing.T) {
				for trial := 0; trial < 20; trial++ {
					// A narrower id range for one side makes overlaps likely at
					// every length.
					pAdj, pW := randomRow(rng, max(dp, n/(1+trial%4)), dp)
					qAdj, qW := randomRow(rng, max(dq, n/(1+trial%3)), dq)
					row.Load(int32(trial), pAdj, pW)
					got := row.Dot(qAdj, qW)
					want := mergeDotSlices(pAdj, pW, qAdj, qW)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("trial %d: Row.Dot = %v (%#x), merge join = %v (%#x)",
							trial, got, math.Float64bits(got), want, math.Float64bits(want))
					}
					if g := gallopDotSlices(pAdj, pW, qAdj, qW); math.Float64bits(g) != math.Float64bits(want) {
						t.Fatalf("trial %d: gallop = %v, merge join = %v", trial, g, want)
					}
				}
			})
		}
	}
	row.Reset()
	if i := slices.IndexFunc(row.w, func(w float32) bool { return w != 0 }); i >= 0 {
		t.Fatalf("row entry %d left at %v after Reset", i, row.w[i])
	}
}
