package index

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// TestSortOrderMatchesReference holds sortOrder to a library sort of the
// same entries under OrderLess, bands riding along, on every shape its
// three phases meet: short runs, random thresholds with many ties,
// presorted and reversed input, one threshold throughout, and a range
// forced straight to the heapsort fallback.
func TestSortOrderMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, 3, 12, 13, 40, 257, 4096} {
		for shape := 0; shape < 5; shape++ {
			ids := make([]int32, n)
			thr := make([]float64, n)
			for i := range ids {
				ids[i] = int32(i)
				switch shape {
				case 0, 4:
					thr[i] = float64(rng.Intn(8)) / 8 // ties broken by id
				case 1:
					thr[i] = float64(i) // reversed
				case 2:
					thr[i] = float64(n - i) // presorted
				case 3:
					thr[i] = 0.5
				}
			}
			rng.Shuffle(n, func(a, b int) {
				if shape != 1 && shape != 2 {
					ids[a], ids[b] = ids[b], ids[a]
					thr[a], thr[b] = thr[b], thr[a]
				}
			})
			band := make([]float32, n)
			for i := range band {
				band[i] = float32(ids[i]) // a band that names its entry
			}
			perm := make([]int, n)
			for i := range perm {
				perm[i] = i
			}
			sort.Slice(perm, func(a, b int) bool {
				return OrderLess(thr[perm[a]], ids[perm[a]], thr[perm[b]], ids[perm[b]])
			})
			wantIDs, wantThr := make([]int32, n), make([]float64, n)
			for i, p := range perm {
				wantIDs[i], wantThr[i] = ids[p], thr[p]
			}
			o := order{ids: slices.Clone(ids), thr: slices.Clone(thr), band: slices.Clone(band)}
			if shape == 4 {
				o.quick(0, n, 0) // no quicksort level left: heapsort only
			} else {
				sortOrder(o.ids, o.thr, o.band)
			}
			if !slices.Equal(o.ids, wantIDs) || !slices.Equal(o.thr, wantThr) {
				t.Fatalf("n=%d shape %d: sorted order differs from the reference", n, shape)
			}
			for i := range o.band {
				if o.band[i] != float32(o.ids[i]) {
					t.Fatalf("n=%d shape %d: band %d no longer rides with its entry", n, shape, i)
				}
			}
			plain := slices.Clone(ids)
			SortOrder(plain, slices.Clone(thr))
			if !slices.Equal(plain, wantIDs) {
				t.Fatalf("n=%d shape %d: SortOrder differs from the reference", n, shape)
			}
		}
	}
}
