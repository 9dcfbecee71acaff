package unionfind

import (
	"slices"
	"testing"
)

// encodeForest lays a forest out as FuzzRestoreConcurrent decodes it.
func encodeForest(parent []int32, sets int, pairs ...byte) []byte {
	data := []byte{byte(len(parent))}
	for _, p := range parent {
		data = append(data, byte(p+1))
	}
	return append(append(data, byte(int8(sets))), pairs...)
}

// FuzzRestoreConcurrent feeds RestoreConcurrent forests of at most 64
// elements whose parents are in range, one out of range at either end, or
// arranged in cycles. Byte 0 sets n (mod 65), the next n bytes the parents
// (b mod (n+2) − 1, so -1 and n occur), the next the set count (as an
// int8), and the rest pairs of elements (mod n). Whenever the forest is
// accepted, every parent chain must reach a root within n steps, Sets must
// equal the stored count, and Connected and Union over the pairs must agree
// with the naive label model.
func FuzzRestoreConcurrent(f *testing.F) {
	f.Add(encodeForest([]int32{1, 2, 0}, 0, 0, 1))
	// A rank-based forest: roots 1 and 5 are not their sets' minima.
	f.Add(encodeForest([]int32{1, 1, 1, 2, 5, 5, 4, 7}, 3, 3, 6, 0, 7, 6, 2))
	chain := make([]int32, 64) // 0 → 1 → … → 62, and 63 alone
	for i := range chain {
		chain[i] = int32(min(i+1, 62))
	}
	chain[63] = 63
	f.Add(encodeForest(chain, 2, 0, 63, 5, 40))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		n := int(data[0]) % 65
		if len(data) < n+2 {
			return
		}
		parent := make([]int32, n)
		for i := range parent {
			parent[i] = int32(data[1+i])%int32(n+2) - 1
		}
		sets := int(int8(data[1+n]))
		cc, err := RestoreConcurrent(slices.Clone(parent), make([]uint8, n), sets)
		if err != nil {
			return
		}
		root := make([]int32, n)
		for i := range parent {
			x := int32(i)
			for steps := 0; parent[x] != x; steps++ {
				if steps == n {
					t.Fatalf("accepted forest %v: element %d reaches no root in %d steps", parent, i, n)
				}
				x = parent[x]
			}
			root[i] = x
		}
		if cc.Sets() != sets {
			t.Fatalf("accepted forest %v: Sets %d, stored count %d", parent, cc.Sets(), sets)
		}
		naive := newModel(root)
		pairs := data[n+2:]
		for k := 0; n > 0 && k+1 < len(pairs); k += 2 {
			x, y := int32(pairs[k])%int32(n), int32(pairs[k+1])%int32(n)
			if got, want := cc.Connected(x, y), naive.same(x, y); got != want {
				t.Fatalf("forest %v, pair %d: Connected(%d, %d) = %v, want %v", parent, k/2, x, y, got, want)
			}
			if got, want := cc.Union(x, y), naive.union(x, y); got != want {
				t.Fatalf("forest %v, pair %d: Union(%d, %d) = %v, want %v", parent, k/2, x, y, got, want)
			}
		}
		for x := int32(0); x < int32(n); x++ {
			for y := x + 1; y < int32(n); y++ {
				if got, want := cc.Connected(x, y), naive.same(x, y); got != want {
					t.Fatalf("forest %v after the pairs: Connected(%d, %d) = %v, want %v", parent, x, y, got, want)
				}
			}
		}
		if cc.Sets() != naive.sets() {
			t.Fatalf("forest %v after the pairs: Sets %d, want %d", parent, cc.Sets(), naive.sets())
		}
	})
}
