package index

import "math/bits"

// OrderLess is the comparator of every threshold order in the system — the
// σ-sorted neighbor orders and the per-μ core orders alike: threshold
// descending, ties by id ascending. Ids are unique within an order, so this
// is a strict total order and every correct sort yields the same array.
func OrderLess(ta float64, va int32, tb float64, vb int32) bool {
	if ta != tb {
		return ta > tb
	}
	return va < vb
}

// SortOrder sorts the parallel slices ids and thr in place into OrderLess
// order.
func SortOrder(ids []int32, thr []float64) { sortOrder(ids, thr, nil) }

// sortOrder sorts ids and thr, and band with them when it is not nil (an
// approximate index's per-arc error bands), in place into OrderLess order.
// It is the one sort of every threshold order: insertion sort on runs of
// up to insertionMax entries, quicksort above, and heapsort for a range
// still unsorted after 2·⌈log₂ n⌉ levels, so the worst case is O(n log n).
// It allocates nothing and calls no comparator through an interface.
func sortOrder(ids []int32, thr []float64, band []float32) {
	o := order{ids: ids, thr: thr, band: band}
	o.quick(0, len(ids), 2*bits.Len(uint(len(ids))))
}

// insertionMax is the longest range sortOrder finishes by insertion sort.
const insertionMax = 12

// order is the three parallel arrays sortOrder permutes.
type order struct {
	ids  []int32
	thr  []float64
	band []float32 // nil unless the order carries bands
}

func (o *order) less(a, b int) bool { return OrderLess(o.thr[a], o.ids[a], o.thr[b], o.ids[b]) }

func (o *order) swap(a, b int) {
	o.ids[a], o.ids[b] = o.ids[b], o.ids[a]
	o.thr[a], o.thr[b] = o.thr[b], o.thr[a]
	if o.band != nil {
		o.band[a], o.band[b] = o.band[b], o.band[a]
	}
}

// quick sorts [lo, hi): it partitions around a median-of-three pivot,
// recurses into the smaller side and loops on the larger, so the stack
// stays O(log n) deep; depth counts the levels left before heapsort.
func (o *order) quick(lo, hi, depth int) {
	for hi-lo > insertionMax {
		if depth == 0 {
			o.heap(lo, hi)
			return
		}
		depth--
		p := o.partition(lo, hi)
		if p-lo < hi-p {
			o.quick(lo, p, depth)
			lo = p + 1
		} else {
			o.quick(p+1, hi, depth)
			hi = p
		}
	}
	o.insertion(lo, hi)
}

// partition moves the median of the first, middle and last entries of
// [lo, hi) to its sorted place p and returns p: every entry of [lo, p)
// orders before it and none of (p, hi) does.
func (o *order) partition(lo, hi int) int {
	m := int(uint(lo+hi) >> 1)
	if o.less(m, lo) {
		o.swap(m, lo)
	}
	if o.less(hi-1, m) {
		o.swap(hi-1, m)
		if o.less(m, lo) {
			o.swap(m, lo)
		}
	}
	o.swap(lo, m) // the pivot waits at lo
	i, j := lo+1, hi-1
	for {
		for i <= j && o.less(i, lo) {
			i++
		}
		for i <= j && !o.less(j, lo) {
			j--
		}
		if i > j {
			break
		}
		o.swap(i, j)
		i++
		j--
	}
	o.swap(lo, j)
	return j
}

// insertion sorts the short range [lo, hi), shifting each entry left past
// the larger ones before it.
func (o *order) insertion(lo, hi int) {
	for i := lo + 1; i < hi; i++ {
		t, v := o.thr[i], o.ids[i]
		if !OrderLess(t, v, o.thr[i-1], o.ids[i-1]) {
			continue
		}
		var b float32
		if o.band != nil {
			b = o.band[i]
		}
		j := i
		for ; j > lo && OrderLess(t, v, o.thr[j-1], o.ids[j-1]); j-- {
			o.thr[j], o.ids[j] = o.thr[j-1], o.ids[j-1]
			if o.band != nil {
				o.band[j] = o.band[j-1]
			}
		}
		o.thr[j], o.ids[j] = t, v
		if o.band != nil {
			o.band[j] = b
		}
	}
}

// heap heapsorts [lo, hi), the fallback for a range quicksort partitions
// badly.
func (o *order) heap(lo, hi int) {
	n := hi - lo
	for i := n/2 - 1; i >= 0; i-- {
		o.siftDown(lo, i, n)
	}
	for end := n - 1; end > 0; end-- {
		o.swap(lo, lo+end)
		o.siftDown(lo, 0, end)
	}
}

// siftDown restores the max-heap (under OrderLess) rooted at offset i of
// the n-entry heap starting at lo.
func (o *order) siftDown(lo, i, n int) {
	for {
		c := 2*i + 1
		if c >= n {
			return
		}
		if c+1 < n && o.less(lo+c, lo+c+1) {
			c++
		}
		if !o.less(lo+i, lo+c) {
			return
		}
		o.swap(lo+i, lo+c)
		i = c
	}
}
