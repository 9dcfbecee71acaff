package unionfind

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// samePartition asserts that two label vectors describe the same partition.
// Both sides canonicalize (dense ids in order of first appearance), so equal
// partitions must yield equal vectors.
func samePartition(t *testing.T, want, got []int32) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("label vector lengths differ: %d vs %d", len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("partition differs at element %d: model label %d, forest label %d",
				i, want[i], got[i])
		}
	}
}

func TestConcurrentMatchesSequentialSingleThread(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 500
	naive := singletons(n)
	cc := NewConcurrent(n)
	for k := 0; k < 2*n; k++ {
		x, y := int32(rng.Intn(n)), int32(rng.Intn(n))
		if naive.union(x, y) != cc.Union(x, y) {
			t.Fatalf("union(%d,%d) merge verdicts diverged at op %d", x, y, k)
		}
		if naive.same(x, y) != cc.Connected(x, y) {
			t.Fatalf("connected(%d,%d) diverged at op %d", x, y, k)
		}
	}
	if naive.sets() != cc.Sets() {
		t.Fatalf("set counts differ: %d vs %d", naive.sets(), cc.Sets())
	}
	samePartition(t, naive.labels(), labelsOf(cc))
}

// TestConcurrentStress drives a Concurrent set from many goroutines over a
// shared random union sequence and asserts the resulting partition is
// identical to the naive label model applying the same unions. Run under
// -race in CI; the assertion holds for every interleaving because the union
// set (not its order) determines the partition.
func TestConcurrentStress(t *testing.T) {
	workers := 2 * runtime.GOMAXPROCS(0)
	if workers < 4 {
		workers = 4
	}
	for _, n := range []int{64, 1000, 20000} {
		rng := rand.New(rand.NewSource(int64(n)))
		type pair struct{ x, y int32 }
		// A mix of local unions (chain structure, deep paths) and global
		// random unions (root contention between workers).
		unions := make([]pair, 0, 3*n)
		for k := 0; k < 2*n; k++ {
			x := int32(rng.Intn(n))
			y := x + int32(rng.Intn(8)) - 4
			if y < 0 || y >= int32(n) || y == x {
				y = int32(rng.Intn(n))
			}
			unions = append(unions, pair{x, y})
		}
		for k := 0; k < n; k++ {
			unions = append(unions, pair{int32(rng.Intn(n)), int32(rng.Intn(n))})
		}

		naive := singletons(n)
		var merges int64
		for _, u := range unions {
			if naive.union(u.x, u.y) {
				merges++
			}
		}

		cc := NewConcurrent(n)
		var wg sync.WaitGroup
		wg.Add(workers)
		var merged [64]int64
		for w := 0; w < workers; w++ {
			go func(w int) {
				defer wg.Done()
				// Strided slices: all workers hammer overlapping id ranges,
				// maximizing CAS retries; interleave reads to stress Find and
				// Connected under concurrent re-rooting.
				var m int64
				for k := w; k < len(unions); k += workers {
					u := unions[k]
					if cc.Union(u.x, u.y) {
						m++
					}
					if !cc.Connected(u.x, u.y) {
						panic("union not visible to the unioning goroutine")
					}
					_ = cc.Find(u.x)
					_ = cc.FindNoCompress(u.y)
				}
				merged[w] = m
			}(w)
		}
		wg.Wait()

		samePartition(t, naive.labels(), labelsOf(cc))
		if naive.sets() != cc.Sets() {
			t.Fatalf("n=%d: set counts differ: %d vs %d", n, naive.sets(), cc.Sets())
		}
		// Exactly one goroutine must win each merge: total merge wins equal
		// the model's merge count.
		var total int64
		for _, m := range merged[:workers] {
			total += m
		}
		if total != merges {
			t.Fatalf("n=%d: merge wins %d, want %d", n, total, merges)
		}
	}
}

// TestParentIsProvesSameSet checks ParentIs's one-way contract while
// unions race: every (x, r) it answers true for, observed mid-run by
// goroutines that also union, must be in one set at the end. Each worker
// keeps a member of x's set as its hint, the way index.Replay's walks do,
// so true answers are common. Run under -race in CI.
func TestParentIsProvesSameSet(t *testing.T) {
	const n, workers = 4000, 4
	rng := rand.New(rand.NewSource(11))
	pairs := make([][2]int32, 3*n)
	for k := range pairs {
		x := int32(rng.Intn(n))
		pairs[k] = [2]int32{x, (x + 1 + int32(rng.Intn(16))) % n}
	}
	cc := NewConcurrent(n)
	seen := make([][][2]int32, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for k := w; k < len(pairs); k += workers {
				x, y := pairs[k][0], pairs[k][1]
				hint := cc.Find(x)
				if cc.ParentIs(y, hint) {
					seen[w] = append(seen[w], [2]int32{y, hint})
					continue
				}
				cc.Union(hint, y)
			}
		}(w)
	}
	wg.Wait()
	hits := 0
	for _, s := range seen {
		for _, p := range s {
			if !cc.Connected(p[0], p[1]) {
				t.Fatalf("ParentIs(%d, %d) held, but the two end in different sets", p[0], p[1])
			}
		}
		hits += len(s)
	}
	if hits == 0 {
		t.Fatal("ParentIs never held: the test checks nothing")
	}
	t.Logf("%d of %d checks answered by ParentIs", hits, len(pairs))
}

func TestConcurrentAdd(t *testing.T) {
	cc := NewConcurrent(2)
	if id := cc.Add(); id != 2 {
		t.Fatalf("Add returned %d, want 2", id)
	}
	if len(cc.parent) != 3 || cc.Sets() != 3 {
		t.Fatalf("after Add: len=%d sets=%d, want 3/3", len(cc.parent), cc.Sets())
	}
	cc.Union(0, 2)
	if !cc.Connected(0, 2) || cc.Connected(1, 2) {
		t.Fatal("connectivity wrong after Add+Union")
	}
}

func TestConcurrentSnapshotRestoreRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cc := NewConcurrent(200)
	for k := 0; k < 300; k++ {
		cc.Union(int32(rng.Intn(200)), int32(rng.Intn(200)))
	}
	parent, rank, sets := cc.Snapshot()
	back, err := RestoreConcurrent(parent, rank, sets)
	if err != nil {
		t.Fatal(err)
	}
	samePartition(t, labelsOf(cc), labelsOf(back))
	if back.Sets() != cc.Sets() {
		t.Fatalf("restored set count %d, want %d", back.Sets(), cc.Sets())
	}
}

// TestConcurrentRestoresRankBasedSnapshot restores a forest of the shape a
// rank-based union-find writes, whose roots need not be their sets'
// smallest members and whose chains may climb to larger ids: the partition
// must come back, and further unions must stay correct.
func TestConcurrentRestoresRankBasedSnapshot(t *testing.T) {
	// {0, 1, 2, 3} under root 1 (3 → 2 → 1 ← 0), {4, 5, 6} under root 5
	// (6 → 4 → 5), {7} alone; ranks as union by rank leaves them.
	parent := []int32{1, 1, 1, 2, 5, 5, 4, 7}
	rank := []uint8{0, 2, 1, 0, 1, 2, 0, 0}
	cc, err := RestoreConcurrent(parent, rank, 3)
	if err != nil {
		t.Fatal(err)
	}
	naive := newModel([]int32{1, 1, 1, 1, 5, 5, 5, 7})
	samePartition(t, naive.labels(), labelsOf(cc))
	rng := rand.New(rand.NewSource(11))
	for k := 0; k < 6; k++ {
		x, y := int32(rng.Intn(8)), int32(rng.Intn(8))
		if naive.union(x, y) != cc.Union(x, y) {
			t.Fatalf("union(%d,%d) merge verdicts diverged at op %d", x, y, k)
		}
	}
	samePartition(t, naive.labels(), labelsOf(cc))
	if naive.sets() != cc.Sets() {
		t.Fatalf("set counts differ: %d vs %d", naive.sets(), cc.Sets())
	}
}

// TestRestoreConcurrentRejectsCorruptState feeds forests whose every parent
// is in range but whose shape is wrong: a chain that never reaches a root
// would hang Find, and a set count that is not the number of roots would
// misreport Sets.
func TestRestoreConcurrentRejectsCorruptState(t *testing.T) {
	for _, tc := range []struct {
		name   string
		parent []int32
		sets   int
	}{
		{"two-cycle", []int32{1, 0}, 0},
		{"three-cycle", []int32{1, 2, 0}, 0},
		{"cycle-behind-a-root", []int32{0, 2, 3, 1}, 1},
		{"tail-into-a-cycle", []int32{1, 2, 3, 2, 4}, 1},
		{"sets-one-short", []int32{0, 0, 2}, 1},
		{"sets-one-over", []int32{0, 0, 2}, 3},
	} {
		if _, err := RestoreConcurrent(tc.parent, make([]uint8, len(tc.parent)), tc.sets); err == nil {
			t.Errorf("%s: forest %v with %d sets accepted", tc.name, tc.parent, tc.sets)
		}
	}
}

// BenchmarkUnion runs one union workload on the lock-free Concurrent
// structure single-threaded (the cost of CAS over plain stores) and driven
// from all procs (the contended case a mutex-guarded design serializes).
func BenchmarkUnion(b *testing.B) {
	const n = 1 << 16
	pairs := make([][2]int32, 1<<14)
	rng := rand.New(rand.NewSource(1))
	for i := range pairs {
		pairs[i] = [2]int32{int32(rng.Intn(n)), int32(rng.Intn(n))}
	}
	b.Run("concurrent-1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cc := NewConcurrent(n)
			for _, p := range pairs {
				cc.Union(p[0], p[1])
			}
		}
	})
	b.Run("concurrent-parallel", func(b *testing.B) {
		workers := runtime.GOMAXPROCS(0)
		for i := 0; i < b.N; i++ {
			cc := NewConcurrent(n)
			var wg sync.WaitGroup
			wg.Add(workers)
			for w := 0; w < workers; w++ {
				go func(w int) {
					defer wg.Done()
					for k := w; k < len(pairs); k += workers {
						cc.Union(pairs[k][0], pairs[k][1])
					}
				}(w)
			}
			wg.Wait()
		}
	})
}
