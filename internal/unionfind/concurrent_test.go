package unionfind

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// samePartition asserts that two label vectors describe the same partition.
// Both Labels implementations canonicalize (dense ids in order of first
// appearance), so equal partitions must yield equal vectors.
func samePartition(t *testing.T, want, got []int32) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("label vector lengths differ: %d vs %d", len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("partition differs at element %d: sequential label %d, concurrent label %d",
				i, want[i], got[i])
		}
	}
}

func TestConcurrentMatchesSequentialSingleThread(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 500
	ds := New(n)
	cc := NewConcurrent(n)
	for k := 0; k < 2*n; k++ {
		x, y := int32(rng.Intn(n)), int32(rng.Intn(n))
		if ds.Union(x, y) != cc.Union(x, y) {
			t.Fatalf("union(%d,%d) merge verdicts diverged at op %d", x, y, k)
		}
		if ds.Connected(x, y) != cc.Connected(x, y) {
			t.Fatalf("connected(%d,%d) diverged at op %d", x, y, k)
		}
	}
	if ds.Sets() != cc.Sets() {
		t.Fatalf("set counts differ: %d vs %d", ds.Sets(), cc.Sets())
	}
	if ds.Unions() != cc.Unions() {
		t.Fatalf("union counts differ: %d vs %d", ds.Unions(), cc.Unions())
	}
	samePartition(t, ds.Labels(), cc.Labels())
}

// TestConcurrentStress drives a Concurrent set from many goroutines over a
// shared random union sequence and asserts the resulting partition is
// identical to the sequential DisjointSet applying the same unions. Run
// under -race in CI; the assertion holds for every interleaving because the
// union set (not its order) determines the partition.
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

		seq := New(n)
		for _, u := range unions {
			seq.Union(u.x, u.y)
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

		samePartition(t, seq.Labels(), cc.Labels())
		if seq.Sets() != cc.Sets() {
			t.Fatalf("n=%d: set counts differ: %d vs %d", n, seq.Sets(), cc.Sets())
		}
		// Exactly one goroutine must win each merge: total merge wins equal
		// the sequential union count.
		var total int64
		for _, m := range merged[:workers] {
			total += m
		}
		if total != seq.Unions() || cc.Unions() != seq.Unions() {
			t.Fatalf("n=%d: merge wins %d / counter %d, want %d", n, total, cc.Unions(), seq.Unions())
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
	if cc.Len() != 3 || cc.Sets() != 3 {
		t.Fatalf("after Add: len=%d sets=%d, want 3/3", cc.Len(), cc.Sets())
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
	samePartition(t, cc.Labels(), back.Labels())
	if back.Sets() != cc.Sets() {
		t.Fatalf("restored set count %d, want %d", back.Sets(), cc.Sets())
	}
}

func TestConcurrentRestoresRankBasedSnapshot(t *testing.T) {
	// A checkpoint written by the sequential DisjointSet (rank-balanced
	// forest, parents may exceed children ids) must restore into Concurrent
	// with the identical partition, and further unions must stay correct.
	rng := rand.New(rand.NewSource(11))
	ds := New(300)
	for k := 0; k < 400; k++ {
		ds.Union(int32(rng.Intn(300)), int32(rng.Intn(300)))
	}
	parent, rank, sets := ds.Snapshot()
	cc, err := RestoreConcurrent(parent, rank, sets)
	if err != nil {
		t.Fatal(err)
	}
	samePartition(t, ds.Labels(), cc.Labels())
	for k := 0; k < 200; k++ {
		x, y := int32(rng.Intn(300)), int32(rng.Intn(300))
		ds.Union(x, y)
		cc.Union(x, y)
	}
	samePartition(t, ds.Labels(), cc.Labels())
}

func TestRestoreConcurrentRejectsCorruptState(t *testing.T) {
	if _, err := RestoreConcurrent([]int32{0, 5}, []uint8{0, 0}, 2); err == nil {
		t.Error("out-of-range parent accepted")
	}
	if _, err := RestoreConcurrent([]int32{0, 1}, []uint8{0}, 2); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := RestoreConcurrent([]int32{0, 1}, []uint8{0, 0}, 3); err == nil {
		t.Error("implausible set count accepted")
	}
}

// BenchmarkUnion compares the sequential DisjointSet against the lock-free
// Concurrent structure on the same union workload, single-threaded (the
// structural overhead of CAS vs plain stores) and with the Concurrent set
// additionally driven from all procs (the contended case the mutex-guarded
// design serializes).
func BenchmarkUnion(b *testing.B) {
	const n = 1 << 16
	pairs := make([][2]int32, 1<<14)
	rng := rand.New(rand.NewSource(1))
	for i := range pairs {
		pairs[i] = [2]int32{int32(rng.Intn(n)), int32(rng.Intn(n))}
	}
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ds := New(n)
			for _, p := range pairs {
				ds.Union(p[0], p[1])
			}
		}
	})
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
