package par

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestForCoversAllIndicesOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 16} {
		for _, n := range []int{0, 1, 7, 64, 1000} {
			hits := make([]int32, n)
			For(n, workers, 8, func(i int) {
				atomic.AddInt32(&hits[i], 1)
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d n=%d: index %d hit %d times", workers, n, i, h)
				}
			}
		}
	}
}

func TestForWorkerIDsInRange(t *testing.T) {
	const n, workers = 500, 4
	var bad atomic.Int32
	counts := make([]int64, workers)
	ForWorker(n, workers, 4, func(w, i int) {
		if w < 0 || w >= workers {
			bad.Add(1)
			return
		}
		atomic.AddInt64(&counts[w], 1)
	})
	if bad.Load() != 0 {
		t.Fatalf("%d out-of-range worker ids", bad.Load())
	}
	var total int64
	for _, c := range counts {
		total += c
	}
	if total != n {
		t.Fatalf("total iterations %d, want %d", total, n)
	}
}

func TestForSequentialIsInline(t *testing.T) {
	// workers=1 must execute on the calling goroutine, in order.
	var order []int
	For(10, 1, 3, func(i int) { order = append(order, i) })
	for i, v := range order {
		if v != i {
			t.Fatalf("sequential order violated: %v", order)
		}
	}
}

func TestForDefaults(t *testing.T) {
	var count atomic.Int64
	For(100, 0, 0, func(i int) { count.Add(1) }) // workers/grain defaults
	if count.Load() != 100 {
		t.Fatalf("count = %d", count.Load())
	}
	ForWorker(100, 0, 0, func(w, i int) { count.Add(1) })
	if count.Load() != 200 {
		t.Fatalf("count = %d", count.Load())
	}
}

// Property: a parallel sum equals the sequential sum for any n/workers/grain.
func TestForSumProperty(t *testing.T) {
	f := func(nRaw uint16, workersRaw, grainRaw uint8) bool {
		n := int(nRaw) % 2000
		workers := int(workersRaw)%8 + 1
		grain := int(grainRaw)%50 + 1
		var sum atomic.Int64
		For(n, workers, grain, func(i int) { sum.Add(int64(i)) })
		want := int64(n) * int64(n-1) / 2
		if n == 0 {
			want = 0
		}
		return sum.Load() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestForCtxNilCtxRunsToCompletion(t *testing.T) {
	var count atomic.Int64
	if err := ForCtx(nil, 500, 4, 8, func(i int) { count.Add(1) }); err != nil {
		t.Fatal(err)
	}
	if count.Load() != 500 {
		t.Fatalf("count = %d, want 500", count.Load())
	}
}

func TestForCtxPreCanceledRunsNothing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		var count atomic.Int64
		err := ForCtx(ctx, 1000, workers, 8, func(i int) { count.Add(1) })
		if err != context.Canceled {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if count.Load() != 0 {
			t.Fatalf("workers=%d: %d iterations ran under a pre-canceled ctx", workers, count.Load())
		}
	}
}

func TestForCtxCancelMidRunStopsEarly(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var count atomic.Int64
		err := ForCtx(ctx, 1<<20, workers, 8, func(i int) {
			if count.Add(1) == 100 {
				cancel()
			}
		})
		if err != context.Canceled {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		// Claimed chunks still complete, but the loop must stop well short
		// of the full iteration space.
		if got := count.Load(); got >= 1<<20 {
			t.Fatalf("workers=%d: cancellation ignored, all %d iterations ran", workers, got)
		}
	}
}

func TestForCtxCompletedIndicesAreContiguousChunks(t *testing.T) {
	// Every index is either fully processed or never started: fn is not
	// abandoned mid-call, so the hit set must be exactly the set of claimed
	// chunks (each chunk complete).
	const n, grain = 4096, 16
	ctx, cancel := context.WithCancel(context.Background())
	hits := make([]int32, n)
	var count atomic.Int64
	ForCtx(ctx, n, 4, grain, func(i int) {
		atomic.StoreInt32(&hits[i], 1)
		if count.Add(1) == 64 {
			cancel()
		}
	})
	for c := 0; c < n/grain; c++ {
		first := hits[c*grain]
		for i := c*grain + 1; i < (c+1)*grain; i++ {
			if hits[i] != first {
				t.Fatalf("chunk %d partially executed", c)
			}
		}
	}
}

func TestWorkerPanicPropagatesToCaller(t *testing.T) {
	for _, workers := range []int{2, 8} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("workers=%d: panic did not propagate", workers)
				}
				wp, ok := r.(*WorkerPanic)
				if !ok {
					t.Fatalf("workers=%d: recovered %T, want *WorkerPanic", workers, r)
				}
				if wp.Value != "boom" {
					t.Fatalf("workers=%d: panic value %v, want boom", workers, wp.Value)
				}
				if len(wp.Stack) == 0 {
					t.Fatalf("workers=%d: worker stack not captured", workers)
				}
			}()
			For(10000, workers, 4, func(i int) {
				if i == 777 {
					panic("boom")
				}
			})
		}()
	}
}

func TestWorkerPanicStopsOtherWorkers(t *testing.T) {
	var count atomic.Int64
	func() {
		defer func() { recover() }()
		For(1<<20, 4, 4, func(i int) {
			if count.Add(1) == 50 {
				panic("stop")
			}
		})
	}()
	if got := count.Load(); got >= 1<<20 {
		t.Fatalf("workers kept running after a panic: %d iterations", got)
	}
}

func TestWorkerPanicUnwrapsErrors(t *testing.T) {
	sentinel := errors.New("sentinel")
	defer func() {
		r := recover()
		wp, ok := r.(*WorkerPanic)
		if !ok {
			t.Fatalf("recovered %T, want *WorkerPanic", r)
		}
		if !errors.Is(wp, sentinel) {
			t.Fatalf("errors.Is failed to see through WorkerPanic: %v", wp)
		}
	}()
	For(1000, 4, 4, func(i int) {
		if i == 500 {
			panic(sentinel)
		}
	})
}

func TestGrainBoundsAndScaling(t *testing.T) {
	cases := []struct {
		n, workers, want int
	}{
		{0, 4, minGrain},                  // empty loop: clamp floor
		{100, 4, minGrain},                // small loop: clamp floor
		{1 << 20, 4, maxGrain},            // huge loop: clamp ceiling
		{64 * chunksPerWorker * 4, 4, 64}, // in range: n/(workers·chunks)
	}
	for _, c := range cases {
		if got := Grain(c.n, c.workers); got != c.want {
			t.Errorf("Grain(%d, %d) = %d, want %d", c.n, c.workers, got, c.want)
		}
	}
	// More workers must never increase the grain (finer chunks balance better).
	if Grain(1<<16, 16) > Grain(1<<16, 2) {
		t.Error("grain grew with worker count")
	}
}

func TestAdaptiveGrainCoversAllIndices(t *testing.T) {
	for _, n := range []int{1, 63, 4096, 100000} {
		hits := make([]int32, n)
		ForWorker(n, 4, Adaptive, func(w, i int) { atomic.AddInt32(&hits[i], 1) })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("n=%d: index %d hit %d times under adaptive grain", n, i, h)
			}
		}
	}
}

func TestReduceSum(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 9} {
		for _, n := range []int{0, 1, 10, 4096} {
			got, _ := ReduceCtx(nil, n, workers, Adaptive, // a nil ctx never errors
				func(_, i int, acc int64) int64 { return acc + int64(i) },
				func(a, b int64) int64 { return a + b })
			want := int64(n) * int64(n-1) / 2
			if got != want {
				t.Fatalf("workers=%d n=%d: sum = %d, want %d", workers, n, got, want)
			}
		}
	}
}

func TestReduceStructAccumulator(t *testing.T) {
	type stats struct{ count, max int64 }
	got, _ := ReduceCtx(nil, 1000, 4, 7,
		func(_, i int, acc stats) stats {
			acc.count++
			if int64(i) > acc.max {
				acc.max = int64(i)
			}
			return acc
		},
		func(a, b stats) stats {
			a.count += b.count
			if b.max > a.max {
				a.max = b.max
			}
			return a
		})
	if got.count != 1000 || got.max != 999 {
		t.Fatalf("got %+v, want {1000 999}", got)
	}
}

func TestReduceWorkerSlotsAreIsolated(t *testing.T) {
	// Each body call must see exactly the accumulator its own worker built:
	// tag accumulators with the worker id and verify it never changes.
	type tagged struct {
		worker int
		n      int64
	}
	got, _ := ReduceCtx(nil, 10000, 8, 4,
		func(w, _ int, acc tagged) tagged {
			if acc.n == 0 {
				acc.worker = w
			} else if acc.worker != w {
				panic("accumulator crossed workers")
			}
			acc.n++
			return acc
		},
		func(a, b tagged) tagged { return tagged{n: a.n + b.n} })
	if got.n != 10000 {
		t.Fatalf("total %d, want 10000", got.n)
	}
}

func TestInlinePanicPropagatesDirectly(t *testing.T) {
	// workers=1 runs inline: the panic reaches the caller unwrapped, with
	// the natural stack.
	defer func() {
		if r := recover(); r != "inline" {
			t.Fatalf("recovered %v, want inline", r)
		}
	}()
	For(10, 1, 4, func(i int) {
		if i == 5 {
			panic("inline")
		}
	})
}
