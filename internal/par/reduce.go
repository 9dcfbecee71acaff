package par

import (
	"context"
	"unsafe"
)

// accPadBytes separates per-worker accumulator slots so that two workers
// folding into adjacent slots never share a cache line (128 bytes covers the
// adjacent-line prefetcher on current x86 parts).
const accPadBytes = 128

// ReduceCtx executes body(worker, i, acc) for every i in [0, n) with the
// given number of workers and folds the per-worker partial results with
// merge.
//
// Each worker threads its own accumulator (starting from the zero value of T)
// through its body invocations, so body needs no synchronization and no
// allocation; accumulator slots are padded apart to avoid false sharing.
// After the implicit barrier the partials are folded sequentially in worker
// order on the calling goroutine. For a deterministic result independent of
// how the dynamic scheduler splits the iteration space, merge and the
// per-item fold must be associative and commutative (true for the counter
// and max/min reductions this repository uses; floating-point sums are
// deterministic only for workers == 1).
//
// workers and grain follow the For conventions: workers <= 0 means
// GOMAXPROCS, workers == 1 runs inline, grain <= 0 selects the adaptive
// chunk size of Grain.
//
// Cancellation is that of ForCtx: between chunks each worker polls ctx and
// stops claiming new work once it is done. When the loop is cut short
// ReduceCtx returns the zero value of T and ctx.Err() — partial reductions
// are never exposed, because a caller cannot tell which indices
// contributed. A nil ctx disables polling (and ReduceCtx then never
// errors).
func ReduceCtx[T any](ctx context.Context, n, workers, grain int, body func(worker, i int, acc T) T, merge func(a, b T) T) (T, error) {
	var zero T
	if n <= 0 {
		return zero, nil
	}
	if workers <= 0 {
		workers = defaultWorkers()
	}
	// Stride the accumulators so consecutive workers' slots are at least
	// accPadBytes apart. max(1, ...) keeps huge T values working.
	stride := 1
	if sz := unsafe.Sizeof(zero); sz > 0 && sz < accPadBytes {
		stride = int(accPadBytes/sz) + 1
	}
	accs := make([]T, workers*stride)
	if err := ForWorkerCtx(ctx, n, workers, grain, func(w, i int) {
		accs[w*stride] = body(w, i, accs[w*stride])
	}); err != nil {
		return zero, err
	}
	out := accs[0]
	for w := 1; w < workers; w++ {
		out = merge(out, accs[w*stride])
	}
	return out, nil
}
