// Package par provides a dynamically scheduled parallel-for primitive.
//
// It is the Go equivalent of the paper's
// "#pragma omp parallel for schedule(dynamic)" loops (Fig. 4): a fixed pool
// of workers repeatedly grabs chunks of the iteration space from an atomic
// cursor, so vertices with wildly different neighborhood sizes still load-
// balance well.
//
// All variants are panic-safe: a panic inside fn on any worker goroutine is
// recovered, the remaining workers drain, and the panic is re-raised on the
// calling goroutine wrapped in a *WorkerPanic that carries the original
// value and the worker's stack trace. Without this, a single panicking
// worker would crash the whole process (goroutine panics cannot be recovered
// by the caller), which is unacceptable for a long anytime run.
//
// The Ctx variants additionally poll a context between chunks, so a large
// block can be interrupted from the inside rather than only at block
// boundaries.
package par

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Adaptive, passed as the grain argument, asks the scheduler to size chunks
// from the iteration count and worker count via Grain.
const Adaptive = 0

// Adaptive grain bounds: at least chunksPerWorker chunks per worker so
// skewed per-item costs still balance, with the chunk clamped so tiny loops
// do not thrash the atomic cursor and huge loops do not starve stragglers.
const (
	chunksPerWorker = 16
	minGrain        = 8
	maxGrain        = 2048
)

// Grain returns the adaptive chunk size used when a parallel-for is called
// with grain <= 0: n/(workers·chunksPerWorker), clamped to
// [minGrain, maxGrain]. Dividing each worker's share into chunksPerWorker
// pieces keeps dynamic scheduling effective on degree-skewed graphs (the
// paper's GR02/GR03 load-balance concern) while touching the shared cursor
// O(workers·chunksPerWorker) times instead of once per fixed-size chunk.
func Grain(n, workers int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	g := n / (workers * chunksPerWorker)
	if g < minGrain {
		return minGrain
	}
	if g > maxGrain {
		return maxGrain
	}
	return g
}

// defaultWorkers returns the worker count used when a caller passes <= 0.
func defaultWorkers() int { return runtime.GOMAXPROCS(0) }

// WorkerPanic wraps a panic recovered from a parallel-for worker goroutine.
// It is re-raised (via panic) on the goroutine that called For/ForWorker/
// ForCtx/ForWorkerCtx, so callers can recover it where they expect to.
type WorkerPanic struct {
	// Value is the value originally passed to panic inside fn.
	Value any
	// Stack is the worker goroutine's stack at the time of the panic.
	Stack []byte
}

func (p *WorkerPanic) Error() string {
	return fmt.Sprintf("par: worker panic: %v\nworker stack:\n%s", p.Value, p.Stack)
}

// Unwrap exposes the original panic value when it was an error, so
// errors.Is/As work through a recovered WorkerPanic.
func (p *WorkerPanic) Unwrap() error {
	if err, ok := p.Value.(error); ok {
		return err
	}
	return nil
}

// For executes fn(i) for every i in [0, n) using the given number of
// workers. fn must be safe for concurrent invocation on distinct indices.
// workers <= 1 runs inline on the calling goroutine, which keeps the
// sequential configuration free of any goroutine or synchronization
// overhead (the paper's non-parallel anySCAN).
func For(n, workers, grain int, fn func(i int)) {
	ForWorkerCtx(nil, n, workers, grain, func(_, i int) { fn(i) })
}

// ForWorker is like For but also passes the worker id (in [0, workers)) to
// fn, so callers can maintain per-worker scratch buffers without allocation
// or false sharing. workers <= 1 runs inline with worker id 0.
func ForWorker(n, workers, grain int, fn func(worker, i int)) {
	ForWorkerCtx(nil, n, workers, grain, fn)
}

// ForCtx is For with cooperative cancellation: between chunks each worker
// polls ctx and stops claiming new work once it is done. Indices already
// claimed are still completed (fn is never abandoned mid-call), so on return
// every index was either fully processed or not started. Returns ctx.Err()
// when the loop was cut short, nil when every index ran. A nil ctx disables
// polling.
func ForCtx(ctx context.Context, n, workers, grain int, fn func(i int)) error {
	return ForWorkerCtx(ctx, n, workers, grain, func(_, i int) { fn(i) })
}

// ForWorkerCtx is ForWorker with the cooperative cancellation of ForCtx.
func ForWorkerCtx(ctx context.Context, n, workers, grain int, fn func(worker, i int)) error {
	if n <= 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if grain <= 0 {
		grain = Grain(n, workers)
	}
	if workers == 1 || n <= grain {
		// Inline: no goroutine, panics propagate naturally on the caller.
		for i := 0; i < n; i++ {
			if ctx != nil && i%grain == 0 && ctx.Err() != nil {
				return ctx.Err()
			}
			fn(0, i)
		}
		return nil
	}
	if workers > n/2 {
		workers = n/2 + 1
	}

	var (
		cursor  atomic.Int64
		stop    atomic.Bool // set on cancellation or worker panic
		panicMu sync.Mutex
		wp      *WorkerPanic // first recovered panic wins
		wg      sync.WaitGroup
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(worker int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicMu.Lock()
					if wp == nil {
						wp = &WorkerPanic{Value: r, Stack: debug.Stack()}
					}
					panicMu.Unlock()
					stop.Store(true)
				}
			}()
			for {
				if stop.Load() {
					return
				}
				if ctx != nil && ctx.Err() != nil {
					stop.Store(true)
					return
				}
				start := int(cursor.Add(int64(grain))) - grain
				if start >= n {
					return
				}
				end := start + grain
				if end > n {
					end = n
				}
				for i := start; i < end; i++ {
					fn(worker, i)
				}
			}
		}(w)
	}
	wg.Wait()
	if wp != nil {
		panic(wp)
	}
	if ctx != nil && stop.Load() {
		return ctx.Err()
	}
	return nil
}
