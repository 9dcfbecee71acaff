// Package mapreduce emulates a MapReduce execution model in-process:
// partitioned mappers, a hash shuffle, and keyed reducers, with every
// emitted key/value pair counted as shuffle traffic. The paper's related
// work discusses PSCAN (Zhao et al., AINA 2013), a MapReduce formulation of
// SCAN, and argues that transplanting distributed algorithms onto shared
// memory is inefficient; this package exists so that argument can be
// reproduced quantitatively (see PSCANMR and the mapreduce experiment).
package mapreduce

import (
	"sync"
	"sync/atomic"
)

// KV is one key/value pair flowing through the shuffle.
type KV[K comparable, V any] struct {
	Key   K
	Value V
}

// Stats counts the work a job performed in the units a distributed runtime
// bills: map invocations, shuffled pairs, reduce groups and rounds.
type Stats struct {
	MapCalls     int64
	ShuffledKVs  int64
	ReduceGroups int64
	Rounds       int
}

// Job executes MapReduce rounds over a fixed worker pool.
type Job struct {
	Workers int
	Stats   Stats
}

// NewJob returns a job runner with the given parallelism (0 = 4).
func NewJob(workers int) *Job {
	if workers <= 0 {
		workers = 4
	}
	return &Job{Workers: workers}
}

// Round runs one map/shuffle/reduce round: mapFn is applied to every input
// (in parallel, partitioned by worker), its emissions are grouped by key,
// and reduceFn is applied per key group (in parallel). The reduce outputs
// are returned in deterministic (sorted-key-hash-independent) order is NOT
// guaranteed; callers sort if they need determinism.
func Round[I any, K comparable, M any, O any](
	j *Job,
	inputs []I,
	mapFn func(I, func(K, M)),
	reduceFn func(K, []M) O,
) []O {
	j.Stats.Rounds++

	// Map phase: each worker collects its emissions locally (a combiner-
	// free mapper), then the shuffle merges them.
	perWorker := make([][]KV[K, M], j.Workers)
	var wg sync.WaitGroup
	var cursor atomic.Int64
	var mapCalls atomic.Int64
	const grain = 64
	wg.Add(j.Workers)
	for w := 0; w < j.Workers; w++ {
		go func(w int) {
			defer wg.Done()
			emit := func(k K, m M) {
				perWorker[w] = append(perWorker[w], KV[K, M]{k, m})
			}
			for {
				start := int(cursor.Add(grain)) - grain
				if start >= len(inputs) {
					return
				}
				end := start + grain
				if end > len(inputs) {
					end = len(inputs)
				}
				for i := start; i < end; i++ {
					mapFn(inputs[i], emit)
					mapCalls.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	j.Stats.MapCalls += mapCalls.Load()

	// Shuffle: group by key.
	groups := make(map[K][]M)
	for _, kvs := range perWorker {
		j.Stats.ShuffledKVs += int64(len(kvs))
		for _, kv := range kvs {
			groups[kv.Key] = append(groups[kv.Key], kv.Value)
		}
	}
	j.Stats.ReduceGroups += int64(len(groups))

	// Reduce phase in parallel over key groups.
	keys := make([]K, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	out := make([]O, len(keys))
	var kCursor atomic.Int64
	wg.Add(j.Workers)
	for w := 0; w < j.Workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(kCursor.Add(1)) - 1
				if i >= len(keys) {
					return
				}
				out[i] = reduceFn(keys[i], groups[keys[i]])
			}
		}()
	}
	wg.Wait()
	return out
}
