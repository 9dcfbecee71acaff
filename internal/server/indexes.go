package server

import (
	"context"
	"sync/atomic"
	"time"

	"anyscan/internal/faultinject"
	"anyscan/internal/graph"
	"anyscan/internal/index"
	"anyscan/internal/live"
)

// This file derives state from a graph generation: its query indexes, built
// single-flight into the generation's slots, and its live graph. Because
// the index answers any (μ, ε), every read of a generation at a given
// accuracy dial shares one instance; the index is safe for concurrent
// readers (see index.Index), so it is handed to every request without
// locking. Overload safety:
//
//   - builds run on their own goroutine under a context cancelled when every
//     waiter has abandoned them (and on eviction of their generation);
//   - builds pass through the admission semaphore when one is configured, so
//     a storm of first queries for distinct graphs sheds instead of piling
//     up σ passes;
//   - a generation keeps one approximate dial beside its exact index, and a
//     byte budget bounds resident indexes with LRU eviction;
//   - the last good index per slot survives under the name for
//     degraded-mode serving (droppable under memory pressure).

// indexEntry is one index slot's build and, once ready, its index.
type indexEntry struct {
	delta float64       // the accuracy dial (0 = exact)
	ready chan struct{} // closed once idx/err/buildMS are set

	// Set under the registry's mu before ready closes.
	idx     *index.Index
	err     error
	buildMS float64

	// waiters counts the requests currently blocked on this entry's build.
	// When the last one abandons (its deadline expired, its client hung up)
	// the build context is cancelled: nobody is left to consume the result,
	// so the σ pass stops burning cores within one chunk.
	waiters     atomic.Int64
	cancelBuild context.CancelFunc

	lastUsed atomic.Int64 // UnixNano of the most recent use (LRU ordering)
}

func (e *indexEntry) touch() { e.lastUsed.Store(time.Now().UnixNano()) }

// staleIndex is the last index successfully built for a name's slot, kept
// when the generation is rebuilt or evicted so the server can degrade to
// stale-while-revalidate serving: when a build fails or is shed, reads are
// answered from here — explicitly marked stale — instead of erroring.
type staleIndex struct {
	idx   *index.Index
	delta float64
	built time.Time
}

// slotOf maps an accuracy dial to its slot: 0 exact, 1 the one dial.
func slotOf(delta float64) int {
	if delta > 0 {
		return 1
	}
	return 0
}

// index returns ge's query index at the accuracy dial (delta 0 = exact),
// building it on first use. hit reports whether the index was already
// there; buildMS is the construction time paid by the request that built it
// (0 on hits). index honors ctx while waiting: an abandoned wait returns
// ctx.Err() (and may cancel the build — see indexEntry.waiters), and build
// admission failures surface as *OverloadError so the read can degrade to
// stale serving.
func (r *Registry) index(ctx context.Context, ge *GraphEntry, delta float64) (idx *index.Index, hit bool, buildMS float64, err error) {
	e, built := r.slot(ge, delta)
	e.touch()
	if err := r.wait(ctx, ge, e); err != nil {
		return nil, false, 0, err
	}
	if e.err != nil {
		return nil, false, 0, e.err
	}
	if built {
		return e.idx, false, e.buildMS, nil
	}
	r.met.IndexHits.Add(1)
	return e.idx, true, 0, nil
}

// slot returns ge's entry at delta, creating it (and launching its build) on
// first use or when the dial slot holds another δ; built reports whether
// this call launched the build.
func (r *Registry) slot(ge *GraphEntry, delta float64) (e *indexEntry, built bool) {
	r.mu.Lock()
	slot := &ge.slots[slotOf(delta)]
	if e := *slot; e != nil && e.delta == delta {
		r.mu.Unlock()
		return e, false
	}
	ctx, cancel := context.WithCancel(context.Background())
	e = &indexEntry{delta: delta, ready: make(chan struct{}), cancelBuild: cancel}
	e.touch()
	*slot = e
	r.mu.Unlock()

	r.met.IndexMisses.Add(1)
	go r.build(ctx, ge, e)
	return e, true
}

// wait blocks until the entry's build completes or ctx expires. The waiter
// registers itself so the registry knows whether anybody still cares about
// an in-flight build; the last waiter to abandon an unfinished build cancels
// it and empties the slot, so the next query starts a fresh build instead of
// inheriting this one's cancellation error.
func (r *Registry) wait(ctx context.Context, ge *GraphEntry, e *indexEntry) error {
	e.waiters.Add(1)
	select {
	case <-e.ready:
		e.waiters.Add(-1)
		return nil
	case <-ctx.Done():
		if e.waiters.Add(-1) == 0 {
			select {
			case <-e.ready: // finished in the meantime; keep the result
			default:
				e.cancelBuild()
				r.mu.Lock()
				if slot := &ge.slots[slotOf(e.delta)]; *slot == e {
					*slot = nil
				}
				r.mu.Unlock()
			}
		}
		return ctx.Err()
	}
}

// build runs one single-flight index construction on its own goroutine. A
// failed build leaves its slot empty, so the next query retries. A
// successful one on the name's current generation becomes the slot's last
// good index, and then the byte budget is enforced (never evicting the
// entry just built). A build whose slot was replaced or whose generation was
// evicted only answers the waiters already parked on it.
func (r *Registry) build(ctx context.Context, ge *GraphEntry, e *indexEntry) {
	defer e.cancelBuild() // release the context's resources
	start := time.Now()
	idx, err := r.runBuild(ctx, ge.G, e.delta)
	if err == nil {
		r.met.IndexSims.Add(idx.SimEvals()) // one σ per undirected edge
		r.met.IndexBuildUS.Add(time.Since(start).Microseconds())
		if e.delta > 0 {
			r.met.ApproxIndexBuilds.Add(1)
		}
	}

	r.mu.Lock()
	e.idx, e.err = idx, err
	e.buildMS = float64(time.Since(start).Microseconds()) / 1000
	i := slotOf(e.delta)
	switch ns := r.names[ge.Name]; {
	case ge.slots[i] != e:
		// Replaced by another dial or abandoned: the parked waiters only.
	case err != nil:
		ge.slots[i] = nil
	case ns != nil && ns.cur == ge:
		ns.stale[i] = &staleIndex{idx: idx, delta: e.delta, built: time.Now()}
		r.enforceBudgetLocked(e)
	}
	r.mu.Unlock()
	close(e.ready)
}

// runBuild passes the build through admission control (when configured), the
// chaos fault point, and the cancellable σ pass — sketch-based at an
// accuracy dial.
func (r *Registry) runBuild(ctx context.Context, g graph.Graph, delta float64) (*index.Index, error) {
	if r.admit != nil {
		release, err := r.admit.acquireBuild(ctx)
		if err != nil {
			return nil, err
		}
		defer release()
	}
	if err := faultinject.Hit("index.build"); err != nil {
		return nil, err
	}
	if delta > 0 {
		return index.BuildApproxCtx(ctx, g, r.threads, delta)
	}
	return index.BuildCtx(ctx, g, r.threads)
}

// lastGood returns the last index built under name at delta, or nil. It may
// answer for an older generation of the graph.
func (r *Registry) lastGood(name string, delta float64) *index.Index {
	r.mu.Lock()
	defer r.mu.Unlock()
	if ns := r.names[name]; ns != nil {
		if s := ns.stale[slotOf(delta)]; s != nil && s.delta == delta {
			return s.idx
		}
	}
	return nil
}

// promote returns ge's live graph, promoting the generation on first use:
// epoch 0 wraps its exact index zero-copy (live.FromIndex), so promotion
// shares the index's single-flight build, admission control and σ
// accounting. A live graph always grows from the exact index: epoch 0 must
// carry true σ values for incremental maintenance to patch. A failed build
// leaves ge unpromoted; the next mutation retries.
func (r *Registry) promote(ctx context.Context, ge *GraphEntry) (*live.Graph, error) {
	if lg := r.liveOf(ge); lg != nil {
		return lg, nil
	}
	idx, _, _, err := r.index(ctx, ge, 0)
	if err != nil {
		return nil, err
	}
	ge.promoteOnce.Do(func() {
		lg := live.FromIndex(idx)
		r.mu.Lock()
		ge.live = lg
		r.mu.Unlock()
	})
	return r.liveOf(ge), nil
}

// liveOf returns ge's live graph without blocking, or nil when ge was never
// mutated or is still being promoted. Until the promotion publishes, no
// batch has been applied — epoch 0 equals the index — so the index path
// stays correct.
func (r *Registry) liveOf(ge *GraphEntry) *live.Graph {
	r.mu.Lock()
	defer r.mu.Unlock()
	return ge.live
}

// enforceBudgetLocked evicts least-recently-used indexes until resident
// bytes fit the budget, never evicting keep (the entry that triggered
// enforcement), an entry with waiters, or an index a live graph pins (its
// epochs alias it, so dropping it would free nothing). Orphaned stale
// snapshots (no longer the current generation's index) go first — they only
// serve degraded mode; current slots follow in LRU order, each dropping its
// stale twin (otherwise nothing would be freed). r.mu must be held.
func (r *Registry) enforceBudgetLocked(keep *indexEntry) {
	if r.budget <= 0 {
		return
	}
	for r.usedBytesLocked() > r.budget {
		var oldest **staleIndex
		var oldestName string
		for name, ns := range r.names {
			for i, s := range ns.stale {
				if s == nil || ns.fresh(i) == s.idx {
					continue
				}
				if oldest == nil || s.built.Before((*oldest).built) {
					oldest, oldestName = &ns.stale[i], name
				}
			}
		}
		if oldest != nil {
			*oldest = nil
			r.forgetLocked(oldestName, r.names[oldestName])
			r.met.IndexEvicted.Add(1)
			continue
		}
		var victim *nameState
		var vi int
		for _, ns := range r.names {
			if ns.cur == nil {
				continue
			}
			for i, e := range ns.cur.slots {
				pinned := i == 0 && ns.cur.live != nil
				if e == nil || e == keep || e.idx == nil || e.waiters.Load() > 0 || pinned {
					continue
				}
				if victim == nil || e.lastUsed.Load() < victim.cur.slots[vi].lastUsed.Load() {
					victim, vi = ns, i
				}
			}
		}
		if victim == nil {
			return // nothing evictable; the budget is best-effort
		}
		if victim.stale[vi] != nil && victim.stale[vi].idx == victim.fresh(vi) {
			victim.stale[vi] = nil
		}
		victim.cur.slots[vi] = nil
		r.met.IndexEvicted.Add(1)
	}
}

// fresh returns the built index in the current generation's slot i, or nil.
func (ns *nameState) fresh(i int) *index.Index {
	if ns.cur != nil && ns.cur.slots[i] != nil {
		return ns.cur.slots[i].idx
	}
	return nil
}

// usedBytesLocked sums the bytes of every resident index: the current
// generations' slots and the last good indexes, a slot and its stale twin
// counting once. r.mu must be held.
func (r *Registry) usedBytesLocked() int64 {
	var total int64
	for _, ns := range r.names {
		for i, s := range ns.stale {
			fresh := ns.fresh(i)
			if fresh != nil {
				total += fresh.Bytes()
			}
			if s != nil && s.idx != fresh {
				total += s.idx.Bytes()
			}
		}
	}
	return total
}

// stateStats samples the per-graph gauges at /metrics scrape time, over
// current generations: the index slots in use, the resident index bytes,
// the live graphs, and the largest read-your-writes lag (how far any
// demanded epoch runs ahead of its published state).
func (r *Registry) stateStats() (indexes int, indexBytes int64, liveGraphs int, maxLag int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.current(func(ge *GraphEntry) {
		for _, e := range ge.slots {
			if e != nil {
				indexes++
			}
		}
		if ge.live != nil {
			liveGraphs++
			maxLag = max(maxLag, ge.live.Lag())
		}
	})
	return indexes, r.usedBytesLocked(), liveGraphs, maxLag
}
