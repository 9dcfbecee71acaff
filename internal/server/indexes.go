package server

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"anyscan/internal/faultinject"
	"anyscan/internal/graph"
	"anyscan/internal/index"
)

// idxKey identifies one cached query index: the graph name plus the
// approximation delta it was built with. The exact index (delta 0) and the
// requested accuracy dial are distinct cache residents — they answer with
// different guarantees, so they can never share storage — but a graph keeps
// at most one dial resident (see dropOtherDialsLocked).
type idxKey struct {
	name  string
	delta float64
}

// indexEntry is one per-(graph, delta) cached query index.
type indexEntry struct {
	key     idxKey
	g       graph.Graph   // the graph generation the index answers for
	ready   chan struct{} // closed when idx/err are set
	idx     *index.Index
	err     error
	buildMS float64

	// waiters counts the requests currently blocked on this entry's build.
	// When the last one abandons (its deadline expired, its client hung up)
	// the build context is cancelled: nobody is left to consume the result,
	// so the σ pass stops burning cores within one chunk.
	waiters     atomic.Int64
	cancelBuild context.CancelFunc

	lastUsed atomic.Int64 // UnixNano of the most recent get (LRU ordering)
}

func (e *indexEntry) touch() { e.lastUsed.Store(time.Now().UnixNano()) }

// staleIndex is the last index successfully built for a cache key, retained
// after the fresh entry is replaced or rebuilt so the server can degrade to
// stale-while-revalidate serving: when a rebuild fails or is shed, queries
// are answered from here — explicitly marked stale — instead of erroring.
type staleIndex struct {
	idx   *index.Index
	g     graph.Graph // generation the stale index was built on
	built time.Time
}

// indexCache caches one query index per (graph, delta) with single-flight
// construction: concurrent first queries for the same key block on one build
// instead of each paying the Θ(|E|) similarity pass. Because the index
// answers any (μ, ε), every query against a graph at a given accuracy dial —
// at any parameters — shares the single instance; the index is safe for
// concurrent readers (see index.Index), so cached instances are handed to
// every request without locking.
//
// Overload safety on top of the PR 3 design:
//
//   - builds run on their own goroutine under a context cancelled when every
//     waiter has abandoned them (and aborted outright on graph eviction);
//   - builds pass through the admission semaphore when one is configured, so
//     a storm of first queries for distinct graphs sheds instead of piling
//     up σ passes;
//   - a graph keeps at most one approximate dial resident beside its exact
//     index, and a byte budget bounds resident indexes with LRU eviction;
//   - the last good index per key survives in the stale store for
//     degraded-mode serving (droppable under memory pressure).
type indexCache struct {
	mu      sync.Mutex
	entries map[idxKey]*indexEntry // (graph, delta) → fresh entry
	stale   map[idxKey]*staleIndex // (graph, delta) → last good index
	met     *Metrics
	threads int        // workers for index construction (0 = GOMAXPROCS)
	admit   *admission // nil → builds are never shed
	budget  int64      // max resident index bytes (0 → unlimited)
}

func newIndexCache(met *Metrics, threads int, admit *admission, budget int64) *indexCache {
	return &indexCache{
		entries: make(map[idxKey]*indexEntry),
		stale:   make(map[idxKey]*staleIndex),
		met:     met,
		threads: threads,
		admit:   admit,
		budget:  budget,
	}
}

// get returns the cached index for the graph at the given accuracy dial
// (delta 0 = exact), building it on first use. hit reports whether the index
// was already resident; buildMS is the construction time paid by the request
// that built it (0 on hits). get honors ctx while waiting: an abandoned wait
// returns ctx.Err() (and may cancel the build — see indexEntry.waiters), and
// build admission failures surface as *OverloadError so the handler can
// degrade to stale serving.
func (c *indexCache) get(ctx context.Context, ge *GraphEntry, delta float64) (idx *index.Index, hit bool, buildMS float64, err error) {
	e, built := c.entry(ge, delta)
	e.touch()
	if err := c.wait(ctx, e); err != nil {
		return nil, false, 0, err
	}
	if e.err != nil {
		return nil, false, 0, e.err
	}
	if built {
		return e.idx, false, e.buildMS, nil
	}
	c.met.IndexHits.Add(1)
	return e.idx, true, 0, nil
}

// wait blocks until the entry's build completes or ctx expires. The waiter
// registers itself so the cache knows whether anybody still cares about an
// in-flight build; the last waiter to abandon an unfinished build cancels
// it.
func (c *indexCache) wait(ctx context.Context, e *indexEntry) error {
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
				// Nobody is left to consume the build: cancel it and drop the
				// entry right away so the next query starts a fresh build
				// instead of inheriting this one's cancellation error.
				e.cancelBuild()
				c.mu.Lock()
				if c.entries[e.key] == e {
					delete(c.entries, e.key)
				}
				c.mu.Unlock()
			}
		}
		return ctx.Err()
	}
}

// entry returns the cache entry for the (graph, delta) key, creating it (and
// launching its build) on first use; built reports whether this call
// launched the build.
func (c *indexCache) entry(ge *GraphEntry, delta float64) (e *indexEntry, built bool) {
	key := idxKey{name: ge.Name, delta: delta}
	c.mu.Lock()
	e, ok := c.entries[key]
	if ok && e.g != ge.G {
		// The name was evicted and reloaded with different content; the
		// cached index answers for a graph that no longer exists.
		ok = false
	}
	if ok {
		c.mu.Unlock()
		return e, false
	}
	buildCtx, cancel := context.WithCancel(context.Background())
	e = &indexEntry{
		key:         key,
		g:           ge.G,
		ready:       make(chan struct{}),
		cancelBuild: cancel,
	}
	e.touch()
	c.entries[key] = e
	c.mu.Unlock()

	c.met.IndexMisses.Add(1)
	go c.build(buildCtx, e)
	return e, true
}

// build runs one single-flight index construction on its own goroutine.
func (c *indexCache) build(ctx context.Context, e *indexEntry) {
	defer e.cancelBuild() // release the context's timer resources
	start := time.Now()
	idx, err := c.runBuild(ctx, e)
	if err == nil {
		e.idx = idx
		e.buildMS = float64(time.Since(start).Microseconds()) / 1000
		c.met.IndexSims.Add(idx.SimEvals()) // one σ per undirected edge
		c.met.IndexBuildUS.Add(time.Since(start).Microseconds())
		if e.key.delta > 0 {
			c.met.ApproxIndexBuilds.Add(1)
		}
	} else {
		e.err = err
	}

	c.mu.Lock()
	current := c.entries[e.key] == e
	if err != nil {
		// Failed or abandoned builds are not cached: the next query retries.
		if current {
			delete(c.entries, e.key)
		}
	} else if current {
		// Publish as the last good index for degraded-mode serving, then
		// enforce the byte budget (never evicting the entry just built).
		c.stale[e.key] = &staleIndex{idx: idx, g: e.g, built: time.Now()}
		if e.key.delta > 0 {
			c.dropOtherDialsLocked(e.key)
		}
		c.enforceBudgetLocked(e)
	}
	// When the entry was evicted mid-build the result is handed only to the
	// waiters already parked on ready; it is not (re-)published.
	c.mu.Unlock()
	close(e.ready)
}

// runBuild passes the build through admission control (when configured), the
// chaos fault point, and the cancellable σ pass — sketch-based when the
// entry's key carries an accuracy dial.
func (c *indexCache) runBuild(ctx context.Context, e *indexEntry) (*index.Index, error) {
	if c.admit != nil {
		release, err := c.admit.acquireBuild(ctx)
		if err != nil {
			return nil, err
		}
		defer release()
	}
	if err := faultinject.Hit("index.build"); err != nil {
		return nil, err
	}
	if e.key.delta > 0 {
		return index.BuildApproxCtx(ctx, e.g, c.threads, e.key.delta)
	}
	return index.BuildCtx(ctx, e.g, c.threads)
}

// dropOtherDialsLocked keeps at most one approximate dial per graph resident
// beside its exact index: a successful build at δ > 0 drops the graph's
// finished entries and stale snapshots at every other δ > 0. Without it each
// distinct ?approx= value would pin another index, plus its stale twin, for
// the daemon's lifetime whenever no memory budget is set. A build still in
// flight at another δ stays and, once it succeeds, drops this one in turn.
// c.mu must be held.
func (c *indexCache) dropOtherDialsLocked(keep idxKey) {
	other := func(key idxKey) bool { return key.name == keep.name && key.delta > 0 && key != keep }
	for key, e := range c.entries {
		if !other(key) {
			continue
		}
		select {
		case <-e.ready:
			delete(c.entries, key)
		default: // still building
		}
	}
	for key := range c.stale {
		if other(key) {
			delete(c.stale, key)
		}
	}
}

// staleFor returns the last good index for the (graph, delta) key, if any.
func (c *indexCache) staleFor(name string, delta float64) (*staleIndex, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.stale[idxKey{name: name, delta: delta}]
	return s, ok
}

// evictGraph drops the named graph's cached indexes (at every accuracy
// dial) after a registry eviction, aborting any
// build still in flight — its waiters see a cancellation, retryable once the
// graph is reloaded. The stale snapshots are retained: an evict-and-reload
// cycle is the common way to refresh a graph, and the snapshot is what lets
// queries degrade to stale-marked answers while the replacement index builds
// (or fails to). Memory-budget enforcement reclaims them when space is
// needed.
func (c *indexCache) evictGraph(name string) {
	c.mu.Lock()
	var evicted []*indexEntry
	for key, e := range c.entries {
		if key.name == name {
			delete(c.entries, key)
			evicted = append(evicted, e)
		}
	}
	c.mu.Unlock()
	for _, e := range evicted {
		select {
		case <-e.ready:
		default:
			e.cancelBuild()
		}
	}
}

// enforceBudgetLocked evicts least-recently-used indexes until resident
// bytes fit the budget, never evicting keep (the entry that triggered
// enforcement) or entries with live waiters. Orphaned stale snapshots (whose
// fresh entry is gone or replaced) go first — they only serve degraded mode;
// fresh entries follow in LRU order, each dropping its stale twin when that
// twin is the same index (otherwise nothing would be freed). c.mu must be
// held.
func (c *indexCache) enforceBudgetLocked(keep *indexEntry) {
	if c.budget <= 0 {
		return
	}
	for c.usedBytesLocked() > c.budget {
		// Oldest orphaned stale snapshot first.
		var oldestKey idxKey
		var oldest *staleIndex
		for key, s := range c.stale {
			if e, ok := c.entries[key]; ok && e.idx == s.idx {
				continue // twin of a live entry: freeing it frees nothing
			}
			if oldest == nil || s.built.Before(oldest.built) {
				oldestKey, oldest = key, s
			}
		}
		if oldest != nil {
			delete(c.stale, oldestKey)
			c.met.IndexEvicted.Add(1)
			continue
		}
		// Then the least-recently-used idle fresh entry (and its twin).
		var victim *indexEntry
		for _, e := range c.entries {
			if e == keep || e.idx == nil || e.waiters.Load() > 0 {
				continue
			}
			if victim == nil || e.lastUsed.Load() < victim.lastUsed.Load() {
				victim = e
			}
		}
		if victim == nil {
			return // nothing evictable; the budget is best-effort
		}
		delete(c.entries, victim.key)
		if s, ok := c.stale[victim.key]; ok && s.idx == victim.idx {
			delete(c.stale, victim.key)
		}
		c.met.IndexEvicted.Add(1)
	}
}

// usedBytesLocked sums the bytes of every distinct resident index (a fresh
// entry and its stale twin share storage and count once). c.mu must be held.
func (c *indexCache) usedBytesLocked() int64 {
	seen := make(map[*index.Index]struct{}, len(c.entries)+len(c.stale))
	var total int64
	for _, e := range c.entries {
		if e.idx != nil {
			if _, ok := seen[e.idx]; !ok {
				seen[e.idx] = struct{}{}
				total += e.idx.Bytes()
			}
		}
	}
	for _, s := range c.stale {
		if _, ok := seen[s.idx]; !ok {
			seen[s.idx] = struct{}{}
			total += s.idx.Bytes()
		}
	}
	return total
}

// usedBytes returns the resident index bytes (for the /metrics gauge).
func (c *indexCache) usedBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.usedBytesLocked()
}

// size returns the number of resident indexes.
func (c *indexCache) size() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
