package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"

	"anyscan/internal/graph"
	"anyscan/internal/live"
)

// This file wires the live mutable-graph subsystem (internal/live) into the
// HTTP server: a per-graph cache of live.Graph instances created on first
// mutation and the POST /v1/graphs/{name}/edges handler. Reads find a graph's
// live epochs through resolveView.

// liveEntry is one graph's live.Graph, materialized single-flight by the
// first mutation against that graph.
type liveEntry struct {
	name  string
	g     graph.Graph   // registry generation epoch 0 grew from
	ready chan struct{} // closed when lg/err are set
	lg    *live.Graph
	err   error
}

// liveCache maps graph names to their live mutable graphs. A live graph is
// created lazily by the first mutation: epoch 0 wraps the graph's cached
// query index zero-copy (live.FromIndex), so promotion reuses the index
// cache's single-flight build, admission control, and σ accounting instead
// of duplicating them. Queries look the cache up non-blockingly — a graph
// nobody has mutated keeps being served straight from the immutable index.
type liveCache struct {
	mu      sync.Mutex
	entries map[string]*liveEntry
	idx     *indexCache
}

func newLiveCache(idx *indexCache) *liveCache {
	return &liveCache{entries: make(map[string]*liveEntry), idx: idx}
}

// get returns the live graph for the registry entry, materializing it on
// first use. The creator pays the index build (through the index cache, so
// concurrent first queries share it and admission control applies); failed
// materializations are not cached — the next mutation retries.
func (c *liveCache) get(ctx context.Context, ge *GraphEntry) (*live.Graph, error) {
	c.mu.Lock()
	e, ok := c.entries[ge.Name]
	if ok && e.g != ge.G {
		// The name was evicted and reloaded with different content; the live
		// graph descends from a graph that no longer exists.
		ok = false
	}
	if ok {
		c.mu.Unlock()
		select {
		case <-e.ready:
			return e.lg, e.err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	e = &liveEntry{name: ge.Name, g: ge.G, ready: make(chan struct{})}
	c.entries[ge.Name] = e
	c.mu.Unlock()

	// A live graph always grows from the exact index (delta 0): epoch 0 must
	// carry true σ values for incremental maintenance to patch.
	idx, _, _, err := c.idx.get(ctx, ge, 0)
	if err != nil {
		e.err = err
		c.mu.Lock()
		if c.entries[ge.Name] == e {
			delete(c.entries, ge.Name)
		}
		c.mu.Unlock()
	} else {
		e.lg = live.FromIndex(idx)
	}
	close(e.ready)
	return e.lg, e.err
}

// lookup returns the live graph for the name without blocking, reporting
// false when none exists (never mutated, still materializing, or descended
// from an evicted generation). While a live graph is materializing no batch
// has been applied yet — epoch 0 equals the index — so the index path stays
// correct until lookup starts returning it.
func (c *liveCache) lookup(name string, g graph.Graph) (*live.Graph, bool) {
	c.mu.Lock()
	e, ok := c.entries[name]
	c.mu.Unlock()
	if !ok || e.g != g {
		return nil, false
	}
	select {
	case <-e.ready:
	default:
		return nil, false
	}
	if e.err != nil || e.lg == nil {
		return nil, false
	}
	return e.lg, true
}

// evictGraph drops the named graph's live state (after a registry eviction).
// In-flight queries holding an epoch keep it — epochs are immutable.
func (c *liveCache) evictGraph(name string) {
	c.mu.Lock()
	delete(c.entries, name)
	c.mu.Unlock()
}

// stats samples the gauge values exported at /metrics scrape time: how many
// graphs have live epoch chains and the largest read-your-writes lag (how
// far any demanded epoch runs ahead of its published state).
func (c *liveCache) stats() (graphs int, maxLag int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range c.entries {
		select {
		case <-e.ready:
		default:
			continue
		}
		if e.err != nil || e.lg == nil {
			continue
		}
		graphs++
		if lag := e.lg.Lag(); lag > maxLag {
			maxLag = lag
		}
	}
	return graphs, maxLag
}

// parseOp maps the wire op string to a live.Op.
func parseOp(op string) (live.Op, error) {
	switch op {
	case "add":
		return live.OpAdd, nil
	case "delete":
		return live.OpDelete, nil
	case "reweight":
		return live.OpReweight, nil
	}
	return 0, fmt.Errorf("unknown op %q (want add, delete, or reweight)", op)
}

// handleMutate answers POST /v1/graphs/{name}/edges: apply one batch of edge
// mutations atomically and publish the result as a new epoch. The response
// carries the epoch token; passing it back as ?min_epoch= on GET /v1/query
// guarantees the query observes the write. Applying a batch recomputes σ for
// every arc incident to a touched vertex, so the work is metered through the
// admission semaphore at build weight.
func (s *Server) handleMutate(w http.ResponseWriter, r *http.Request) {
	var req MutateRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if len(req.Mutations) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("mutations list is empty"))
		return
	}
	ge, err := s.reg.Get(r.PathValue("name"))
	if err != nil {
		writeError(w, errorCode(err), err)
		return
	}
	muts := make([]live.Mutation, len(req.Mutations))
	for i, m := range req.Mutations {
		op, err := parseOp(m.Op)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("mutation %d: %w", i, err))
			return
		}
		// Validate endpoint ranges before materializing the live graph:
		// live.Apply re-validates the whole batch, but a bad vertex id must
		// not first trigger the (expensive) epoch-0 index build.
		if err := vertexInRange(m.U, ge.G.NumVertices()); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("mutation %d: %w", i, err))
			return
		}
		if err := vertexInRange(m.V, ge.G.NumVertices()); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("mutation %d: %w", i, err))
			return
		}
		muts[i] = live.Mutation{Op: op, U: m.U, V: m.V, W: m.W}
	}

	lg, err := s.liveGraphs.get(r.Context(), ge)
	if err != nil {
		s.fail(w, http.StatusServiceUnavailable, err)
		return
	}
	if s.admit != nil {
		release, err := s.admit.acquireBuild(r.Context())
		if err != nil {
			s.fail(w, http.StatusServiceUnavailable, err)
			return
		}
		defer release()
	}
	ep, st, err := lg.Apply(muts)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	s.met.MutationsTotal.Add(int64(len(muts)))
	if st.Applied > 0 {
		s.met.EpochsPublished.Add(1)
		s.met.EpochPublishUS.Add(st.Publish.Microseconds())
	}
	writeJSON(w, http.StatusOK, MutateResponse{
		Graph:           ge.Name,
		Epoch:           ep.Seq(),
		Applied:         st.Applied,
		NoOps:           st.NoOps,
		Vertices:        ep.NumVertices(),
		Edges:           ep.NumEdges(),
		PublishMS:       float64(st.Publish.Microseconds()) / 1000,
		SigmaRecomputed: st.SigmaRecomputed,
	})
}
