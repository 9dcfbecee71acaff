package server

import (
	"fmt"
	"log/slog"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"anyscan/internal/datasets"
	"anyscan/internal/graph"
	"anyscan/internal/live"
)

// GraphEntry is one loaded generation of a named graph. G is whichever
// backend the source produced — a flat *graph.CSR or a (possibly
// mmap-backed) compressed graph. A reload is a new GraphEntry, and
// everything derived from G hangs off the generation it was derived from,
// so a request that resolved an entry before an eviction computes on that
// generation's own state and never on its successor's.
type GraphEntry struct {
	Name   string
	Source GraphSource
	G      graph.Graph
	Loaded time.Time

	// csr lazily materializes a flat CSR view for the few consumers that
	// need arc-indexed access (the anytime clusterer in particular). For a
	// CSR-backed entry this is the graph itself; for a compressed entry the
	// first caller pays one decompression, logged as a warning because it
	// forfeits the memory the compressed backend saved.
	csrOnce sync.Once
	csr     *graph.CSR

	// The derived state, guarded by the registry's mu: the exact index
	// (slots[0]) and one approximate dial (slots[1]; a request at a new δ
	// replaces it), and the live graph the first mutation promotes the
	// exact index into. promoteOnce keeps concurrent first mutations to one
	// promotion, which materializes a compressed graph.
	slots       [2]*indexEntry
	live        *live.Graph
	promoteOnce sync.Once
}

// CSR returns a flat *graph.CSR view of the entry's graph, materializing
// (and caching) it on first use when the backend is compressed.
func (e *GraphEntry) CSR() *graph.CSR {
	e.csrOnce.Do(func() {
		if g, ok := e.G.(*graph.CSR); ok {
			e.csr = g
			return
		}
		slog.Warn("materializing flat CSR from compressed graph backend (anytime jobs need arc-indexed access)",
			"graph", e.Name)
		e.csr = graph.Materialize(e.G)
	})
	return e.csr
}

// Info returns the wire description of the entry.
func (e *GraphEntry) Info() GraphInfo {
	n := e.G.NumVertices()
	avg := 0.0
	if n > 0 {
		avg = float64(e.G.NumArcs()) / float64(n)
	}
	return GraphInfo{
		Name:     e.Name,
		Source:   e.Source,
		Vertices: n,
		Edges:    e.G.NumEdges(),
		AvgDeg:   avg,
		Loaded:   e.Loaded,
	}
}

// Registry holds the graphs the service can cluster, keyed by name, and
// everything derived from them: one mutex guards the name map and every
// generation's slots, while loads, index builds, promotions and waits run
// outside it. Loads are single-flight: concurrent requests for the same
// name share one load, and a load in progress never blocks lookups of other
// graphs.
type Registry struct {
	mu    sync.Mutex
	names map[string]*nameState

	met     *Metrics
	threads int        // workers for index construction (0 = GOMAXPROCS)
	admit   *admission // nil → builds are never shed
	budget  int64      // max resident index bytes (0 → unlimited)
}

// nameState is what the registry keeps under one name: the current
// generation (nil once evicted), the load in flight, and the last good index
// per slot. The last good indexes outlive eviction on purpose: an
// evict-and-reload cycle is the common way to refresh a graph, and they let
// reads degrade to stale-marked answers while the new generation's index
// builds (or fails to).
type nameState struct {
	cur   *GraphEntry
	load  *registryLoad
	stale [2]*staleIndex
}

type registryLoad struct {
	done  chan struct{}
	entry *GraphEntry
	err   error
}

func newRegistry(met *Metrics, threads int, admit *admission, budget int64) *Registry {
	return &Registry{names: make(map[string]*nameState), met: met, threads: threads, admit: admit, budget: budget}
}

// forgetLocked drops the name once it holds nothing, so names that clients
// load and evict (or fail to load) do not accumulate. r.mu must be held.
func (r *Registry) forgetLocked(name string, ns *nameState) {
	if ns.cur == nil && ns.load == nil && ns.stale == [2]*staleIndex{} {
		delete(r.names, name)
	}
}

// DefaultName returns the registry key a source is filed under when the
// caller does not pick one: the dataset name, or the file base name.
func (s GraphSource) DefaultName() string {
	if s.Dataset != "" {
		return s.Dataset
	}
	return filepath.Base(s.Path)
}

func (s GraphSource) validate() error {
	switch {
	case s.Path == "" && s.Dataset == "":
		return fmt.Errorf("graph source needs a path or a dataset name")
	case s.Path != "" && s.Dataset != "":
		return fmt.Errorf("graph source must not set both path and dataset")
	}
	switch s.Format {
	case "", FormatCSR, FormatCompressed:
	default:
		return fmt.Errorf("unknown graph format %q (want %q or %q)", s.Format, FormatCSR, FormatCompressed)
	}
	return nil
}

// load builds the graph described by the source. Format selects the backend:
// "" or "csr" loads flat (except .csrz files, which stay mmap-backed
// compressed — decompressing would defeat the format), "compressed" serves a
// compressed in-memory graph (encoding it after a flat load when the source
// is not already a .csrz container).
func (s GraphSource) load() (graph.Graph, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	if s.Dataset != "" {
		scale := s.Scale
		if scale <= 0 {
			scale = 1
		}
		g, err := datasets.Load(s.Dataset, scale)
		if err != nil || s.Format != FormatCompressed {
			return g, err
		}
		return graph.Compress(g), nil
	}
	g, _, err := graph.LoadAny(s.Path)
	if err != nil {
		return nil, err
	}
	if s.Format == FormatCompressed {
		if flat, ok := g.(*graph.CSR); ok {
			return graph.Compress(flat), nil
		}
	}
	return g, nil
}

// Load loads (or returns the already-loaded) graph under name. A second Load
// of the same name with a different source fails; evict first.
func (r *Registry) Load(name string, src GraphSource) (*GraphEntry, error) {
	if name == "" {
		name = src.DefaultName()
	}
	if err := src.validate(); err != nil {
		return nil, err
	}

	r.mu.Lock()
	ns := r.names[name]
	if ns == nil {
		ns = &nameState{}
		r.names[name] = ns
	}
	if e := ns.cur; e != nil {
		r.mu.Unlock()
		if e.Source != src {
			return nil, fmt.Errorf("graph %q %w", name, errOtherSource)
		}
		return e, nil
	}
	if l := ns.load; l != nil {
		r.mu.Unlock()
		<-l.done
		if l.err != nil {
			return nil, l.err
		}
		if l.entry.Source != src {
			return nil, fmt.Errorf("graph %q %w", name, errOtherSource)
		}
		return l.entry, nil
	}
	l := &registryLoad{done: make(chan struct{})}
	ns.load = l
	r.mu.Unlock()

	g, err := src.load()
	r.mu.Lock()
	ns.load = nil
	if err != nil {
		l.err = fmt.Errorf("loading graph %q: %w", name, err)
		r.forgetLocked(name, ns)
	} else {
		l.entry = &GraphEntry{Name: name, Source: src, G: g, Loaded: time.Now()}
		ns.cur = l.entry
	}
	r.mu.Unlock()
	close(l.done)
	return l.entry, l.err
}

// Get returns the current generation of the graph under name.
func (r *Registry) Get(name string) (*GraphEntry, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if ns := r.names[name]; ns != nil && ns.cur != nil {
		return ns.cur, nil
	}
	return nil, fmt.Errorf("graph %q %w", name, errNotLoaded)
}

// Evict is the one eviction path. In one critical section it removes the
// name's current generation and keeps its last good indexes; then it cancels
// the generation's in-flight index builds, whose waiters see a
// cancellation, retryable once the graph is reloaded. Requests and jobs that
// already hold the generation keep computing on it (the graph is
// immutable), but nothing they derive from it is published under the name.
func (r *Registry) Evict(name string) error {
	r.mu.Lock()
	ns := r.names[name]
	if ns == nil || ns.cur == nil {
		r.mu.Unlock()
		return fmt.Errorf("graph %q %w", name, errNotLoaded)
	}
	slots := ns.cur.slots
	ns.cur = nil
	r.forgetLocked(name, ns)
	r.mu.Unlock()
	for _, e := range slots {
		if e != nil {
			e.cancelBuild() // a no-op for a finished build
		}
	}
	return nil
}

// current calls f on every current generation. r.mu must be held.
func (r *Registry) current(f func(*GraphEntry)) {
	for _, ns := range r.names {
		if ns.cur != nil {
			f(ns.cur)
		}
	}
}

// List returns every loaded graph, sorted by name.
func (r *Registry) List() []GraphInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := []GraphInfo{}
	r.current(func(e *GraphEntry) { out = append(out, e.Info()) })
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Len returns the number of loaded graphs.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	r.current(func(*GraphEntry) { n++ })
	return n
}

// BytesUsage sums graph storage across the registry: total logical bytes and
// the heap/page-cache-resident portion (mmap-backed sections of compressed
// graphs count toward total but not resident). Exported at /metrics as the
// anyscand_graph_bytes and anyscand_graph_resident_bytes gauges.
func (r *Registry) BytesUsage() (total, resident int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.current(func(e *GraphEntry) {
		if s, ok := e.G.(graph.Sizer); ok {
			total += s.Bytes()
			resident += s.ResidentBytes()
		}
	})
	return total, resident
}
