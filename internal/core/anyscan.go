package core

import (
	"context"
	"math/rand"
	"sort"
	"sync/atomic"
	"time"

	"anyscan/internal/cluster"
	"anyscan/internal/graph"
	"anyscan/internal/simeval"
	"anyscan/internal/unionfind"
)

// Clusterer is an anySCAN run over one graph. Create it with New, then
// either call Run for batch execution or drive it iteratively with Step and
// inspect intermediate clusterings with Snapshot — the anytime interface.
//
// A Clusterer is not safe for concurrent method calls; its *internals*
// parallelize each block across Options.Threads workers.
type Clusterer struct {
	g   *graph.CSR
	opt Options
	eng *simeval.Engine

	state []int32 // vertexState, atomic access
	nei   []int32 // discovered ε-neighbors incl. self, atomic access

	snOf     [][]int32             // super-node ids containing each vertex (SN_q)
	snRep    []int32               // representative vertex per super-node
	ds       *unionfind.Concurrent // lock-free label forest over super-node ids
	borderOf []int32               // Step 4: claiming super-node per former noise vertex (-1 otherwise)

	noise    []int32   // noise list L (vertices examined as non-core in Step 1)
	epsCache [][]int32 // cached N^ε for entries of L

	// Optional per-edge similarity memo (Options.EdgeMemo): 0 unknown,
	// 1 similar, 2 dissimilar, atomic access. rev maps each arc to its
	// reverse so one evaluation serves both endpoints.
	memo []int32
	rev  []int64

	order  []int32 // shuffled Step-1 selection order
	cursor int

	phase   Phase
	workS   []int32 // Step-2 worklist (sorted)
	workT   []int32 // Step-3 worklist (sorted)
	workPos int

	// Per-block scratch, reused across iterations to avoid GC churn.
	blockVerts []int32
	blockEps   [][]int32
	blockCore  []bool
	blockSkip  []bool
	promoted   [][]int32 // per-worker promotion buffers (Step 1)

	unionsSeq    int64        // unions performed in Step 1 (sequential part)
	unionsStep23 atomic.Int64 // unions performed in Steps 2-3 (lock-free, inside the parallel loops)

	// workerArcs[w] counts adjacency arcs processed by worker w in the
	// parallel phases — a hardware-independent load-balance measure (the
	// paper attributes its GR02/GR03 scalability loss to skewed degrees).
	workerArcs []int64

	iterations int
	elapsed    time.Duration
	phaseTime  [PhaseDone + 1]time.Duration
}

// Metrics reports the cumulative work of a run in the units the paper plots.
type Metrics struct {
	Sim          simeval.CounterValues
	UnionsSeq    int64 // Step-1 unions (sequential sub-phase)
	UnionsStep23 int64 // Step-2/3 unions (performed lock-free inside the parallel loops)
	SuperNodes   int
	Iterations   int
	Elapsed      time.Duration
	// WorkerArcs is the number of adjacency arcs each worker processed in
	// the parallel phases; its spread measures load balance independently
	// of the host's physical core count.
	WorkerArcs []int64
}

// LoadImbalance returns max(WorkerArcs)/mean(WorkerArcs), the paper's
// load-balancing concern quantified (1.0 = perfectly balanced).
func (m Metrics) LoadImbalance() float64 {
	if len(m.WorkerArcs) == 0 {
		return 1
	}
	var sum, max int64
	for _, a := range m.WorkerArcs {
		sum += a
		if a > max {
			max = a
		}
	}
	if sum == 0 {
		return 1
	}
	mean := float64(sum) / float64(len(m.WorkerArcs))
	return float64(max) / mean
}

// Unions returns the total number of merging Union operations (Fig. 12).
func (m Metrics) Unions() int64 { return m.UnionsSeq + m.UnionsStep23 }

// Progress describes where an anytime run currently stands. It is the
// read-only status surface consumed by the interactive CLI and the anyscand
// job-status endpoint; Metrics carries the full work counters.
type Progress struct {
	Phase      Phase
	Iterations int           // blocks completed so far, across all phases
	Elapsed    time.Duration // cumulative time inside Step calls
	SuperNodes int
	Vertices   int   // total vertices in the graph
	Touched    int   // vertices no longer untouched (Step 1 coverage proxy)
	Sims       int64 // structural similarity evaluations performed so far
	Done       bool  // the run has completed (Phase == PhaseDone)
}

// New prepares an anySCAN run of g with the given options. The graph is not
// modified and may be shared between concurrent Clusterers.
func New(g *graph.CSR, opt Options) (*Clusterer, error) {
	if err := (&opt).validate(); err != nil {
		return nil, err
	}
	n := g.NumVertices()
	c := &Clusterer{
		g:        g,
		opt:      opt,
		eng:      simeval.New(g, opt.Eps, opt.Sim),
		state:    make([]int32, n),
		nei:      make([]int32, n),
		snOf:     make([][]int32, n),
		ds:       unionfind.NewConcurrent(0),
		borderOf: make([]int32, n),
		epsCache: make([][]int32, n),
		order:    make([]int32, n),
		phase:    PhaseSummarize,
	}
	for v := 0; v < n; v++ {
		c.nei[v] = 1 // closed neighborhood: σ(v,v)=1 always counts
		c.borderOf[v] = -1
		c.order[v] = int32(v)
		// |Γ(v)| < μ ⇒ v can never be a core (Fig. 3: untouched →
		// unprocessed-noise without any similarity work).
		if g.Degree(int32(v))+1 < opt.Mu {
			c.state[v] = stateUnprocNoise
		}
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	rng.Shuffle(n, func(i, j int) { c.order[i], c.order[j] = c.order[j], c.order[i] })

	if opt.EdgeMemo {
		c.memo = make([]int32, g.NumArcs())
		c.rev = g.ReverseEdgeIndex()
	}

	workers := opt.Threads
	c.promoted = make([][]int32, workers)
	c.workerArcs = make([]int64, workers)
	return c, nil
}

// Graph returns the graph being clustered.
func (c *Clusterer) Graph() *graph.CSR { return c.g }

// Options returns the effective options of the run.
func (c *Clusterer) Options() Options { return c.opt }

// Phase returns the current algorithm phase.
func (c *Clusterer) Phase() Phase { return c.phase }

// Done reports whether the run has completed.
func (c *Clusterer) Done() bool { return c.phase == PhaseDone }

// Progress returns a snapshot of the run's position.
func (c *Clusterer) Progress() Progress {
	touched := 0
	for v := range c.state {
		if c.loadState(int32(v)) != stateUntouched {
			touched++
		}
	}
	return Progress{
		Phase:      c.phase,
		Iterations: c.iterations,
		Elapsed:    c.elapsed,
		SuperNodes: len(c.snRep),
		Vertices:   len(c.state),
		Touched:    touched,
		Sims:       c.Sims(),
		Done:       c.phase == PhaseDone,
	}
}

// Sims returns the number of σ evaluations performed so far. Unlike the
// other methods it may run concurrently with Step: it reads only the
// engine's atomic counters, so it returns at once with a count that may lag
// the running block.
func (c *Clusterer) Sims() int64 { return c.eng.C.Snapshot().Sims }

// Metrics returns the cumulative work counters.
func (c *Clusterer) Metrics() Metrics {
	return Metrics{
		Sim:          c.eng.C.Snapshot(),
		UnionsSeq:    c.unionsSeq,
		UnionsStep23: c.unionsStep23.Load(),
		SuperNodes:   len(c.snRep),
		Iterations:   c.iterations,
		Elapsed:      c.elapsed,
		WorkerArcs:   append([]int64(nil), c.workerArcs...),
	}
}

// Step executes one anytime iteration — one block of α vertices in Step 1,
// one block of β vertices in Steps 2/3, or the whole of Step 4 — and returns
// false once the algorithm has finished. Between Step calls the Clusterer is
// quiescent: Snapshot may be called, and the caller may simply stop calling
// Step to "suspend" the run.
func (c *Clusterer) Step() bool {
	more, _ := c.StepCtx(nil)
	return more
}

// StepCtx is Step with cooperative cancellation that reaches *inside* the
// block: the expensive parallel sub-phases poll ctx between work chunks, so
// even a single enormous block can be interrupted promptly. When ctx fires
// mid-block the interrupted sub-phase is either rolled back (Step 1's range
// queries, whose partial per-vertex marks are reverted) or left in a state
// the re-run reproduces idempotently (Steps 2–4), the block is put back on
// its worklist, and ctx.Err() is returned. The Clusterer is always
// consistent afterwards: Snapshot, SaveCheckpoint and further Step/StepCtx
// calls all remain valid, so an interrupted run loses at most one block of
// work. A nil ctx disables polling and is equivalent to Step.
//
// The returned bool mirrors Step (false once the run has finished); an
// interrupted call reports the iteration as not completed, leaving
// Metrics().Iterations unchanged.
func (c *Clusterer) StepCtx(ctx context.Context) (bool, error) {
	if c.phase == PhaseDone {
		return false, nil
	}
	start := time.Now()
	phase := c.phase
	var err error
	switch phase {
	case PhaseSummarize:
		var more bool
		more, err = c.stepSummarize(ctx)
		if err == nil && !more {
			c.beginStrong()
		}
	case PhaseStrong:
		var more bool
		more, err = c.stepStrong(ctx)
		if err == nil && !more {
			c.beginWeak()
		}
	case PhaseWeak:
		var more bool
		more, err = c.stepWeak(ctx)
		if err == nil && !more {
			c.phase = PhaseBorders
		}
	case PhaseBorders:
		err = c.stepBorders(ctx)
		if err == nil && c.opt.ResolveRoles {
			err = c.resolveRoles(ctx)
		}
		if err == nil {
			c.phase = PhaseDone
		}
	}
	d := time.Since(start)
	c.elapsed += d
	c.phaseTime[phase] += d
	if err == nil {
		c.iterations++
	}
	return c.phase != PhaseDone, err
}

// Run drives StepCtx to completion. If ctx is canceled — even in the middle
// of a large block — the partial best-so-far clustering is returned along
// with ctx's error, and the Clusterer remains inspectable, checkpointable
// and resumable.
func (c *Clusterer) Run(ctx context.Context) (*cluster.Result, error) {
	for {
		more, err := c.StepCtx(ctx)
		if err != nil {
			return c.Snapshot(), err
		}
		if !more {
			return c.Snapshot(), nil
		}
	}
}

// PhaseDurations returns cumulative time spent per phase.
func (c *Clusterer) PhaseDurations() map[Phase]time.Duration {
	m := make(map[Phase]time.Duration, 4)
	for p := PhaseSummarize; p < PhaseDone; p++ {
		if c.phaseTime[p] > 0 {
			m[p] = c.phaseTime[p]
		}
	}
	return m
}

// Cluster runs anySCAN to completion in one call and returns the final
// clustering and its work metrics.
func Cluster(g *graph.CSR, opt Options) (*cluster.Result, Metrics, error) {
	c, err := New(g, opt)
	if err != nil {
		return nil, Metrics{}, err
	}
	for c.Step() {
	}
	return c.Snapshot(), c.Metrics(), nil
}

// beginStrong builds the Step-2 worklist S: unprocessed-border vertices in
// at least two super-nodes, sorted by descending super-node count so that
// vertices merging many super-nodes are examined first (Fig. 2 line 21).
func (c *Clusterer) beginStrong() {
	c.phase = PhaseStrong
	c.workS = c.workS[:0]
	for v := int32(0); v < int32(len(c.state)); v++ {
		if c.loadState(v) == stateUnprocBorder && len(c.snOf[v]) >= 2 {
			c.workS = append(c.workS, v)
		}
	}
	if !c.opt.Ablation.NoSorting {
		sort.Slice(c.workS, func(i, j int) bool {
			return len(c.snOf[c.workS[i]]) > len(c.snOf[c.workS[j]])
		})
	}
	c.workPos = 0
}

// beginWeak builds the Step-3 worklist T: unprocessed-border,
// unprocessed-core and processed-core vertices, sorted by descending degree
// (Fig. 2 line 36): high-degree vertices connect more super-nodes, so
// examining them early saves core checks on later vertices.
func (c *Clusterer) beginWeak() {
	c.phase = PhaseWeak
	c.workT = c.workT[:0]
	for v := int32(0); v < int32(len(c.state)); v++ {
		switch c.loadState(v) {
		case stateUnprocBorder, stateUnprocCore, stateProcCore:
			c.workT = append(c.workT, v)
		}
	}
	if !c.opt.Ablation.NoSorting {
		sort.Slice(c.workT, func(i, j int) bool {
			return c.g.Degree(c.workT[i]) > c.g.Degree(c.workT[j])
		})
	}
	c.workPos = 0
}

// coreCheck decides whether p is a core by evaluating similarities to its
// neighbors until μ similar ones (including self) are found or failure is
// certain. This early-terminating check is the workhorse of Steps 2-4
// ("we only need to explore its adjacency vertices until we know that p is
// a core", Section III-A). worker is the caller's parallel-for worker id
// (0 in sequential sub-phases); it selects the per-worker similarity engine
// with sharded counters and reusable kernel scratch.
func (c *Clusterer) coreCheck(worker int, p int32) bool {
	cnt := 1 // self
	adj, wts := c.g.Neighbors(p)
	lo, _ := c.g.NeighborRange(p)
	mu := c.opt.Mu
	for i, q := range adj {
		if cnt+len(adj)-i < mu {
			return false // even all-similar remainders cannot reach μ
		}
		if c.similarArc(worker, p, lo+int64(i), q, wts[i]) {
			cnt++
			if cnt >= mu {
				return true
			}
		}
	}
	return cnt >= mu
}

// similarArc reports whether σ(p, q) ≥ ε for the arc p→q with weight wt,
// consulting the shared per-edge memo when Options.EdgeMemo is enabled.
// Concurrent duplicate evaluations are benign: the outcome is deterministic
// and both racers store the same value with atomic writes.
func (c *Clusterer) similarArc(worker int, p int32, arc int64, q int32, wt float32) bool {
	we := c.eng.ForWorker(worker)
	if c.memo == nil {
		return we.SimilarEdge(p, q, wt)
	}
	if s := atomic.LoadInt32(&c.memo[arc]); s != 0 {
		c.eng.C.Shard(worker).Shared.Add(1)
		return s == 1
	}
	ok := we.SimilarEdge(p, q, wt)
	v := int32(2)
	if ok {
		v = 1
	}
	atomic.StoreInt32(&c.memo[arc], v)
	atomic.StoreInt32(&c.memo[c.rev[arc]], v)
	return ok
}

// clusterOf returns the current cluster root of v's first super-node, or -1
// when v belongs to none. Safe inside parallel phases even while other
// workers union concurrently: connectivity is monotone, so an observed
// "same root" stays true forever and a stale "different root" only costs a
// redundant (idempotent) examination.
func (c *Clusterer) clusterOf(v int32) int32 {
	if len(c.snOf[v]) == 0 {
		return -1
	}
	return c.ds.FindNoCompress(c.snOf[v][0])
}
