package index

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"anyscan/internal/cluster"
	"anyscan/internal/graph"
	"anyscan/internal/local"
	"anyscan/internal/par"
	"anyscan/internal/simeval"
)

// Approximate index mode: instead of one exact σ evaluation per edge, Build
// sketches every vertex's closed neighborhood with k-permutation MinHash
// (simeval.Sketches) and estimates σ from sketch resemblance, with a
// per-arc Hoeffding error band chosen so the estimate is outside the band
// with probability at most δ. Arcs whose estimate lands within the band of a
// query's ε threshold are resolved *exactly* at query time (memoized), so a
// wrong similarity decision requires the ≤δ tail event — misclassification
// is confined to provably-near-threshold edges.
//
// Three exactness tiers keep the mode safe and cheap:
//
//  1. non-unit edge weights: MinHash estimates set resemblance only, so the
//     whole build falls back to the exact pass (recorded, band-free);
//  2. build-time: arcs whose endpoint degrees sum to ≤ k are evaluated
//     exactly (the exact gather is cheaper than comparing k minima), band 0;
//  3. query-time: arcs with |σ̂ − ε| ≤ band get one exact evaluation,
//     cached in a lock-free slot array shared by all queries.
//
// δ=0 disables the machinery entirely: BuildApprox degenerates to Build and
// the persisted index bytes are identical to the exact path's.

// DefaultApproxDelta is the accuracy dial's default: with k=128 permutations
// the band half-width on Ĵ is √(ln(2/δ)/(2k)) ≈ 0.14. Chosen so the CI
// accuracy gate (ARI ≥ 0.99 against the exact answer over the benchmark
// grid) holds with margin; δ=0.05 was measured to flip enough near-band
// arcs on the dense GR01L stand-in to dip one (μ, ε) cell to ARI 0.95.
const DefaultApproxDelta = 0.01

// defaultSketchSeed seeds the MinHash permutations; fixed so builds are
// deterministic and mirror slots of the persisted estimate agree bit-for-bit
// across processes.
const defaultSketchSeed = 0xA17C5EED

// approxUnresolved is the sentinel bit pattern of an unresolved query-time
// slot. Crossing values are in [0,1], whose float64 bits are never all-ones
// (that pattern is a NaN), so the sentinel cannot collide with a real value.
const approxUnresolved = ^uint64(0)

// approxState carries everything the band-aware query paths need beyond the
// exact index fields.
type approxState struct {
	delta float64
	k     int
	seed  uint64

	// exactFallback marks a build that requested approximation but ran the
	// exact pass anyway (non-unit edge weights). nbrBand and friends are nil
	// and every query takes the exact path.
	exactFallback bool

	nbrBand []float32 // per arc, parallel to nbr/nbrSig: σ̂ confidence half-width
	maxBand []float64 // per vertex: max band over its arcs (walk slack)

	// resolved memoizes query-time exact evaluations, one slot per sorted
	// neighbor-order position, initialized to approxUnresolved. Mirror slots
	// of an arc resolve independently but deterministically to the same
	// value (the exact kernels are symmetric bit-for-bit).
	resolved    []uint64
	resolvedCnt atomic.Int64

	rows sync.Pool // idle bandRows, cleared (arcScan)

	buildExactArcs int64 // tier-2: undirected edges evaluated exactly at build
	sketchedArcs   int64 // undirected edges estimated from sketches

	ordersU map[int]*CoreOrder // μ → memoized conservative upper core order
}

// ApproxStats reports how an approximate index split its work between the
// sketch estimator and the exact fallback tiers.
type ApproxStats struct {
	Delta         float64 // the accuracy dial (0 = exact index)
	K             int     // MinHash permutations per vertex
	ExactFallback bool    // whole build ran exact (non-unit weights)
	BuildExact    int64   // edges evaluated exactly at build (cheap-arc tier)
	Sketched      int64   // edges estimated from sketches
	Resolved      int64   // arc slots resolved exactly at query time so far
}

// Approx reports the approximate-mode statistics (zero value for an exact
// index).
func (x *Index) Approx() ApproxStats {
	a := x.approx
	if a == nil {
		return ApproxStats{}
	}
	return ApproxStats{
		Delta:         a.delta,
		K:             a.k,
		ExactFallback: a.exactFallback,
		BuildExact:    a.buildExactArcs,
		Sketched:      a.sketchedArcs,
		Resolved:      a.resolvedCnt.Load(),
	}
}

// BuildApprox is Build with the accuracy dial: delta=0 is exactly Build;
// delta in (0,1) evaluates σ from MinHash sketches with a (δ, band)
// guarantee and exact fallback for near-threshold arcs.
func BuildApprox(g graph.Graph, threads int, delta float64) (*Index, error) {
	return BuildApproxCtx(context.Background(), g, threads, delta)
}

// BuildApproxCtx is BuildApprox with cooperative cancellation.
func BuildApproxCtx(ctx context.Context, g graph.Graph, threads int, delta float64) (*Index, error) {
	return buildApproxCtx(ctx, g, threads, delta, simeval.DefaultSketchK, defaultSketchSeed)
}

// buildApproxCtx is the k/seed-parameterized build used by tests to force
// wide or narrow bands.
func buildApproxCtx(ctx context.Context, g graph.Graph, threads int, delta float64, k int, seed uint64) (*Index, error) {
	if delta == 0 {
		return BuildCtx(ctx, g, threads)
	}
	if !(delta > 0 && delta < 1) {
		return nil, fmt.Errorf("index: approx delta must be in [0,1), got %v", delta)
	}
	if !graph.UnitWeights(g) {
		// Tier 1: weighted graphs have no sketchable set-resemblance form of
		// σ; run the exact build and record the fallback.
		x, err := BuildCtx(ctx, g, threads)
		if err != nil {
			return nil, err
		}
		x.approx = &approxState{delta: delta, k: k, seed: seed, exactFallback: true}
		return x, nil
	}

	start := time.Now()
	sk, err := simeval.BuildSketches(ctx, g, k, seed, threads)
	if err != nil {
		return nil, err
	}
	t := simeval.HoeffdingHalfWidth(k, delta)
	x := &Index{g: g, threads: threads, orders: map[int]*CoreOrder{},
		approx: &approxState{delta: delta, k: k, seed: seed}}
	// σ̂ and its band are written in CSR arc order, mirrored, and then
	// permuted into σ order in place by the neighbor sort, as in BuildCtx.
	sig := make([]float64, g.NumArcs())
	band := make([]float32, g.NumArcs())
	type tally struct{ exact, sketched int64 }
	totals, err := par.ReduceCtx(ctx, g.NumVertices(), threads, par.Adaptive, func(_, i int, acc tally) tally {
		v := int32(i)
		lo, _ := g.NeighborRange(v)
		dv := g.Degree(v)
		ex := arcScan{x: x, v: v}
		g.EachNeighbor(v, func(j int, q int32, _ float32) bool {
			if v >= q {
				return true
			}
			dq := g.Degree(q)
			if int(dv)+int(dq) <= k {
				// Tier 2: the exact gather touches fewer entries than the
				// k-minima comparison — estimating would be slower *and* less
				// accurate. Band 0: the value is exact.
				acc.exact++
				sig[lo+int64(j)] = ex.crossing(q)
				return true
			}
			acc.sketched++
			jhat := sk.EstimateJaccard(v, q)
			a, b := float64(dv)+1, float64(dq)+1
			s := simeval.SigmaFromJaccard(jhat, a, b)
			jLo, jHi := jhat-t, jhat+t
			if jLo < 0 {
				jLo = 0
			}
			if jHi > 1 {
				jHi = 1
			}
			// The σ(J) map is monotone, so the J interval's endpoints bound
			// the σ interval; keep the wider side as a symmetric half-width,
			// rounded up so the float32 narrowing stays conservative.
			hw := s - simeval.SigmaFromJaccard(jLo, a, b)
			if d := simeval.SigmaFromJaccard(jHi, a, b) - s; d > hw {
				hw = d
			}
			bw := float32(hw)
			if float64(bw) < hw {
				bw = math.Nextafter32(bw, float32(math.Inf(1)))
			}
			sig[lo+int64(j)] = s
			band[lo+int64(j)] = bw
			return true
		})
		ex.done()
		return acc
	}, func(a, b tally) tally { return tally{a.exact + b.exact, a.sketched + b.sketched} })
	if err != nil {
		return nil, err
	}
	graph.PropagateMirrors(g, sig)
	graph.PropagateMirrors(g, band)

	x.nbrSig, x.simEvals = sig, totals.exact
	a := x.approx
	a.nbrBand, a.buildExactArcs, a.sketchedArcs = band, totals.exact, totals.sketched
	if err := x.sortNeighborsCtx(ctx, threads); err != nil {
		return nil, err
	}
	x.finishApprox()
	x.buildTau = time.Since(start)
	return x, nil
}

// finishApprox derives the per-vertex walk slack and the query-time
// resolution cache from the band array. Called after sortNeighborsCtx on both
// the build and the restore path.
func (x *Index) finishApprox() {
	a := x.approx
	g := x.g
	n := g.NumVertices()
	a.maxBand = make([]float64, n)
	for v := int32(0); v < int32(n); v++ {
		if lo, hi := g.NeighborRange(v); hi > lo {
			a.maxBand[v] = float64(slices.Max(a.nbrBand[lo:hi]))
		}
	}
	a.resolved = make([]uint64, g.NumArcs())
	for i := range a.resolved {
		a.resolved[i] = approxUnresolved
	}
	a.ordersU = map[int]*CoreOrder{}
}

// arcScan evaluates exact σ for arcs of vertex v, each one Row.Crossing
// over the far end's adjacency (the exact σ pass's kernel). The first takes
// a bandRow from the pool and loads v; done returns it cleared.
type arcScan struct {
	x  *Index
	v  int32
	br *bandRow
}

// bandRow is a row and its cursors: rc decodes the row's vertex and qc the
// far ends, so qc never overwrites the ids the row keeps to clear itself.
type bandRow struct {
	row    simeval.Row
	rc, qc *graph.Cursor
}

// crossing returns the exact threshold of the arc v→q. Its weight is 1:
// approximate mode implies unit weights (tier 1).
func (s *arcScan) crossing(q int32) float64 {
	g := s.x.g
	if s.br == nil {
		if s.br, _ = s.x.approx.rows.Get().(*bandRow); s.br == nil {
			s.br = &bandRow{row: simeval.NewRow(g.NumVertices()), rc: graph.NewCursor(g), qc: graph.NewCursor(g)}
		}
		ids, w := s.br.rc.Neighbors(s.v)
		s.br.row.Load(s.v, ids, w)
	}
	adj, w := s.br.qc.Neighbors(q)
	return s.br.row.Crossing(1, adj, w, g.SqrtNorm(s.v)*g.SqrtNorm(q))
}

func (s *arcScan) done() {
	if s.br != nil {
		s.br.row.Reset()
		s.x.approx.rows.Put(s.br)
	}
}

// effSig returns the effective similarity of s's vertex's sorted slot e at
// eps: the estimate when ε is outside its error band (σ̂ ≥ ε then decides
// reliably), else the exact value, resolved through s once and memoized.
// Racing resolvers compute the same value; the CAS keeps the count honest.
func (x *Index) effSig(s *arcScan, e int64, eps float64) float64 {
	a := x.approx
	if est, b := x.nbrSig[e], float64(a.nbrBand[e]); b == 0 || est-b >= eps || est+b < eps {
		return est
	}
	if r := atomic.LoadUint64(&a.resolved[e]); r != approxUnresolved {
		return math.Float64frombits(r)
	}
	t := s.crossing(x.nbr[e])
	if atomic.CompareAndSwapUint64(&a.resolved[e], approxUnresolved, math.Float64bits(t)) {
		a.resolvedCnt.Add(1)
	}
	return t
}

// isCoreApprox decides whether v is a core at (μ, ε) under the band-aware
// predicate: at least μ−1 neighbors with effective similarity ≥ ε (plus v
// itself). The σ̂-sorted order still bounds the scan — any arc with
// σ̂ < ε − maxBand[v] is dissimilar even at the top of its band.
func (x *Index) isCoreApprox(v int32, mu int, eps float64) bool {
	if mu <= 1 {
		return true
	}
	lo, hi := x.g.NeighborRange(v)
	need := mu - 1
	if int(hi-lo) < need {
		return false
	}
	slack := eps - x.approx.maxBand[v]
	if x.nbrSig[lo+int64(need-1)]-x.approx.maxBand[v] >= eps {
		return true // even the bands' low edges clear ε: certainly a core
	}
	s := arcScan{x: x, v: v}
	defer s.done()
	cnt := 0
	for e := lo; e < hi; e++ {
		if x.nbrSig[e] < slack {
			break
		}
		if int64(need-cnt) > hi-e {
			return false // not enough arcs left to reach μ−1
		}
		if x.effSig(&s, e, eps) >= eps {
			cnt++
			if cnt >= need {
				return true
			}
		}
	}
	return false
}

// upperCoreOrderFor returns the memoized *conservative* core order for μ:
// vertices sorted by CoreThreshold(v, μ) + maxBand[v] descending. The
// (μ−1)-th largest effective similarity never exceeds the (μ−1)-th largest
// estimate plus the vertex's largest band, so the prefix with upper
// threshold ≥ ε is a superset of the true cores — each candidate is then
// verified with isCoreApprox.
func (x *Index) upperCoreOrderFor(mu int) *CoreOrder {
	x.mu.Lock()
	defer x.mu.Unlock()
	co, ok := x.approx.ordersU[mu]
	if !ok {
		co = newCoreOrder(x.NumVertices(), func(v int32) float64 {
			if lo, hi := x.g.NeighborRange(v); mu > 1 && int(hi-lo) < mu-1 {
				return 0 // too few arcs: no band can make v a core
			}
			// An all-zero estimate row can still hide a core inside its
			// bands, so the candidate filter keys on the *upper* threshold,
			// never the bare estimate.
			return x.CoreThreshold(v, mu) + x.approx.maxBand[v]
		})
		x.approx.ordersU[mu] = co
	}
	return co
}

// queryApprox answers (μ, ε) from the approximate index: candidate cores
// from the conservative upper core order, band-aware verification, then a
// union/claim walk that tests each arc's effective similarity (the σ̂ order
// only bounds the scan), finished by the same labeling and noise split as
// Replay. The result is deterministic (and thread-count independent): every
// uncertain arc resolves to the same exact value regardless of which query
// or worker resolves it first.
func (x *Index) queryApprox(mu int, eps float64) (*cluster.Result, error) {
	a := x.approx
	cands := x.upperCoreOrderFor(mu).Prefix(eps)
	r := newReplay(x.NumVertices())
	each(len(cands), x.threads, func(_, i int) {
		r.isCore[cands[i]] = x.isCoreApprox(cands[i], mu, eps)
	})
	cores := make([]int32, 0, len(cands))
	for _, v := range cands {
		if r.isCore[v] {
			cores = append(cores, v)
		}
	}
	each(len(cores), x.threads, func(_, i int) {
		u := cores[i]
		lo, hi := x.g.NeighborRange(u)
		slack := eps - a.maxBand[u]
		hint := r.ds.Find(u)
		s := arcScan{x: x, v: u}
		for e := lo; e < hi; e++ {
			if x.nbrSig[e] < slack {
				break
			}
			if q := x.nbr[e]; x.effSig(&s, e, eps) >= eps && !r.joined(hint, q) {
				hint = r.link(u, hint, q)
			}
		}
		s.done()
	})
	// The noise split reads the index's own neighbor ids: going through an
	// approxView would resolve arcs the answer never needed.
	return r.result(x, cores), nil
}

// LocalView returns the local.View a seed-centered query at threshold eps
// should run against: the index itself when it is exact, or a band-aware
// adapter that serves *effective* neighbor orders (estimates outside the
// band, memoized exact values inside it) re-sorted per vertex. Effective
// similarities are symmetric, so local membership through the adapter is
// byte-identical to the seed's community under queryApprox — the same
// local/global equivalence the exact index enjoys.
//
// The returned view is safe for concurrent use; per-vertex effective orders
// are memoized for the view's lifetime, so callers should create one view
// per (ε, query burst) rather than one per vertex touched.
func (x *Index) LocalView(eps float64) local.View {
	if x.approx == nil || x.approx.exactFallback {
		return x
	}
	return &approxView{x: x, eps: eps, ords: map[int32]effOrder{}}
}

// effOrder is one vertex's neighbor order under effective similarities.
type effOrder struct {
	ids  []int32
	sigs []float64
}

// approxView adapts an approximate index to the local.View surface at one
// fixed ε.
type approxView struct {
	x   *Index
	eps float64

	mu   sync.Mutex
	ords map[int32]effOrder
}

func (av *approxView) NumVertices() int { return av.x.NumVertices() }

func (av *approxView) NeighborOrder(v int32) ([]int32, []float64) {
	o := av.order(v)
	return o.ids, o.sigs
}

func (av *approxView) CoreThreshold(v int32, mu int) float64 {
	return CoreThresholdOf(av.order(v).sigs, mu)
}

// order returns v's effective neighbor order, computing and memoizing it on
// first use. Uncertain arcs resolve through the index's shared exact cache
// (arcScan), so a vertex's effective order agrees with every global query at
// the same ε.
func (av *approxView) order(v int32) effOrder {
	av.mu.Lock()
	if o, ok := av.ords[v]; ok {
		av.mu.Unlock()
		return o
	}
	av.mu.Unlock()

	x := av.x
	lo, hi := x.g.NeighborRange(v)
	o := effOrder{ids: slices.Clone(x.nbr[lo:hi]), sigs: make([]float64, hi-lo)}
	s := arcScan{x: x, v: v}
	for j := range o.sigs {
		o.sigs[j] = x.effSig(&s, lo+int64(j), av.eps)
	}
	s.done()
	SortOrder(o.ids, o.sigs)

	av.mu.Lock()
	av.ords[v] = o
	av.mu.Unlock()
	return o
}
