package index

import (
	"context"
	"fmt"
	"math"
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
//     exactly (the merge join is cheaper than comparing k minima), band 0;
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

	eng *simeval.Engine // exact fallback evaluator (σ pass engine, no pruning)

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
	eng := simeval.New(g, 0, simeval.Options{})
	// σ̂ and its band are written in CSR arc order, mirrored, and then
	// permuted into σ order in place by the neighbor sort, as in BuildCtx.
	sig := make([]float64, g.NumArcs())
	band := make([]float32, g.NumArcs())
	type tally struct{ exact, sketched int64 }
	totals, err := par.ReduceCtx(ctx, g.NumVertices(), threads, par.Adaptive, func(w, i int, acc tally) tally {
		we := eng.ForWorker(w)
		v := int32(i)
		lo, _ := g.NeighborRange(v)
		dv := g.Degree(v)
		g.EachNeighbor(v, func(j int, q int32, wt float32) bool {
			if v >= q {
				return true
			}
			dq := g.Degree(q)
			if int(dv)+int(dq) <= k {
				// Tier 2: the exact merge join touches fewer entries than the
				// k-minima comparison — estimating would be slower *and* less
				// accurate. Band 0: the value is exact.
				acc.exact++
				num, denom := we.EdgeNumerator(v, q, wt)
				sig[lo+int64(j)] = simeval.Crossing(num, denom)
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
		return acc
	}, func(a, b tally) tally { return tally{a.exact + b.exact, a.sketched + b.sketched} })
	if err != nil {
		return nil, err
	}
	graph.PropagateMirrors(g, sig)
	graph.PropagateMirrors(g, band)

	x := &Index{
		g:        g,
		nbrSig:   sig,
		simEvals: totals.exact,
		threads:  threads,
		orders:   map[int]*CoreOrder{},
		approx: &approxState{
			delta: delta, k: k, seed: seed,
			nbrBand: band, eng: eng,
			buildExactArcs: totals.exact,
			sketchedArcs:   totals.sketched,
		},
	}
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
		lo, hi := g.NeighborRange(v)
		m := float64(0)
		for e := lo; e < hi; e++ {
			if b := float64(a.nbrBand[e]); b > m {
				m = b
			}
		}
		a.maxBand[v] = m
	}
	a.resolved = make([]uint64, g.NumArcs())
	for i := range a.resolved {
		a.resolved[i] = approxUnresolved
	}
	if a.eng == nil {
		a.eng = simeval.New(g, 0, simeval.Options{})
	}
	a.ordersU = map[int]*CoreOrder{}
}

// numeratorEval is the exact-evaluation surface resolveExact needs; both the
// concurrency-safe Engine and a per-worker WorkerEngine satisfy it.
type numeratorEval interface {
	EdgeNumerator(p, q int32, wpq float32) (num, denom float64)
}

// resolveExact returns the exact activation threshold of sorted slot e of
// vertex p, memoizing it in the lock-free resolution cache. Racing resolvers
// compute the identical deterministic value; the CAS only keeps the
// resolution count honest.
func (x *Index) resolveExact(ev numeratorEval, p int32, e int64) float64 {
	a := x.approx
	if v := atomic.LoadUint64(&a.resolved[e]); v != approxUnresolved {
		return math.Float64frombits(v)
	}
	// Approximate mode implies unit weights (tier 1), so the adjacent pair's
	// edge weight is 1 without a lookup.
	num, denom := ev.EdgeNumerator(p, x.nbr[e], 1)
	s := simeval.Crossing(num, denom)
	if atomic.CompareAndSwapUint64(&a.resolved[e], approxUnresolved, math.Float64bits(s)) {
		a.resolvedCnt.Add(1)
	}
	return s
}

// effSig returns the effective similarity of sorted slot e of vertex p for a
// query at threshold eps: the estimate when ε is outside the slot's error
// band (the decision σ̂ ≥ ε is then reliable), the memoized exact value when
// ε lands inside it.
func (x *Index) effSig(ev numeratorEval, p int32, e int64, eps float64) float64 {
	s := x.nbrSig[e]
	b := float64(x.approx.nbrBand[e])
	if b == 0 || s-b >= eps || s+b < eps {
		return s
	}
	return x.resolveExact(ev, p, e)
}

// isCoreApprox decides whether v is a core at (μ, ε) under the band-aware
// predicate: at least μ−1 neighbors with effective similarity ≥ ε (plus v
// itself). The σ̂-sorted order still bounds the scan — any arc with
// σ̂ < ε − maxBand[v] is dissimilar even at the top of its band.
func (x *Index) isCoreApprox(ev numeratorEval, v int32, mu int, eps float64) bool {
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
	cnt := 0
	for e := lo; e < hi; e++ {
		if x.nbrSig[e] < slack {
			break
		}
		if int64(need-cnt) > hi-e {
			return false // not enough arcs left to reach μ−1
		}
		if x.effSig(ev, v, e, eps) >= eps {
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
	each(len(cands), x.threads, func(w, i int) {
		r.isCore[cands[i]] = x.isCoreApprox(a.eng.ForWorker(w), cands[i], mu, eps)
	})
	cores := make([]int32, 0, len(cands))
	for _, v := range cands {
		if r.isCore[v] {
			cores = append(cores, v)
		}
	}
	each(len(cores), x.threads, func(w, i int) {
		ev := a.eng.ForWorker(w)
		u := cores[i]
		lo, hi := x.g.NeighborRange(u)
		slack := eps - a.maxBand[u]
		hint := r.ds.Find(u)
		for e := lo; e < hi; e++ {
			if x.nbrSig[e] < slack {
				break
			}
			if q := x.nbr[e]; x.effSig(ev, u, e, eps) >= eps && !r.joined(hint, q) {
				hint = r.link(u, hint, q)
			}
		}
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
// (via the concurrency-safe Engine), so a vertex's effective order agrees
// with every global query at the same ε.
func (av *approxView) order(v int32) effOrder {
	av.mu.Lock()
	if o, ok := av.ords[v]; ok {
		av.mu.Unlock()
		return o
	}
	av.mu.Unlock()

	x := av.x
	lo, hi := x.g.NeighborRange(v)
	deg := int(hi - lo)
	o := effOrder{ids: make([]int32, deg), sigs: make([]float64, deg)}
	for j := 0; j < deg; j++ {
		e := lo + int64(j)
		o.ids[j] = x.nbr[e]
		o.sigs[j] = x.effSig(x.approx.eng, v, e, av.eps)
	}
	SortOrder(o.ids, o.sigs)

	av.mu.Lock()
	av.ords[v] = o
	av.mu.Unlock()
	return o
}
