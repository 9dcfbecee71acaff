package live

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"anyscan/internal/cluster"
	"anyscan/internal/graph"
	"anyscan/internal/local"
	"anyscan/internal/par"
	"anyscan/internal/unionfind"
)

// seg is one vertex's slice of an epoch: its adjacency (ids ascending,
// weights parallel), the activation thresholds of its arcs in both id order
// (sig, parallel to nbr) and σ-sorted order (osig/onbr, σ descending with
// ties by id ascending), and its closed-neighborhood norm. Segments are
// immutable once their epoch publishes; epochs share the segments of
// untouched vertices, which is what makes publication copy-on-write.
type seg struct {
	nbr  []int32   // neighbor ids, ascending
	wt   []float32 // weights, parallel to nbr
	sig  []float64 // activation thresholds, parallel to nbr
	onbr []int32   // neighbor ids sorted by σ desc, id asc
	osig []float64 // thresholds, parallel to onbr

	norm     float64 // l_v = SelfWeight² + Σ w², accumulated in ascending id order
	sqrtNorm float64
}

// find returns the position of q in s.nbr, or (i, false) with i the
// insertion point.
func (s *seg) find(q int32) (int, bool) {
	i := sort.Search(len(s.nbr), func(i int) bool { return s.nbr[i] >= q })
	return i, i < len(s.nbr) && s.nbr[i] == q
}

// coreThreshold is the largest ε at which the segment's vertex is a core at
// μ: the (μ-1)-th largest σ among its arcs (σ(v,v)=1 supplies the μ-th
// similar member). Mirrors index.CoreThreshold exactly.
func (s *seg) coreThreshold(mu int) float64 {
	if mu <= 1 {
		return 1
	}
	need := mu - 1
	if len(s.osig) < need {
		return 0
	}
	return s.osig[need-1]
}

// sortOrder derives onbr/osig from nbr/sig with the exact comparator of
// index.sortNeighbors: σ descending, ties by neighbor id ascending.
func (s *seg) sortOrder() {
	deg := len(s.nbr)
	ord := make([]int32, deg)
	for j := range ord {
		ord[j] = int32(j)
	}
	sort.Slice(ord, func(a, b int) bool {
		sa, sb := s.sig[ord[a]], s.sig[ord[b]]
		if sa != sb {
			return sa > sb
		}
		return s.nbr[ord[a]] < s.nbr[ord[b]]
	})
	s.onbr = make([]int32, deg)
	s.osig = make([]float64, deg)
	for j, o := range ord {
		s.onbr[j] = s.nbr[o]
		s.osig[j] = s.sig[o]
	}
}

// repairOrder rebuilds s.onbr/s.osig from the parent segment's order when
// only the arcs towards changed vertices moved: entries outside changed keep
// their relative order (their σ did not move), the changed entries are
// re-sorted and merged back in. O(deg + k log k) for k changed arcs, against
// O(deg log deg) for a full sort. The (σ desc, id asc) comparator is a total
// order, so the merged array is the unique sorted order — identical to what
// sortOrder would produce.
func (s *seg) repairOrder(old *seg, changed map[int32]bool) {
	deg := len(s.nbr)
	keepN := make([]int32, 0, deg)
	keepS := make([]float64, 0, deg)
	var chN []int32
	for i, q := range old.onbr {
		if changed[q] {
			chN = append(chN, q)
			continue
		}
		keepN = append(keepN, q)
		keepS = append(keepS, old.osig[i])
	}
	chS := make([]float64, len(chN))
	for i, q := range chN {
		j, _ := s.find(q)
		chS[i] = s.sig[j]
	}
	sort.Sort(&orderPairs{ids: chN, sig: chS})
	s.onbr = make([]int32, 0, deg)
	s.osig = make([]float64, 0, deg)
	i, j := 0, 0
	for i < len(keepN) && j < len(chN) {
		if orderLess(keepS[i], keepN[i], chS[j], chN[j]) {
			s.onbr = append(s.onbr, keepN[i])
			s.osig = append(s.osig, keepS[i])
			i++
		} else {
			s.onbr = append(s.onbr, chN[j])
			s.osig = append(s.osig, chS[j])
			j++
		}
	}
	s.onbr = append(append(s.onbr, keepN[i:]...), chN[j:]...)
	s.osig = append(append(s.osig, keepS[i:]...), chS[j:]...)
}

// orderLess is the neighbor-order comparator: σ descending, id ascending.
func orderLess(sa float64, qa int32, sb float64, qb int32) bool {
	if sa != sb {
		return sa > sb
	}
	return qa < qb
}

type orderPairs struct {
	ids []int32
	sig []float64
}

func (p *orderPairs) Len() int { return len(p.ids) }
func (p *orderPairs) Less(a, b int) bool {
	return orderLess(p.sig[a], p.ids[a], p.sig[b], p.ids[b])
}
func (p *orderPairs) Swap(a, b int) {
	p.ids[a], p.ids[b] = p.ids[b], p.ids[a]
	p.sig[a], p.sig[b] = p.sig[b], p.sig[a]
}

// coreOrder is the per-μ core order: all vertices with a positive core
// threshold sorted by threshold descending (ties by id ascending). Immutable
// once derived; epochs share coreOrder values for every μ the mutation batch
// left untouched.
type coreOrder struct {
	verts []int32
	thr   []float64
}

// Epoch is one immutable published version of a live graph. Readers resolve
// an epoch once (Graph.Epoch or Graph.WaitEpoch) and then query it with no
// further coordination: a concurrently applied batch publishes a *new* epoch
// and never mutates this one, so results are stable for as long as the
// caller holds the pointer.
type Epoch struct {
	seq   int64
	segs  []*seg
	edges int64

	threads int

	mu     sync.Mutex
	orders map[int]*coreOrder // μ → memoized core order
}

// Seq returns the epoch's sequence number. Epoch 0 is the graph the live
// view was created from; each applied batch increments it by one.
func (e *Epoch) Seq() int64 { return e.seq }

// NumVertices returns the vertex count (fixed across epochs).
func (e *Epoch) NumVertices() int { return len(e.segs) }

// NumEdges returns the undirected edge count at this epoch.
func (e *Epoch) NumEdges() int64 { return e.edges }

// Degree returns the degree of v at this epoch.
func (e *Epoch) Degree(v int32) int { return len(e.segs[v].nbr) }

// EdgeWeight returns the weight of edge (u,v) at this epoch, or 0 if absent.
func (e *Epoch) EdgeWeight(u, v int32) float32 {
	if i, ok := e.segs[u].find(v); ok {
		return e.segs[u].wt[i]
	}
	return 0
}

// CoreThreshold returns the largest ε at which v is a core at μ (0 = never).
func (e *Epoch) CoreThreshold(v int32, mu int) float64 {
	return e.segs[v].coreThreshold(mu)
}

// NeighborOrder returns v's σ-sorted neighbor order at this epoch: neighbor
// ids sorted by σ descending (ties by id ascending) and the parallel
// activation thresholds. The slices alias the epoch's segment storage —
// callers must treat them as read-only (epochs are immutable, so the data
// never changes underneath them). Together with NumVertices and
// CoreThreshold this makes an Epoch a local.View for seed-centered queries.
func (e *Epoch) NeighborOrder(v int32) (ids []int32, sigs []float64) {
	s := e.segs[v]
	return s.onbr, s.osig
}

// LocalView returns the local.View a seed-centered query at eps runs
// against: the epoch itself, whose σ is exact at every ε. It mirrors
// index.Index.LocalView so callers need not care which one they hold.
func (e *Epoch) LocalView(eps float64) local.View { return e }

// coreOrderFor returns the memoized core order for μ, deriving it on first
// use exactly as index.coreOrderFor does.
func (e *Epoch) coreOrderFor(mu int) *coreOrder {
	e.mu.Lock()
	defer e.mu.Unlock()
	if co, ok := e.orders[mu]; ok {
		return co
	}
	co := &coreOrder{}
	for v := int32(0); v < int32(len(e.segs)); v++ {
		if t := e.segs[v].coreThreshold(mu); t > 0 {
			co.verts = append(co.verts, v)
			co.thr = append(co.thr, t)
		}
	}
	ord := make([]int32, len(co.verts))
	for i := range ord {
		ord[i] = int32(i)
	}
	sort.Slice(ord, func(a, b int) bool {
		if co.thr[ord[a]] != co.thr[ord[b]] {
			return co.thr[ord[a]] > co.thr[ord[b]]
		}
		return co.verts[ord[a]] < co.verts[ord[b]]
	})
	verts := make([]int32, len(ord))
	thr := make([]float64, len(ord))
	for i, o := range ord {
		verts[i] = co.verts[o]
		thr[i] = co.thr[o]
	}
	co.verts, co.thr = verts, thr
	e.orders[mu] = co
	return co
}

// ordersSnapshot returns a shallow copy of the memoized core-order map.
// The coreOrder values are immutable, so sharing them across epochs is safe.
func (e *Epoch) ordersSnapshot() map[int]*coreOrder {
	e.mu.Lock()
	defer e.mu.Unlock()
	m := make(map[int]*coreOrder, len(e.orders))
	for mu, co := range e.orders {
		m[mu] = co
	}
	return m
}

// parallelQueryMin mirrors index.parallelQueryMin: the core-prefix size above
// which Query fans out across workers.
const parallelQueryMin = 4096

// Query returns the exact SCAN clustering at (μ, ε) for this epoch without
// recomputing any similarity. It replays exactly the semantics of
// index.Query — core-order prefix, similar-neighbor prefixes, smallest-core
// border claims, hub/outlier split, canonicalization — so the result is
// byte-identical to index.Build + Query on the equivalent static CSR. Safe
// for any number of concurrent callers.
func (e *Epoch) Query(mu int, eps float64) (*cluster.Result, error) {
	if mu < 1 {
		return nil, fmt.Errorf("live: mu must be >= 1, got %d", mu)
	}
	if !(eps > 0 && eps <= 1) {
		return nil, fmt.Errorf("live: eps must be in (0,1], got %v", eps)
	}
	n := len(e.segs)
	co := e.coreOrderFor(mu)
	k := sort.Search(len(co.verts), func(i int) bool { return co.thr[i] < eps })
	cores := co.verts[:k]

	ds := unionfind.NewConcurrent(n)
	claim := make([]int32, n) // border v → smallest adjacent qualifying core
	for i := range claim {
		claim[i] = -1
	}
	if e.threads != 1 && len(cores) >= parallelQueryMin {
		par.For(len(cores), e.threads, par.Adaptive, func(i int) {
			u := cores[i]
			s := e.segs[u]
			for j, q := range s.onbr {
				if s.osig[j] < eps {
					break // sorted descending: the rest are dissimilar too
				}
				if e.segs[q].coreThreshold(mu) >= eps {
					if u < q { // each core-core edge once
						ds.Union(u, q)
					}
					continue
				}
				for {
					c := atomic.LoadInt32(&claim[q])
					if c != -1 && c <= u {
						break
					}
					if atomic.CompareAndSwapInt32(&claim[q], c, u) {
						break
					}
				}
			}
		})
	} else {
		for _, u := range cores {
			s := e.segs[u]
			for j, q := range s.onbr {
				if s.osig[j] < eps {
					break // sorted descending: the rest are dissimilar too
				}
				if e.segs[q].coreThreshold(mu) >= eps {
					if u < q { // each core-core edge once
						ds.Union(u, q)
					}
				} else if c := claim[q]; c == -1 || u < c {
					claim[q] = u
				}
			}
		}
	}

	res := cluster.NewResult(n)
	for _, u := range cores {
		res.Roles[u] = cluster.Core
		res.Labels[u] = ds.Find(u)
	}
	for v := int32(0); v < int32(n); v++ {
		if c := claim[v]; c >= 0 {
			res.Roles[v] = cluster.Border
			res.Labels[v] = ds.Find(c)
		}
	}
	e.classifyNoise(res)
	res.Canonicalize()
	return res, nil
}

// classifyNoise splits unclassified vertices into hubs (≥2 distinct adjacent
// cluster labels) and outliers, exactly as cluster.ClassifyNoise does on a
// CSR.
func (e *Epoch) classifyNoise(r *cluster.Result) {
	for v := int32(0); v < int32(len(e.segs)); v++ {
		if r.Roles[v] == cluster.Core || r.Roles[v] == cluster.Border {
			continue
		}
		first := cluster.NoLabel
		role := cluster.Outlier
		for _, q := range e.segs[v].nbr {
			l := r.Labels[q]
			if l == cluster.NoLabel {
				continue
			}
			if first == cluster.NoLabel {
				first = l
			} else if l != first {
				role = cluster.Hub
				break
			}
		}
		r.Roles[v] = role
	}
}

// ToCSR materializes the epoch's adjacency as a static CSR — the graph an
// offline rebuild would operate on. The equivalence contract of this package
// is that Query on the epoch is byte-identical to index.Build(ToCSR()) +
// Query.
func (e *Epoch) ToCSR() (*graph.CSR, error) {
	var b graph.Builder
	b.SetNumVertices(len(e.segs))
	for v := int32(0); v < int32(len(e.segs)); v++ {
		s := e.segs[v]
		for i, q := range s.nbr {
			if v < q { // each undirected edge once
				b.AddEdge(v, q, s.wt[i])
			}
		}
	}
	return b.Build()
}

// Bytes approximates the resident size of this epoch's own segment storage.
// Segments shared with other epochs are counted here too (the accounting is
// per-epoch, not deduplicated); the caller owns interpretation.
func (e *Epoch) Bytes() int64 {
	var b int64
	for _, s := range e.segs {
		b += int64(len(s.nbr))*8 + int64(len(s.wt))*4 + int64(len(s.sig))*8 + int64(len(s.osig))*8
	}
	e.mu.Lock()
	for _, co := range e.orders {
		b += int64(len(co.verts))*4 + int64(len(co.thr))*8
	}
	e.mu.Unlock()
	return b
}
