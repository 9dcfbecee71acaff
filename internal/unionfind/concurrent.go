// Package unionfind implements the disjoint-set forest that tracks cluster
// labels: anySCAN's super-nodes (Section III-A), the cores of pSCAN, SCAN++,
// ParallelSCAN and LinkSCAN*, the reference clustering, the sweep
// dendrogram, and every index, sweep and live-epoch replay.
//
// The paper guards Union with an OpenMP critical section (Fig. 4 lines 41
// and 60). Concurrent is lock-free instead, so one structure serves the
// sequential callers and the parallel merge phases alike. It keeps no
// operation counters: the number of merges is n − Sets(), since each merge
// removes exactly one set, and anySCAN counts its own Step-1 and Step-2/3
// merges from Union's verdicts for Fig. 12.
package unionfind

import (
	"fmt"
	"sync/atomic"
)

// Concurrent is a lock-free disjoint set safe for Union/Find/Connected calls
// from any number of goroutines simultaneously. It follows the CAS-based
// design of GBBS (Dhulipala, Blelloch & Shun) as used for SCAN cluster
// formation by Tseng, Dhulipala & Shun: an atomic parent array, union-by-min
// root hooking with a retry loop, and best-effort CAS path halving.
//
// Invariants that make the structure linearizable without locks:
//
//   - no operation creates a cycle: a hook points a root at the root of
//     another set, and path halving points an element at its grandparent.
//     A fresh forest's parents only ever decrease (a root is hooked under a
//     smaller root), so its chains terminate; a restored forest may be
//     rank-shaped, and RestoreConcurrent rejects one with a cycle.
//   - a root stops being a root exactly once, via the single successful
//     CompareAndSwap(parent[r]: r -> smaller root). Competing unions on the
//     same root serialize on that CAS; losers re-run Find and retry.
//   - connectivity is monotone (sets only merge), so a reader that observed
//     two elements sharing a root may rely on them sharing a set forever.
//   - a parent slot always names a member of its own element's set: a hook
//     writes a root of the set it merges into, and path halving writes a
//     grandparent. So a reader that sees parent[x] == r knows x and r share
//     a set forever (ParentIs), without finding either root.
//
// Union-by-min gives up rank balancing; path halving keeps chains short in
// practice, and the parallel merge phases touch each edge O(1) times, so
// the theoretical depth loss is invisible next to the removed
// serialization. Nothing is counted on the hot path: a shared counter would
// reintroduce exactly the contended cache line this type exists to remove.
//
// Add, Sets, Labels, Snapshot and RestoreConcurrent are quiescent
// operations: they must not run concurrently with any other method (the
// anySCAN phases call them only in sequential sub-phases or between Step
// calls, which is the same contract the checkpoint machinery requires).
type Concurrent struct {
	parent []int32 // atomic access in the concurrent operations
}

// NewConcurrent returns a Concurrent disjoint set with n singleton elements.
func NewConcurrent(n int) *Concurrent {
	c := &Concurrent{parent: make([]int32, n)}
	for i := range c.parent {
		c.parent[i] = int32(i)
	}
	return c
}

// Len returns the number of elements in the universe.
func (c *Concurrent) Len() int { return len(c.parent) }

// Add appends a fresh singleton element and returns its id. Quiescent-only:
// it grows the parent array and must not race with any concurrent operation
// (anySCAN creates super-nodes exclusively in sequential sub-phases).
func (c *Concurrent) Add() int32 {
	id := int32(len(c.parent))
	c.parent = append(c.parent, id)
	return id
}

// Find returns the representative of x's set, halving the path with
// best-effort CAS writes on the way. Safe for concurrent use with every
// non-quiescent method.
func (c *Concurrent) Find(x int32) int32 {
	for {
		p := atomic.LoadInt32(&c.parent[x])
		if p == x {
			return x
		}
		gp := atomic.LoadInt32(&c.parent[p])
		if gp == p {
			return p
		}
		// Path halving: x adopts its grandparent. A lost race means some
		// other goroutine already improved (or re-rooted) the chain.
		atomic.CompareAndSwapInt32(&c.parent[x], p, gp)
		x = gp
	}
}

// FindNoCompress returns the representative of x's set without writing to
// the forest. Kept for the read-mostly pruning phases, which would otherwise
// generate useless CAS traffic on paths they only inspect.
func (c *Concurrent) FindNoCompress(x int32) int32 {
	for {
		p := atomic.LoadInt32(&c.parent[x])
		if p == x {
			return x
		}
		x = p
	}
}

// Union merges the sets containing x and y and reports whether this call
// performed the merge. Lock-free: the larger root is hooked under the
// smaller via CAS; on a lost race the roots are re-resolved and the hook
// retried until the sets are observed merged. Exactly one call reports
// each merge, so counting true verdicts counts merges.
func (c *Concurrent) Union(x, y int32) bool {
	for {
		rx, ry := c.Find(x), c.Find(y)
		if rx == ry {
			return false
		}
		if rx > ry {
			rx, ry = ry, rx
		}
		// ry > rx: hook ry under rx. The CAS succeeds only while ry is still
		// a root, so exactly one competing union wins the merge.
		if atomic.CompareAndSwapInt32(&c.parent[ry], ry, rx) {
			return true
		}
		x, y = rx, ry
	}
}

// ParentIs reports whether x's parent slot holds r: one atomic load and a
// compare. A true answer proves that x and r are in the same set, now and
// forever, by the parent-slot invariant in the type comment; a false answer
// proves nothing. A caller that keeps a member r of some set (ideally its
// root, which most parent slots in a compressed set name) can thus skip a
// Union or Connected call for every x found hanging directly under r.
func (c *Concurrent) ParentIs(x, r int32) bool {
	return atomic.LoadInt32(&c.parent[x]) == r
}

// Connected reports whether x and y are in the same set. Linearizable under
// concurrent unions: a negative answer is only returned when rx was still a
// root after both finds resolved, i.e. there was an instant at which the two
// sets were distinct.
func (c *Concurrent) Connected(x, y int32) bool {
	for {
		rx, ry := c.Find(x), c.Find(y)
		if rx == ry {
			return true
		}
		if atomic.LoadInt32(&c.parent[rx]) == rx {
			return false
		}
	}
}

// Sets returns the number of disjoint sets by counting roots, in O(n).
// Quiescent-only.
func (c *Concurrent) Sets() int {
	sets := 0
	for i, p := range c.parent {
		if p == int32(i) {
			sets++
		}
	}
	return sets
}

// Labels returns, for each element, a dense label in [0, Sets()): elements
// in the same set share a label, assigned in order of first appearance of
// each set's representative. Quiescent-only.
func (c *Concurrent) Labels() []int32 {
	labels := make([]int32, len(c.parent))
	next := int32(0)
	seen := make(map[int32]int32)
	for i := range c.parent {
		r := c.Find(int32(i))
		l, ok := seen[r]
		if !ok {
			l = next
			next++
			seen[r] = l
		}
		labels[i] = l
	}
	return labels
}

// Snapshot exports the forest state for checkpointing, in the (parent,
// rank, sets) shape of checkpoint format v2, which rank-based forests
// wrote. Concurrent keeps no ranks; the rank vector is all zeros.
// Quiescent-only.
func (c *Concurrent) Snapshot() (parent []int32, rank []uint8, sets int) {
	return append([]int32(nil), c.parent...), make([]uint8, len(c.parent)), c.Sets()
}

// RestoreConcurrent rebuilds a Concurrent set from a Snapshot. It also
// accepts the rank-based forests that older format-v2 checkpoints hold,
// whose roots need not be their sets' smallest members: the rank vector
// only ever influenced tree shape, never the partition, so it is validated
// for length and otherwise ignored. Every parent chain is walked once, so
// a forest with a cycle, on which Find would never return, is rejected, as
// is a set count other than the number of roots.
func RestoreConcurrent(parent []int32, rank []uint8, sets int) (*Concurrent, error) {
	if len(parent) != len(rank) {
		return nil, fmt.Errorf("unionfind: parent/rank length mismatch %d != %d", len(parent), len(rank))
	}
	for i, p := range parent {
		if p < 0 || int(p) >= len(parent) {
			return nil, fmt.Errorf("unionfind: element %d has out-of-range parent %d", i, p)
		}
	}
	// walk[x] is 1 + the element whose walk first reached x. A walk ends at
	// a root or at an element an earlier walk reached, which leads to a
	// root; one that reaches an element of its own walk found a cycle.
	walk := make([]int32, len(parent))
	roots := 0
	for i := range parent {
		mark, x := int32(i)+1, int32(i)
		for walk[x] == 0 && parent[x] != x {
			walk[x] = mark
			x = parent[x]
		}
		if walk[x] == mark {
			return nil, fmt.Errorf("unionfind: element %d lies on a parent cycle", x)
		}
		if parent[i] == int32(i) {
			roots++
		}
	}
	if sets != roots {
		return nil, fmt.Errorf("unionfind: set count %d, but the forest has %d roots", sets, roots)
	}
	return &Concurrent{parent: parent}, nil
}
