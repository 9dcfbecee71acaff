package unionfind

import (
	"fmt"
	"sync/atomic"
)

// Concurrent is a lock-free disjoint set safe for Union/Find/Connected calls
// from any number of goroutines simultaneously. It replaces the paper's
// "guard Union with an OpenMP critical section" scheme (Fig. 4 lines 41/60)
// with the CAS-based design of GBBS (Dhulipala, Blelloch & Shun) as used for
// SCAN cluster formation by Tseng, Dhulipala & Shun: an atomic parent array,
// union-by-min root hooking with a retry loop, and best-effort CAS path
// halving.
//
// Invariants that make the structure linearizable without locks:
//
//   - parent values only ever decrease: a root r is hooked exclusively under
//     a root with a smaller id (union-by-min), and path halving replaces a
//     parent with a strictly closer-to-root (hence <=) ancestor. Pointer
//     chains therefore always terminate and no cycle can form.
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
// Union-by-min gives up the rank balancing of DisjointSet; path halving keeps
// chains short in practice, and the parallel merge phases touch each edge
// O(1) times, so the theoretical depth loss is invisible next to the removed
// serialization. Find operations are deliberately not counted — a shared
// find counter would reintroduce exactly the contended cache line this type
// exists to remove — so Finds always reports 0.
//
// Add, Snapshot, Restore and Labels are quiescent operations: they must not
// run concurrently with any other method (the anySCAN phases call them only
// in sequential sub-phases or between Step calls, which is the same contract
// the checkpoint machinery already requires).
type Concurrent struct {
	parent []int32 // atomic access in the concurrent operations
	unions atomic.Int64
	sets   atomic.Int64
}

// NewConcurrent returns a Concurrent disjoint set with n singleton elements.
func NewConcurrent(n int) *Concurrent {
	c := &Concurrent{parent: make([]int32, n)}
	for i := range c.parent {
		c.parent[i] = int32(i)
	}
	c.sets.Store(int64(n))
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
	c.sets.Add(1)
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
// retried until the sets are observed merged.
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
			c.unions.Add(1)
			c.sets.Add(-1)
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

// Sets returns the current number of disjoint sets.
func (c *Concurrent) Sets() int { return int(c.sets.Load()) }

// Unions returns the number of merging Union operations performed.
func (c *Concurrent) Unions() int64 { return c.unions.Load() }

// Finds always returns 0: see the type comment for why find operations are
// not counted on the lock-free hot path.
func (c *Concurrent) Finds() int64 { return 0 }

// Labels returns, for each element, a dense label in [0, Sets()): elements
// in the same set share a label, assigned in order of first appearance of
// each set's representative — the same canonical order DisjointSet.Labels
// produces for an equal partition. Quiescent-only.
func (c *Concurrent) Labels() []int32 {
	labels := make([]int32, len(c.parent))
	next := int32(0)
	seen := make(map[int32]int32, c.Sets())
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

// String implements fmt.Stringer for debugging.
func (c *Concurrent) String() string {
	return fmt.Sprintf("unionfind.Concurrent{n=%d sets=%d unions=%d}",
		len(c.parent), c.Sets(), c.Unions())
}

// Snapshot exports the forest state for checkpointing, in the same
// (parent, rank, sets) shape DisjointSet.Snapshot uses so the checkpoint
// container format is unchanged. Concurrent keeps no ranks; the rank vector
// is all zeros. Quiescent-only.
func (c *Concurrent) Snapshot() (parent []int32, rank []uint8, sets int) {
	return append([]int32(nil), c.parent...), make([]uint8, len(c.parent)), c.Sets()
}

// RestoreConcurrent rebuilds a Concurrent set from a Snapshot — including
// snapshots written by the rank-based DisjointSet (checkpoint format v2
// predates the lock-free structure): the rank vector only ever influenced
// tree shape, never the partition, so it is validated for length and
// otherwise ignored. The union counter restarts at zero.
func RestoreConcurrent(parent []int32, rank []uint8, sets int) (*Concurrent, error) {
	if len(parent) != len(rank) {
		return nil, fmt.Errorf("unionfind: parent/rank length mismatch %d != %d", len(parent), len(rank))
	}
	for i, p := range parent {
		if p < 0 || int(p) >= len(parent) {
			return nil, fmt.Errorf("unionfind: element %d has out-of-range parent %d", i, p)
		}
	}
	if sets < 0 || sets > len(parent) {
		return nil, fmt.Errorf("unionfind: implausible set count %d", sets)
	}
	c := &Concurrent{parent: parent}
	c.sets.Store(int64(sets))
	return c, nil
}
