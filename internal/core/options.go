// Package core implements anySCAN (Section III of the paper): an anytime,
// parallel, exact structural graph clustering algorithm. Vertices are
// summarized into super-nodes in blocks of α (Step 1), super-nodes sharing a
// core vertex are merged (Step 2, blocks of β), weakly-related super-nodes
// connected through similar core-core edges are merged (Step 3, blocks of
// β), and finally noise vertices are resolved into borders, hubs and
// outliers (Step 4). The algorithm can be suspended after any block to
// inspect an intermediate clustering and resumed to refine it; run to
// completion it produces the exact SCAN clustering (modulo the arbitrary
// assignment of shared border vertices).
package core

import (
	"fmt"
	"runtime"

	"anyscan/internal/simeval"
)

// Options configures a Clusterer.
type Options struct {
	// Mu is the minimum closed ε-neighborhood size for a core vertex
	// (Definition 3). The paper's default is 5.
	Mu int
	// Eps is the structural similarity threshold ε ∈ (0, 1].
	Eps float64
	// Alpha is the Step-1 block size (vertices summarized per iteration).
	// The paper's default is 8192.
	Alpha int
	// Beta is the Step-2/3 block size. The paper's default is 8192.
	Beta int
	// Threads is the number of workers for the parallel phases; 0 means
	// GOMAXPROCS, 1 runs fully sequentially (the paper's non-parallel
	// anySCAN, with no goroutine overhead).
	Threads int
	// Seed drives the random Step-1 vertex selection order. Runs with equal
	// seeds are deterministic for Threads == 1.
	Seed int64
	// Sim selects the Section III-D similarity optimizations. The zero
	// value disables them; DefaultOptions enables all, as in Section IV.
	Sim simeval.Options
	// ResolveRoles, when set, spends extra similarity work after Step 4 to
	// decide the core/border status of vertices the algorithm could prove
	// correctly clustered without a core check (pruned unprocessed-border
	// vertices). Cluster labels are exact either way; this only refines the
	// reported roles to match SCAN's exactly.
	ResolveRoles bool
	// EdgeMemo enables an extension beyond the paper: a lock-free per-edge
	// cache of σ outcomes shared across all steps and threads (4 bytes per
	// arc). anySCAN by design re-evaluates an edge from both endpoints —
	// the paper trades recomputation for zero synchronization — which costs
	// up to 2× the similarity work of pSCAN on noise-heavy graphs. The memo
	// removes that factor at the price of memory and one atomic load/store
	// per evaluation. Results are identical either way.
	EdgeMemo bool
	// Ablation disables individual design choices for the ablation study;
	// every combination still yields the exact SCAN clustering, only the
	// amount of work changes.
	Ablation Ablation
}

// Ablation toggles anySCAN design choices off, one per knob, to measure
// their contribution (the `benchrunner ablation` experiment). The zero
// value is the full algorithm.
type Ablation struct {
	// NoNeiPromotion disables the nei(q) core-count promotion: vertices
	// whose coreness is implied by their discovered ε-neighbors are no
	// longer recognized for free and must be core-checked in Steps 2-4.
	NoNeiPromotion bool
	// NoPruning disables the Step-2/3 skip of vertices whose super-nodes /
	// neighborhood already agree on one cluster; every worklist vertex is
	// core-checked.
	NoPruning bool
	// NoSorting processes the Step-2/3 worklists in natural order instead
	// of the paper's descending super-node-count / degree orders.
	NoSorting bool
}

// DefaultOptions returns the paper's Section IV defaults
// (μ=5, ε=0.5, α=β=8192, all optimizations on).
func DefaultOptions() Options {
	return Options{
		Mu:      5,
		Eps:     0.5,
		Alpha:   8192,
		Beta:    8192,
		Threads: runtime.GOMAXPROCS(0),
		Seed:    1,
		Sim:     simeval.AllOptimizations,
	}
}

// AutoBlock is the automatic block size for a graph of n vertices,
// max(128, n/128): the paper's α = β = 8192 relative to its 1M–5M-vertex
// graphs, kept well below 1% of |V| on small ones.
func AutoBlock(n int) int { return max(128, n/128) }

func (o *Options) validate() error {
	if o.Mu < 1 {
		return fmt.Errorf("anyscan: Mu must be >= 1, got %d", o.Mu)
	}
	if !(o.Eps > 0 && o.Eps <= 1) {
		return fmt.Errorf("anyscan: Eps must be in (0, 1], got %v", o.Eps)
	}
	if o.Alpha < 1 {
		return fmt.Errorf("anyscan: Alpha must be >= 1, got %d", o.Alpha)
	}
	if o.Beta < 1 {
		return fmt.Errorf("anyscan: Beta must be >= 1, got %d", o.Beta)
	}
	if o.Threads < 0 {
		return fmt.Errorf("anyscan: Threads must be >= 0, got %d", o.Threads)
	}
	if o.Threads == 0 {
		o.Threads = runtime.GOMAXPROCS(0)
	}
	return nil
}

// Phase identifies the algorithm stage a Clusterer is in.
type Phase int8

// Phases, in execution order.
const (
	PhaseSummarize Phase = iota // Step 1: summarization into super-nodes
	PhaseStrong                 // Step 2: merging strongly-related super-nodes
	PhaseWeak                   // Step 3: merging weakly-related super-nodes
	PhaseBorders                // Step 4: determining border vertices
	PhaseDone                   // finished
)

func (p Phase) String() string {
	switch p {
	case PhaseSummarize:
		return "summarize"
	case PhaseStrong:
		return "strong-merge"
	case PhaseWeak:
		return "weak-merge"
	case PhaseBorders:
		return "borders"
	case PhaseDone:
		return "done"
	}
	return fmt.Sprintf("Phase(%d)", int8(p))
}
