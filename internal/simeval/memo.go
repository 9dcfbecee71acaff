package simeval

// MemoState is the resolution state of one arc's similarity: an
// algorithm that memoizes the boolean outcome σ(p,q) ≥ ε per undirected
// edge never evaluates the same pair twice. pSCAN keeps such a memo to be
// work-optimal; for SCAN++ memo hits are the "similarity sharing"
// evaluations plotted in Fig. 7 (counted under Counters.Shared).
type MemoState int8

// Memo states.
const (
	Unknown    MemoState = 0
	Similar    MemoState = 1
	Dissimilar MemoState = 2
)
