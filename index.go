package anyscan

import (
	"io"

	"anyscan/internal/index"
)

// Index is a GS*-Index-style per-graph query structure: one Θ(|E|)
// similarity pass at construction, then exact SCAN clusterings for *any*
// (μ, ε) pair — no σ is ever recomputed, for any number of queries at any
// number of distinct μ values. A full clustering costs O(|V|), plus the
// similar-neighborhood prefixes its cores walk, plus the arcs on the smaller
// side of the labelled/noise cut, which its hub/outlier split reads (none
// below two clusters); only Local is output-proportional. Safe for
// concurrent queries; the anyscand service keeps one Index per graph.
type Index = index.Index

// NewIndex builds the (μ, ε) query index for g with the given number of
// workers (0 = GOMAXPROCS). This is the only similarity pass the index will
// ever perform; Index.Query afterwards answers any (μ, ε) without σ work.
func NewIndex(g GraphView, threads int) *Index { return index.Build(g, threads) }

// ApproxStats reports how an approximate index split its work between the
// sketch estimator and the exact fallback tiers; see Index.Approx.
type ApproxStats = index.ApproxStats

// DefaultApproxDelta is the default accuracy dial for approximate indexes.
const DefaultApproxDelta = index.DefaultApproxDelta

// NewIndexApprox is NewIndex with an accuracy dial: delta=0 builds the exact
// index (byte-identical to NewIndex, including its persisted form); delta in
// (0,1) estimates σ from per-vertex MinHash neighborhood sketches instead of
// exact set joins. Each estimate carries a Chernoff-style error band chosen
// so it is wrong by more than the band with probability at most delta, and
// any query whose ε lands inside an arc's band resolves that arc *exactly*
// (memoized across queries) — misclassification is confined to
// provably-near-threshold edges. Graphs with non-unit edge weights have no
// sketchable form of σ and fall back to the exact build (Index.Approx
// reports it). Queries on the returned index take the band-aware path
// automatically; no query-side flag is needed.
func NewIndexApprox(g GraphView, threads int, delta float64) (*Index, error) {
	return index.BuildApprox(g, threads, delta)
}

// LoadIndex reconstructs an index over g from a stream written with
// Index.Save, skipping the similarity pass entirely. g must be the same
// graph the index was built on (a content fingerprint is verified); the
// framed container rejects truncated or bit-corrupted files and the decoded
// thresholds are validated against g.
func LoadIndex(g GraphView, r io.Reader, threads int) (*Index, error) {
	return index.Load(g, r, threads)
}

// LoadIndexFile opens path and loads one index with LoadIndex; the
// file-writing counterpart is Index.SaveFile, which publishes atomically
// (temp file + fsync + rename).
func LoadIndexFile(g GraphView, path string, threads int) (*Index, error) {
	return index.LoadFile(g, path, threads)
}
