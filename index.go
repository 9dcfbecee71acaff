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
