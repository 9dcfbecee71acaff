package anyscan

import (
	"fmt"

	"anyscan/internal/local"
)

// LocalResult is the answer to a seed-centered community query: the seed's
// role under the full clustering at (μ, ε), the exact membership of its
// community (nil when the seed is noise), and the number of vertices the
// expansion touched — the measure of its output-proportional cost.
type LocalResult = local.Result

// LocalView is the indexed-graph surface a local query runs against; the
// Index type satisfies it, as does a live epoch.
type LocalView = local.View

// Local answers a seed-centered community query from a prebuilt index:
// which community does seed belong to at (μ, ε), or is it a hub/outlier?
// Membership is byte-identical to the seed's cluster under the full
// idx.Query(mu, eps), but the work is proportional to the community and its
// fringe rather than the graph — the expansion walks only σ-sorted
// neighbor-order prefixes and O(1) core thresholds from the index.
//
// g must be the graph idx was built over; passing a different graph is an
// error (the index's thresholds describe no other adjacency). idx is safe
// for any number of concurrent Local and Query callers.
func Local(g GraphView, idx *Index, seed int32, mu int, eps float64) (*LocalResult, error) {
	if g != nil && idx.Graph() != g {
		return nil, fmt.Errorf("anyscan: index was built over a different graph")
	}
	return local.Query(idx, seed, mu, eps)
}

// LocalQuery answers a seed-centered community query from any LocalView —
// an Index or a live epoch — without the graph-identity check of Local.
func LocalQuery(v LocalView, seed int32, mu int, eps float64) (*LocalResult, error) {
	return local.Query(v, seed, mu, eps)
}
