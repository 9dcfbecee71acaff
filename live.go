package anyscan

import "anyscan/internal/live"

// LiveGraph is a mutable graph that keeps its (μ, ε) query index up to date
// under batched edge insertions, deletions and weight updates. Each applied
// batch recomputes σ only for the arcs incident to its endpoints and
// publishes a new immutable LiveEpoch; Epoch().Query(μ, ε) then answers any
// (μ, ε) exactly, byte-identical to a fresh NewIndex on the mutated graph.
// Apply serializes writers; any number of readers query concurrently.
type LiveGraph = live.Graph

// LiveEpoch is one immutable published version of a LiveGraph. It answers
// Query(μ, ε) and is a LocalView for LocalQuery.
type LiveEpoch = live.Epoch

// ApplyStats reports what one LiveGraph.Apply did: effective changes,
// no-ops, and the σ values it recomputed.
type ApplyStats = live.ApplyStats

// Mutation is one edge operation in a LiveGraph.Apply batch. Endpoints are
// unordered; W is ignored for OpDelete.
type Mutation = live.Mutation

// MutationOp is a Mutation's kind.
type MutationOp = live.Op

// Mutation kinds. OpAdd inserts an edge or updates its weight; OpDelete
// removes an edge and is a no-op when it is absent; OpReweight updates the
// weight of an edge that must already exist.
const (
	OpAdd      = live.OpAdd
	OpDelete   = live.OpDelete
	OpReweight = live.OpReweight
)

// NewLiveGraph promotes a built index to epoch 0 of a mutable graph. The σ
// thresholds and orders come from the index, so no similarity is
// recomputed, except that an approximate index is rebuilt exactly (live σ
// is always exact). Over a flat *Graph the epoch aliases the index's
// storage; any other backend is first decompressed to a private copy. x and
// its graph must not be mutated afterwards.
func NewLiveGraph(x *Index) *LiveGraph { return live.FromIndex(x) }
