// Package anyscan is a Go implementation of anySCAN — the anytime, parallel,
// exact structural graph clustering algorithm of Mai et al., "Scalable and
// Interactive Graph Clustering Algorithm on Multicore CPUs" (ICDE 2017) —
// together with the weighted-graph substrate, the batch competitors it is
// evaluated against (SCAN, SCAN-B, SCAN++, pSCAN) and the paper's benchmark
// suite.
//
// # Quick start
//
//	g, _, err := anyscan.LoadEdgeListFile("graph.txt", anyscan.LoadOptions{Remap: true})
//	if err != nil { ... }
//	res, metrics, err := anyscan.Cluster(g, anyscan.DefaultOptions())
//	for v := 0; v < res.N(); v++ {
//		fmt.Println(v, res.Roles[v], res.Labels[v])
//	}
//
// # Anytime / interactive use
//
//	c, err := anyscan.New(g, opts)
//	for c.Step() {            // one block of work at a time
//		snap := c.Snapshot()  // best-so-far clustering, inspect freely
//		if goodEnough(snap) {
//			break             // or just stop calling Step: the run is suspended
//		}
//	}
//
// Clustering semantics follow the paper: given μ and ε, a vertex is a core
// when at least μ vertices of its closed neighborhood (itself included) have
// weighted structural similarity ≥ ε to it; clusters are the maximal sets of
// density-connected vertices; non-core cluster members are borders; the rest
// are hubs (touching several clusters) or outliers. Run to completion,
// anySCAN yields exactly the SCAN clustering (shared borders are assigned to
// one of their qualifying clusters, as in SCAN).
package anyscan

import (
	"context"
	"io"

	"anyscan/internal/cluster"
	"anyscan/internal/core"
	"anyscan/internal/eval"
	"anyscan/internal/graph"
	"anyscan/internal/scan"
	"anyscan/internal/simeval"
)

// Graph is a weighted undirected graph in flat CSR form; build one with a
// Builder, a generator from the gen tooling, or the edge-list loaders.
type Graph = graph.CSR

// GraphView is the read interface every graph storage backend satisfies:
// the flat *Graph and the varint-compressed *CompressedGraph (possibly
// mmap-backed from a .csrz file). Every clustering entry point that only
// reads adjacency takes a GraphView; pass either backend.
type GraphView = graph.Graph

// CompressedGraph is the varint-delta compressed CSR backend: 2-4x smaller
// than the flat form, read-only, and mmap-backed when opened from a .csrz
// file so graphs larger than RAM can be served. Build one with CompressGraph
// or open one with OpenCompressedGraphFile / LoadGraph.
type CompressedGraph = graph.CompressedCSR

// Builder accumulates edges and produces an immutable Graph.
type Builder = graph.Builder

// LoadOptions configures edge-list parsing.
type LoadOptions = graph.LoadOptions

// Stats summarizes a graph (|V|, |E|, average degree, clustering coefficient).
type Stats = graph.Stats

// Result is a clustering: per-vertex roles and cluster labels.
type Result = cluster.Result

// Role classifies a vertex (core, border, hub, outlier).
type Role = cluster.Role

// Roles.
const (
	RoleUnclassified = cluster.Unclassified
	RoleOutlier      = cluster.Outlier
	RoleHub          = cluster.Hub
	RoleBorder       = cluster.Border
	RoleCore         = cluster.Core
)

// NoLabel marks vertices outside every cluster.
const NoLabel = cluster.NoLabel

// Options configures an anySCAN run (μ, ε, block sizes α/β, threads, seed,
// similarity optimizations).
type Options = core.Options

// SimOptions toggles the Section III-D similarity optimizations.
type SimOptions = simeval.Options

// Clusterer is a suspendable/resumable anySCAN run.
type Clusterer = core.Clusterer

// Metrics reports the work performed by an anySCAN run.
type Metrics = core.Metrics

// BatchMetrics reports the work performed by one of the batch algorithms.
type BatchMetrics = scan.Metrics

// Phase identifies an anySCAN stage (summarize, strong-merge, weak-merge,
// borders, done).
type Phase = core.Phase

// Progress describes where an anytime run stands.
type Progress = core.Progress

// DefaultOptions returns the paper's defaults: μ=5, ε=0.5, α=β=8192, all
// optimizations enabled, GOMAXPROCS workers.
func DefaultOptions() Options { return core.DefaultOptions() }

// New prepares an anytime anySCAN run over g.
func New(g *Graph, opt Options) (*Clusterer, error) { return core.New(g, opt) }

// Cluster runs anySCAN to completion and returns the final clustering.
func Cluster(g *Graph, opt Options) (*Result, Metrics, error) { return core.Cluster(g, opt) }

// Run drives a fresh anySCAN run under ctx; if ctx is canceled the partial
// best-so-far result is returned along with the context error.
func Run(ctx context.Context, g *Graph, opt Options) (*Result, error) {
	c, err := core.New(g, opt)
	if err != nil {
		return nil, err
	}
	return c.Run(ctx)
}

// Query is one (μ, ε) clustering request, the parameter pair shared by
// every exact algorithm here: μ is the minimum closed-neighborhood size of
// a core, ε the similarity threshold. Threads is honored by the parallel
// algorithms only (0 = GOMAXPROCS).
type Query = scan.Query

// Algorithm names one of the exact batch clustering algorithms Batch
// dispatches over.
type Algorithm = scan.Algorithm

// The batch algorithms.
const (
	AlgoSCAN         = scan.AlgoSCAN         // original SCAN (Xu et al., KDD 2007)
	AlgoSCANB        = scan.AlgoSCANB        // SCAN + Section III-D optimizations
	AlgoSCANPP       = scan.AlgoSCANPP       // SCAN++ (Shiokawa et al., PVLDB 2015)
	AlgoPSCAN        = scan.AlgoPSCAN        // pSCAN (Chang et al., ICDE 2016)
	AlgoParallelSCAN = scan.AlgoParallelSCAN // naive parallel SCAN
)

// Algorithms returns the batch algorithms in their canonical order.
func Algorithms() []Algorithm { return scan.Algorithms() }

// ParseAlgorithm resolves a user-supplied algorithm name to an Algorithm.
func ParseAlgorithm(s string) (Algorithm, error) { return scan.ParseAlgorithm(s) }

// Batch runs one exact batch algorithm on g at the query's (μ, ε). All
// algorithms produce equivalent clusterings (identical cores, core
// partition, and noise); they differ only in how much similarity work they
// spend. For repeated queries on one graph, build a query Index instead.
// Any backend works; SCAN++ and pSCAN materialize a compressed g internally.
func Batch(g GraphView, algo Algorithm, q Query) (*Result, BatchMetrics, error) {
	return scan.Batch(g, algo, q)
}

// ApproxSCAN runs a LinkSCAN*-style sampled approximation of SCAN: each
// vertex evaluates σ on roughly a rho fraction of its edges and coreness is
// estimated from the sampled hit rate. Fast but unrefinable — contrast with
// the anytime Clusterer, whose intermediate results converge to exactness.
func ApproxSCAN(g *Graph, mu int, eps, rho float64, seed int64) (*Result, BatchMetrics) {
	return scan.ApproxSCAN(g, mu, eps, rho, seed)
}

// Reference computes the clustering by the literal Definitions 2–5; slow,
// for validation.
func Reference(g *Graph, mu int, eps float64) *Result { return cluster.Reference(g, mu, eps) }

// Validate checks that res is a correct SCAN clustering of g under (μ, ε).
func Validate(g *Graph, mu int, eps float64, res *Result) error {
	return cluster.Validate(g, mu, eps, res)
}

// NMI returns the normalized mutual information between two clusterings
// (noise treated as one special cluster), the quality measure of the
// paper's anytime experiments.
func NMI(a, b *Result) float64 { return eval.NMI(a, b) }

// ARI returns the Adjusted Rand Index between two clusterings.
func ARI(a, b *Result) float64 { return eval.ARI(a, b) }

// Modularity returns the Newman weighted modularity Q of a clustering of g
// (noise as singletons) — a ground-truth-free quality score, handy for
// picking ε during interactive exploration.
func Modularity(g *Graph, r *Result) float64 { return eval.Modularity(g, r) }

// ComputeStats returns exact graph statistics.
func ComputeStats(g *Graph) Stats { return graph.ComputeStats(g) }

// FromEdges builds a graph from (u, v, w) triples.
func FromEdges(n int, edges [][3]float64) (*Graph, error) { return graph.FromEdges(n, edges) }

// FromUnweightedEdges builds a weight-1 graph from (u, v) pairs.
func FromUnweightedEdges(n int, edges [][2]int32) (*Graph, error) {
	return graph.FromUnweightedEdges(n, edges)
}

// LoadEdgeListFile parses a SNAP-style edge-list file ("u v" or "u v w" per
// line, '#' comments). With Remap set, arbitrary ids are compacted and the
// original id of each dense vertex is returned.
func LoadEdgeListFile(path string, opts LoadOptions) (*Graph, []int64, error) {
	return graph.LoadEdgeListFile(path, opts)
}

// LoadMETIS parses a graph in METIS/Chaco format (with optional edge
// weights).
func LoadMETIS(r io.Reader) (*Graph, error) { return graph.LoadMETIS(r) }

// ReadBinary deserializes a graph written with Graph.WriteBinary.
func ReadBinary(r io.Reader) (*Graph, error) { return graph.ReadBinary(r) }

// LoadGraph loads a graph choosing the backend and format from the file
// extension: ".csrz" → the compressed container, opened mmap-backed (the
// returned GraphView is a *CompressedGraph and the file must outlive it);
// ".metis"/".graph" → METIS; ".bin" → the compact binary container; anything
// else → whitespace edge list (with id remapping; the returned id slice is
// non-nil only in that case). Use MaterializeGraph when a flat *Graph is
// required afterwards.
func LoadGraph(path string) (GraphView, []int64, error) {
	return graph.LoadAny(path)
}

// CompressGraph encodes g into the compressed backend (varint byte-delta
// neighbor lists; weights dropped entirely when all are 1). The result
// yields byte-identical clusterings to g on every entry point that takes a
// GraphView.
func CompressGraph(g *Graph) *CompressedGraph { return graph.Compress(g) }

// MaterializeGraph converts any backend to a flat *Graph: a *Graph is
// returned as-is, a *CompressedGraph is decompressed. Needed for the
// mutation APIs and the arc-indexed batch algorithms (SCAN++, pSCAN).
func MaterializeGraph(g GraphView) *Graph { return graph.Materialize(g) }

// OpenCompressedGraphFile opens a .csrz container written with
// WriteCompressedGraphFile, mmap-backed: adjacency stays on disk and pages
// in on demand, so graphs larger than RAM can be queried. With verifyCRC the
// whole payload is checksummed up front (one sequential read of the file).
func OpenCompressedGraphFile(path string, verifyCRC bool) (*CompressedGraph, error) {
	return graph.OpenCompressedFile(path, graph.CompressedOpenOptions{VerifyCRC: verifyCRC})
}

// WriteCompressedGraphFile compresses g and writes it to path atomically as
// a framed, CRC-checked .csrz container.
func WriteCompressedGraphFile(g *Graph, path string) error {
	return graph.Compress(g).WriteCompressedFile(path)
}

// LoadCheckpoint reconstructs a suspended anytime run over g from a
// checkpoint written with Clusterer.SaveCheckpoint; the resumed run
// continues exactly where it stopped, in this process or another. The
// framed checkpoint container (magic, version, length, CRC-32) rejects
// truncated or bit-corrupted files, and all loaded index arrays are
// bounds-checked against g before the run is reconstructed.
func LoadCheckpoint(g *Graph, r io.Reader) (*Clusterer, error) {
	return core.LoadCheckpoint(g, r)
}

// LoadCheckpointFile opens path and reconstructs the suspended run over g;
// the file-writing counterpart is Clusterer.SaveCheckpointFile, which
// publishes checkpoints atomically (temp file + fsync + rename) so a crash
// mid-save never destroys the previous checkpoint.
func LoadCheckpointFile(g *Graph, path string) (*Clusterer, error) {
	return core.LoadCheckpointFile(g, path)
}

// WriteAssignments writes a clustering as "vertex cluster role" lines.
func WriteAssignments(w io.Writer, r *Result) error { return cluster.WriteAssignments(w, r) }

// ReadAssignments parses a clustering written by WriteAssignments.
func ReadAssignments(r io.Reader) (*Result, error) { return cluster.ReadAssignments(r) }

// InducedSubgraph returns the subgraph induced by the given vertices plus
// the original id of each new vertex.
func InducedSubgraph(g *Graph, vertices []int32) (*Graph, []int32, error) {
	return graph.InducedSubgraph(g, vertices)
}

// LargestComponent returns the induced subgraph of g's largest connected
// component (a common preprocessing step before clustering).
func LargestComponent(g *Graph) (*Graph, []int32, error) {
	return graph.LargestComponent(g)
}

// RelabelByDegree returns an isomorphic copy of g with vertices renumbered
// in non-increasing degree order plus the permutation perm[old] = new. The
// layout improves similarity-join locality on skewed graphs; map labels back
// through perm to report results in the original numbering.
func RelabelByDegree(g *Graph) (*Graph, []int32) { return graph.RelabelByDegree(g) }
