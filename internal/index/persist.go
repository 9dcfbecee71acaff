package index

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"slices"

	"anyscan/internal/frame"
	"anyscan/internal/graph"
)

// Index container format: the shared framed+CRC container of package frame
// wrapping a gob-encoded indexPayload. Only σ (plus, for approximate indexes,
// the per-arc error bands and the sketch parameters) is persisted, in CSR arc
// order — the one place arc order survives. The neighbor ids of the sorted
// orders and the per-μ core orders are cheap, deterministic derivations and
// are rebuilt on load by sorting the loaded arrays in place, which keeps the
// file at 8 B per arc against 12 resident and the format independent of
// query history.
//
// Payload version 1 is an exact index; version 2 adds the approximate-mode
// fields. Exact indexes — including any built with the δ=0 dial — keep
// writing version 1, byte-identical to what earlier releases produced, and
// both versions load through the same path.
const (
	indexVersion       = 1
	indexVersionApprox = 2
)

// maxSigma bounds a persisted threshold. σ ≤ 1 by Cauchy–Schwarz, but
// the exact crossing of its rounded numerator and denominator can land a
// few ulps above 1 (every edge of a triangle gets 1+2⁻⁵²), and Build keeps
// it; at any valid ε such a threshold means what 1 does.
const maxSigma = 1 + 1e-9

// indexKind is the frame parameterization of the persisted-index artifact.
// The container version stays 1 for both payload versions — the envelope
// format is unchanged; MaxPayload bounds the declared payload length so a
// corrupt or hostile header cannot force an enormous allocation.
var indexKind = frame.Kind{
	Magic:      0xA17C1DE5,
	Version:    indexVersion,
	Name:       "index",
	MaxPayload: int64(1) << 36,
}

// indexPayload is the gob payload of a persisted index. The graph itself is
// not serialized — the caller supplies it again at load time and a
// fingerprint check rejects mismatches. Delta, K, Seed, and Band are set
// only when Version == indexVersionApprox; gob omits zero-valued fields, so
// version-1 payloads encode exactly as they did before these fields existed.
type indexPayload struct {
	Version int
	Graph   graph.Fingerprint
	Sigma   []float64

	// Approximate-mode fields (Version == indexVersionApprox): the accuracy
	// dial, MinHash permutation count and seed the estimates were built
	// with, and the per-arc confidence half-widths in CSR arc order.
	Delta float64
	K     int
	Seed  uint64
	Band  []float32
}

// payload assembles the persisted form of the index.
func (x *Index) payload() indexPayload {
	p := indexPayload{
		Version: indexVersion,
		Graph:   graph.FingerprintOf(x.g),
		Sigma:   arcOrder(x, x.nbrSig),
	}
	if a := x.approx; a != nil && !a.exactFallback {
		p.Version = indexVersionApprox
		p.Delta, p.K, p.Seed, p.Band = a.delta, a.k, a.seed, arcOrder(x, a.nbrBand)
	}
	return p
}

// arcOrder returns vals, an array parallel to the σ-sorted neighbor orders,
// permuted back into CSR arc order. A vertex's adjacency is strictly
// id-sorted, so the arc slot of neighbor q is q's rank in that adjacency.
func arcOrder[T any](x *Index, vals []T) []T {
	g := x.g
	out := make([]T, len(vals))
	for v := int32(0); v < int32(g.NumVertices()); v++ {
		lo, hi := g.NeighborRange(v)
		ids, _ := g.Neighbors(v)
		for e := lo; e < hi; e++ {
			j, _ := slices.BinarySearch(ids, x.nbr[e])
			out[lo+int64(j)] = vals[e]
		}
	}
	return out
}

// Save serializes the index so it can be restored later — possibly in
// another process — with Load, skipping the σ evaluation pass entirely. The
// payload is wrapped in the framed container (magic, version, length,
// CRC-32), so truncation and bit-level corruption are detected at load time.
//
// An approximate index saves its estimates and error bands (payload version
// 2); a build that requested approximation but fell back to the exact pass
// (non-unit weights) saves as a plain exact index — its σ values are exact,
// and the dial setting is build provenance, not index state.
func (x *Index) Save(w io.Writer) error {
	p := x.payload()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&p); err != nil {
		return fmt.Errorf("anyscan: encoding index: %w", err)
	}
	return indexKind.Write(w, buf.Bytes())
}

// SaveFile writes the index to path crash-safely (temp file + fsync +
// atomic rename): at every instant either the previous file or the complete
// new one exists under path.
func (x *Index) SaveFile(path string) error {
	p := x.payload()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&p); err != nil {
		return fmt.Errorf("anyscan: encoding index: %w", err)
	}
	return indexKind.WriteFile(path, buf.Bytes())
}

// Load reconstructs an index over g from a stream written by Save. g must
// be the same graph the index was built on (a content fingerprint is
// verified). The frame checksum rejects corrupted files, and the decoded σ
// slice is additionally validated against the graph (arc count and value
// range), so a checksum-valid but semantically invalid file yields an error
// instead of silently wrong query answers. The sorted neighbor orders are
// rebuilt with the given number of workers.
func Load(g graph.Graph, r io.Reader, threads int) (*Index, error) {
	payload, err := indexKind.Read(r)
	if err != nil {
		return nil, err
	}
	return restore(g, payload, threads)
}

// LoadFile opens path and loads one index with Load.
func LoadFile(g graph.Graph, path string, threads int) (*Index, error) {
	payload, err := indexKind.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return restore(g, payload, threads)
}

func restore(g graph.Graph, payload []byte, threads int) (*Index, error) {
	var p indexPayload
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&p); err != nil {
		return nil, fmt.Errorf("anyscan: decoding index: %w", err)
	}
	if p.Version != indexVersion && p.Version != indexVersionApprox {
		return nil, fmt.Errorf("anyscan: index version %d not supported", p.Version)
	}
	if fp := graph.FingerprintOf(g); fp != p.Graph {
		return nil, fmt.Errorf("anyscan: index was built on a different graph (fingerprint %x vs %x)", p.Graph.Hash, fp.Hash)
	}
	if int64(len(p.Sigma)) != g.NumArcs() {
		return nil, fmt.Errorf("anyscan: index has %d arc thresholds, graph has %d arcs", len(p.Sigma), g.NumArcs())
	}
	for e, s := range p.Sigma {
		if !(s >= 0 && s <= maxSigma) { // also rejects NaN
			return nil, fmt.Errorf("anyscan: index arc %d threshold %v out of range [0,1]", e, s)
		}
	}
	x := &Index{
		g:       g,
		nbrSig:  p.Sigma,
		threads: threads,
		orders:  map[int]*CoreOrder{},
	}
	if p.Version == indexVersionApprox {
		if !(p.Delta > 0 && p.Delta < 1) {
			return nil, fmt.Errorf("anyscan: index approx delta %v out of range (0,1)", p.Delta)
		}
		if p.K < 1 {
			return nil, fmt.Errorf("anyscan: index approx k %d must be >= 1", p.K)
		}
		if int64(len(p.Band)) != g.NumArcs() {
			return nil, fmt.Errorf("anyscan: index has %d arc bands, graph has %d arcs", len(p.Band), g.NumArcs())
		}
		for e, b := range p.Band {
			if !(b >= 0 && b <= 1) { // also rejects NaN
				return nil, fmt.Errorf("anyscan: index arc %d band %v out of range [0,1]", e, b)
			}
		}
		x.approx = &approxState{delta: p.Delta, k: p.K, seed: p.Seed, nbrBand: p.Band}
	}
	x.sortNeighbors(threads)
	if x.approx != nil {
		x.finishApprox()
	}
	return x, nil
}
