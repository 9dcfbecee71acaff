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
// wrapping a gob-encoded indexPayload. Only σ is persisted, in CSR arc
// order — the one place arc order survives. The neighbor ids of the sorted
// orders and the per-μ core orders are cheap, deterministic derivations and
// are rebuilt on load by sorting the loaded arrays in place, which keeps the
// file at 8 B per arc against 12 resident and the format independent of
// query history.
//
// There is one payload version, an exact index. Version 2 held an
// approximate index's estimates, error bands and sketch parameters; it is
// no longer written (Save refuses an approximate index) and no longer read
// (Load fails on it, naming the version).
const indexVersion = 1

// maxSigma bounds a persisted threshold. σ ≤ 1 by Cauchy–Schwarz, but
// the exact crossing of its rounded numerator and denominator can land a
// few ulps above 1 (every edge of a triangle gets 1+2⁻⁵²), and Build keeps
// it; at any valid ε such a threshold means what 1 does.
const maxSigma = 1 + 1e-9

// indexKind is the frame parameterization of the persisted-index artifact.
// The container version is the payload version; MaxPayload bounds the declared payload length so a
// corrupt or hostile header cannot force an enormous allocation.
var indexKind = frame.Kind{
	Magic:      0xA17C1DE5,
	Version:    indexVersion,
	Name:       "index",
	MaxPayload: int64(1) << 36,
}

// indexPayload is the gob payload of a persisted index. The graph itself is
// not serialized — the caller supplies it again at load time and a
// fingerprint check rejects mismatches. gob writes every field's name into
// the stream's type descriptor, so adding or dropping a field changes every
// file's bytes; decoding matches fields by name and skips the ones the
// struct lacks, so a file written with more fields still loads.
type indexPayload struct {
	Version int
	Graph   graph.Fingerprint
	Sigma   []float64
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
// An approximate index cannot be saved: its estimates answer only the
// in-memory /v1/query dial. A build that requested approximation but fell
// back to the exact pass (non-unit weights) saves as the exact index it is —
// its σ values are exact, and the dial setting is build provenance, not
// index state.
func (x *Index) Save(w io.Writer) error {
	if a := x.approx; a != nil && !a.exactFallback {
		return fmt.Errorf("anyscan: an approximate index (δ=%g) cannot be saved; build an exact one", a.delta)
	}
	p := indexPayload{Version: indexVersion, Graph: graph.FingerprintOf(x.g), Sigma: arcOrder(x, x.nbrSig)}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&p); err != nil {
		return fmt.Errorf("anyscan: encoding index: %w", err)
	}
	return indexKind.Write(w, buf.Bytes())
}

// SaveFile writes the index to path crash-safely with frame.Publish: at
// every instant either the previous file or the complete new one exists
// under path.
func (x *Index) SaveFile(path string) error {
	return frame.Publish(path, indexKind.Name, x.Save)
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
	if p.Version != indexVersion {
		return nil, fmt.Errorf("anyscan: index payload version %d not supported (only version %d, an exact index, loads)", p.Version, indexVersion)
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
	x.sortNeighborsCtx(nil, threads)
	return x, nil
}
