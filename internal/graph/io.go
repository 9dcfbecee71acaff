package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
)

// LoadOptions configures edge-list parsing.
type LoadOptions struct {
	// Remap compacts arbitrary vertex ids into the dense range [0, n). When
	// false, ids are used verbatim and must be non-negative.
	Remap bool
	// DefaultWeight is assigned to edges without a weight column (0 → 1).
	DefaultWeight float32
}

// LoadEdgeList parses a whitespace-separated edge list ("u v" or "u v w" per
// line). Lines starting with '#', '%' or '//' are comments, as in SNAP and
// Matrix Market exports. Returns the graph and, when opts.Remap is set, the
// original id of each dense vertex.
func LoadEdgeList(r io.Reader, opts LoadOptions) (*CSR, []int64, error) {
	if opts.DefaultWeight <= 0 {
		opts.DefaultWeight = 1
	}
	var b Builder
	var ids []int64
	remap := map[int64]int32{}
	lookup := func(raw int64) (int32, error) {
		if !opts.Remap {
			if raw < 0 {
				return 0, fmt.Errorf("graph: negative vertex id %d (enable Remap?)", raw)
			}
			return int32(raw), nil
		}
		if v, ok := remap[raw]; ok {
			return v, nil
		}
		v := int32(len(ids))
		remap[raw] = v
		ids = append(ids, raw)
		return v, nil
	}

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' || line[0] == '%' || strings.HasPrefix(line, "//") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, nil, fmt.Errorf("graph: line %d: want at least 2 fields, got %q", lineNo, line)
		}
		uRaw, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return nil, nil, fmt.Errorf("graph: line %d: bad source id: %w", lineNo, err)
		}
		vRaw, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return nil, nil, fmt.Errorf("graph: line %d: bad target id: %w", lineNo, err)
		}
		w := opts.DefaultWeight
		if len(fields) >= 3 {
			wf, err := strconv.ParseFloat(fields[2], 32)
			if err != nil {
				return nil, nil, fmt.Errorf("graph: line %d: bad weight: %w", lineNo, err)
			}
			// NaN propagates through σ(p,q) and makes every similarity
			// comparison false; ±Inf and negative weights silently skew σ
			// and the checkpoint graph fingerprint. Reject them here with
			// the line number instead of letting them poison the CSR.
			switch {
			case math.IsNaN(wf):
				return nil, nil, fmt.Errorf("graph: line %d: weight is NaN", lineNo)
			case math.IsInf(wf, 0):
				return nil, nil, fmt.Errorf("graph: line %d: weight is infinite", lineNo)
			case wf < 0:
				return nil, nil, fmt.Errorf("graph: line %d: weight %g is negative (edge weights must be >= 0)", lineNo, wf)
			}
			w = float32(wf)
		}
		u, err := lookup(uRaw)
		if err != nil {
			return nil, nil, err
		}
		v, err := lookup(vRaw)
		if err != nil {
			return nil, nil, err
		}
		b.AddEdge(u, v, w)
	}
	if err := sc.Err(); err != nil {
		return nil, nil, fmt.Errorf("graph: scanning edge list: %w", err)
	}
	if opts.Remap {
		b.SetNumVertices(len(ids))
	}
	g, err := b.Build()
	return g, ids, err
}

// LoadEdgeListFile opens and parses path as an edge list.
func LoadEdgeListFile(path string, opts LoadOptions) (*CSR, []int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	return LoadEdgeList(f, opts)
}

// LoadFile loads a graph choosing the format from the file extension:
// ".metis"/".graph" → METIS, ".bin" → the compact binary container, anything
// else → whitespace edge list with id remapping. The returned id slice maps
// dense vertex ids back to the original file ids and is non-nil only for the
// edge-list case.
//
// A ".csrz" compressed container is decompressed to a flat CSR here; use
// LoadAny to keep the compressed (mmap-backed) representation.
func LoadFile(path string) (*CSR, []int64, error) {
	if strings.HasSuffix(path, ".csrz") {
		c, err := OpenCompressedFile(path, CompressedOpenOptions{})
		if err != nil {
			return nil, nil, err
		}
		g := c.Decompress()
		c.Close()
		return g, nil, nil
	}
	return loadFlatFile(path)
}

// LoadAny loads a graph in its natural in-memory representation: ".csrz"
// files open as mmap-backed *CompressedCSR (near-zero load cost, serves
// graphs larger than RAM), every other extension loads as a flat *CSR
// exactly like LoadFile.
func LoadAny(path string) (Graph, []int64, error) {
	if strings.HasSuffix(path, ".csrz") {
		c, err := OpenCompressedFile(path, CompressedOpenOptions{})
		if err != nil {
			return nil, nil, err
		}
		return c, nil, nil
	}
	g, ids, err := loadFlatFile(path)
	if err != nil {
		return nil, nil, err
	}
	return g, ids, nil
}

func loadFlatFile(path string) (*CSR, []int64, error) {
	switch {
	case strings.HasSuffix(path, ".metis"), strings.HasSuffix(path, ".graph"):
		f, err := os.Open(path)
		if err != nil {
			return nil, nil, err
		}
		defer f.Close()
		g, err := LoadMETIS(f)
		return g, nil, err
	case strings.HasSuffix(path, ".bin"):
		f, err := os.Open(path)
		if err != nil {
			return nil, nil, err
		}
		defer f.Close()
		g, err := ReadBinary(f)
		return g, nil, err
	default:
		return LoadEdgeListFile(path, LoadOptions{Remap: true})
	}
}

// WriteEdgeList writes the graph as "u v w" lines, one per undirected edge
// (u < v), in a format LoadEdgeList can read back.
func (g *CSR) WriteEdgeList(w io.Writer) error {
	bw := bufio.NewWriter(w)
	n := int32(g.NumVertices())
	fmt.Fprintf(bw, "# anyscan edge list: %d vertices, %d edges\n", n, g.NumEdges())
	for u := int32(0); u < n; u++ {
		for e := g.offsets[u]; e < g.offsets[u+1]; e++ {
			v := g.neighbors[e]
			if u < v {
				if _, err := fmt.Fprintf(bw, "%d %d %g\n", u, v, g.weight(e)); err != nil {
					return err
				}
			}
		}
	}
	return bw.Flush()
}

const binaryMagic = uint32(0xA17C5CA1) // "anySCAn" graph container

// WriteBinary serializes the CSR in a compact little-endian binary layout
// (magic, version, n, arc count, offsets, neighbors, weights). A unit-weight
// graph, which keeps no weight array, writes its 1s all the same.
func (g *CSR) WriteBinary(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	hdr := []any{binaryMagic, uint32(1), uint64(g.NumVertices()), uint64(len(g.neighbors))}
	for _, h := range hdr {
		if err := binary.Write(bw, binary.LittleEndian, h); err != nil {
			return err
		}
	}
	if err := binary.Write(bw, binary.LittleEndian, g.offsets); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, g.neighbors); err != nil {
		return err
	}
	if g.weights == nil {
		if err := writeOnes(bw, int64(len(g.neighbors))); err != nil {
			return err
		}
	} else if err := binary.Write(bw, binary.LittleEndian, g.weights); err != nil {
		return err
	}
	return bw.Flush()
}

// writeOnes writes count little-endian float32 1s.
func writeOnes(w io.Writer, count int64) error {
	const chunk = 1024
	var ones [4 * chunk]byte
	for i := 0; i < len(ones); i += 4 {
		binary.LittleEndian.PutUint32(ones[i:], math.Float32bits(1))
	}
	for count > 0 {
		c := min(count, chunk)
		if _, err := w.Write(ones[:4*c]); err != nil {
			return err
		}
		count -= c
	}
	return nil
}

// ReadBinary deserializes a graph written by WriteBinary.
func ReadBinary(r io.Reader) (*CSR, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	var magic, version uint32
	var n, m uint64
	if err := binary.Read(br, binary.LittleEndian, &magic); err != nil {
		return nil, fmt.Errorf("graph: reading magic: %w", err)
	}
	if magic != binaryMagic {
		return nil, fmt.Errorf("graph: bad magic %#x", magic)
	}
	if err := binary.Read(br, binary.LittleEndian, &version); err != nil {
		return nil, err
	}
	if version != 1 {
		return nil, fmt.Errorf("graph: unsupported version %d", version)
	}
	if err := binary.Read(br, binary.LittleEndian, &n); err != nil {
		return nil, err
	}
	if err := binary.Read(br, binary.LittleEndian, &m); err != nil {
		return nil, err
	}
	if n > 1<<34 || m > 1<<40 || m%2 != 0 {
		return nil, fmt.Errorf("graph: implausible binary header (n=%d, arcs=%d)", n, m)
	}
	// Arrays are read in bounded chunks so a hostile header cannot force a
	// huge allocation before the (short) stream runs out.
	g := &CSR{}
	var err error
	if g.offsets, err = readInt64s(br, n+1); err != nil {
		return nil, fmt.Errorf("graph: reading offsets: %w", err)
	}
	if g.neighbors, err = readInt32s(br, m); err != nil {
		return nil, fmt.Errorf("graph: reading neighbors: %w", err)
	}
	if g.weights, err = readFloat32s(br, m); err != nil {
		return nil, fmt.Errorf("graph: reading weights: %w", err)
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("graph: binary payload invalid: %w", err)
	}
	g.finalize()
	return g, nil
}

// readChunkLimit bounds per-read allocations while deserializing.
const readChunkLimit = 1 << 20

func readInt64s(r io.Reader, count uint64) ([]int64, error) {
	var out []int64
	for count > 0 {
		c := count
		if c > readChunkLimit {
			c = readChunkLimit
		}
		chunk := make([]int64, c)
		if err := binary.Read(r, binary.LittleEndian, chunk); err != nil {
			return nil, err
		}
		out = append(out, chunk...)
		count -= c
	}
	return out, nil
}

func readInt32s(r io.Reader, count uint64) ([]int32, error) {
	var out []int32
	for count > 0 {
		c := count
		if c > readChunkLimit {
			c = readChunkLimit
		}
		chunk := make([]int32, c)
		if err := binary.Read(r, binary.LittleEndian, chunk); err != nil {
			return nil, err
		}
		out = append(out, chunk...)
		count -= c
	}
	return out, nil
}

func readFloat32s(r io.Reader, count uint64) ([]float32, error) {
	var out []float32
	for count > 0 {
		c := count
		if c > readChunkLimit {
			c = readChunkLimit
		}
		chunk := make([]float32, c)
		if err := binary.Read(r, binary.LittleEndian, chunk); err != nil {
			return nil, err
		}
		out = append(out, chunk...)
		count -= c
	}
	return out, nil
}
