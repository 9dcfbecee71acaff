package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"slices"
	"time"

	"anyscan/internal/frame"
	"anyscan/internal/graph"
	"anyscan/internal/index"
)

// Record is one benchmark measurement in the machine-readable report: one
// (dataset, algorithm, thread count) cell with its wall time and similarity
// work. Batch and anySCAN rows cluster at the report-level (μ, ε);
// "index-build" rows measure the one-off σ pass of the query index, and
// "index-query" rows carry their own per-record Mu/Eps with the latency of
// answering that query from the index (zero σ evaluations).
// "mutate-apply", "index-patch", and "index-rebuild" rows measure the live
// mutable-graph write path; their Batch field is the mutation-batch size the
// row was measured at. "local-query" rows measure seed-centered community
// expansion from the index: each carries its seed vertex, the size of the
// community it returned, and how many vertices the expansion touched — the
// evidence that local answers cost ≪ |V|.
type Record struct {
	Dataset   string  `json:"dataset"`
	Algorithm string  `json:"algorithm"`
	Threads   int     `json:"threads"`
	Mu        int     `json:"mu,omitempty"`    // index-query / local-query rows
	Eps       float64 `json:"eps,omitempty"`   // index-query / local-query rows
	Batch     int     `json:"batch,omitempty"` // live-mutation rows only
	// Seed, Community, and Touched are set on "local-query" rows only: the
	// seed vertex the expansion started from, the membership size it
	// returned, and the distinct vertices whose neighbor order it scanned.
	Seed      int32   `json:"seed,omitempty"`
	Community int     `json:"community,omitempty"`
	Touched   int     `json:"touched,omitempty"`
	WallMS    float64 `json:"wall_ms"`
	SimEvals  int64   `json:"sim_evals"`
	Clusters  int     `json:"clusters"`
	Vertices  int     `json:"vertices"`
	Edges     int64   `json:"edges"`
	// Bytes and Ratio are set on "compress-encode" rows only: the encoded
	// size of the compressed backend and its fraction of the flat CSR size.
	Bytes int64   `json:"bytes,omitempty"`
	Ratio float64 `json:"ratio,omitempty"`
	// Delta is set on "approx-build" and "approx-query" rows: the accuracy
	// dial δ the approximate index was built at.
	Delta float64 `json:"delta,omitempty"`
	// ARI and NMI are set on "approx-query" rows: agreement of the
	// approximate clustering with the exact index's answer at the same (μ, ε).
	ARI float64 `json:"ari,omitempty"`
	NMI float64 `json:"nmi,omitempty"`
	// Sketched is set on "approx-build" rows: edges whose σ came from MinHash
	// sketches rather than an exact evaluation (0 = whole build fell back).
	Sketched int64 `json:"sketched,omitempty"`
}

// Report is the top-level payload of BENCH_<date>.json.
type Report struct {
	Date       string  `json:"date"`
	Scale      float64 `json:"scale"`
	Mu         int     `json:"mu"`
	Eps        float64 `json:"eps"`
	GoMaxProcs int     `json:"gomaxprocs"`
	NumCPU     int     `json:"num_cpu"`
	// Format is the graph storage backend the index rows were measured on
	// ("" = flat CSR).
	Format  string   `json:"format,omitempty"`
	Records []Record `json:"records"`
}

// CollectRecords measures every batch baseline (single-threaded; they have
// no parallel mode) and anySCAN at each configured thread count, on each
// named dataset.
func CollectRecords(cfg Config, names []string) (Report, error) {
	rep := Report{
		Date:       time.Now().Format("2006-01-02"),
		Scale:      cfg.Scale,
		Mu:         cfg.Mu,
		Eps:        cfg.Eps,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Format:     cfg.Format,
	}
	for _, name := range names {
		g, err := cfg.load(name)
		if err != nil {
			return rep, err
		}
		recs, err := cfg.measureGraph(name, g)
		if err != nil {
			return rep, fmt.Errorf("%s: %w", name, err)
		}
		rep.Records = append(rep.Records, recs...)
	}
	return rep, nil
}

func (cfg Config) measureGraph(name string, g *graph.CSR) ([]Record, error) {
	var out []Record
	base := Record{Dataset: name, Vertices: g.NumVertices(), Edges: g.NumEdges()}
	for _, a := range batchAlgos() {
		rec := base
		rec.Algorithm = a.name
		rec.Threads = 1
		start := time.Now()
		res, m := a.run(g, cfg.Mu, cfg.Eps)
		rec.WallMS = float64(time.Since(start).Microseconds()) / 1000
		rec.SimEvals = m.Sim.Sims
		rec.Clusters = res.NumClusters
		out = append(out, rec)
	}
	for _, threads := range sortedCopy(cfg.Threads) {
		rec := base
		rec.Algorithm = "anySCAN"
		rec.Threads = threads
		res, m, wall, err := runAnySCAN(g, cfg.anyOpts(g, threads))
		if err != nil {
			return nil, err
		}
		rec.WallMS = float64(wall.Microseconds()) / 1000
		rec.SimEvals = m.Sim.Sims
		rec.Clusters = res.NumClusters
		out = append(out, rec)
	}
	// The encode row doubles as the backend for the index rows when the
	// report is collected with Format == "compressed": the same σ pass and
	// queries then run against the varint-compressed graph, making raw and
	// compressed reports directly comparable row-by-row.
	encStart := time.Now()
	cg := graph.Compress(g)
	enc := base
	enc.Algorithm = "compress-encode"
	enc.Threads = 1
	enc.WallMS = float64(time.Since(encStart).Microseconds()) / 1000
	enc.Bytes = cg.Bytes()
	enc.Ratio = float64(cg.Bytes()) / float64(g.Bytes())
	out = append(out, enc)

	var ig graph.Graph = g
	if cfg.Format == FormatCompressed {
		ig = cg
	}
	recs, x, err := cfg.measureIndex(base, ig)
	if err != nil {
		return nil, err
	}
	out = append(out, recs...)
	approx, err := cfg.measureApproxDial(base, ig, x)
	if err != nil {
		return nil, err
	}
	out = append(out, approx...)
	locals, err := cfg.measureLocal(base, x)
	if err != nil {
		return nil, err
	}
	out = append(out, locals...)
	live, err := cfg.measureLive(base, g, x)
	if err != nil {
		return nil, err
	}
	return append(out, live...), nil
}

// measureIndex records the one-off query-index build (the single σ pass)
// followed by per-query latencies over a small (μ, ε) grid — the interactive
// workload of the GS*-style index, where every query after the build costs
// zero similarity evaluations.
func (cfg Config) measureIndex(base Record, g graph.Graph) ([]Record, *index.Index, error) {
	threads := 1
	for _, t := range cfg.Threads {
		if t > threads {
			threads = t
		}
	}
	x := index.Build(g, threads)

	build := base
	build.Algorithm = "index-build"
	build.Threads = threads
	build.WallMS = float64(x.BuildTime().Microseconds()) / 1000
	build.SimEvals = x.SimEvals()
	out := []Record{build}

	for _, mu := range dedupInts([]int{2, cfg.Mu}) {
		for _, eps := range dedupFloats([]float64{0.3, cfg.Eps, 0.7}) {
			rec := base
			rec.Algorithm = "index-query"
			rec.Threads = threads
			rec.Mu, rec.Eps = mu, eps
			start := time.Now()
			res, err := x.Query(mu, eps)
			if err != nil {
				return nil, nil, err
			}
			rec.WallMS = float64(time.Since(start).Microseconds()) / 1000
			rec.Clusters = res.NumClusters
			out = append(out, rec)
		}
	}
	return out, x, nil
}

func dedupInts(xs []int) []int {
	out := xs[:0]
	for _, x := range xs {
		if len(out) == 0 || !slices.Contains(out, x) {
			out = append(out, x)
		}
	}
	return out
}

func dedupFloats(xs []float64) []float64 {
	out := xs[:0]
	for _, x := range xs {
		if len(out) == 0 || !slices.Contains(out, x) {
			out = append(out, x)
		}
	}
	return out
}

// WriteJSON writes the report to path ("BENCH_<date>.json" by convention)
// with stable indentation.
func (rep Report) WriteJSON(path string) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return frame.Publish(path, "bench report", func(w io.Writer) error {
		_, err := w.Write(append(data, '\n'))
		return err
	})
}

// DefaultJSONPath returns the conventional report file name for the date.
func (rep Report) DefaultJSONPath() string {
	return "BENCH_" + rep.Date + ".json"
}
