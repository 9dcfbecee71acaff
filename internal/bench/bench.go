// Package bench is the experiment harness that regenerates every table and
// figure of the paper's evaluation (Section IV) on the scaled-down dataset
// stand-ins. Each experiment prints the same rows/series the paper plots;
// cmd/benchrunner dispatches them and bench_test.go wraps them in testing.B
// benchmarks. Absolute numbers differ from the paper (different hardware,
// reduced scale); the comparisons — who wins, by what factor, where the
// crossovers sit — are what these runs reproduce.
package bench

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"text/tabwriter"
	"time"

	"anyscan/internal/cluster"
	"anyscan/internal/core"
	"anyscan/internal/datasets"
	"anyscan/internal/graph"
	"anyscan/internal/scan"
)

// Config controls experiment scale and output.
// Graph storage backends a report can be collected on (Config.Format).
const (
	FormatCSR        = "csr"
	FormatCompressed = "compressed"
)

type Config struct {
	// Scale multiplies the default (already reduced) dataset sizes.
	Scale float64
	// Threads lists the worker counts used by the scalability experiments.
	Threads []int
	// Mu and Eps are the default clustering parameters (paper: 5 and 0.5).
	Mu  int
	Eps float64
	// Alpha and Beta are the anySCAN block sizes. 0 means automatic:
	// max(128, |V|/128), which matches the paper's default (8192 on graphs
	// of 1M-5M vertices, i.e. well below 1% of |V|) at the reduced scales.
	Alpha, Beta int
	// Relabel renumbers every loaded dataset in degree-descending order
	// before measuring (graph.RelabelByDegree) — the CSR layout the
	// degree-adaptive kernels like best on skewed graphs.
	Relabel bool
	// Format selects the graph storage backend the query-index rows of the
	// machine-readable report are measured on: "" or "csr" for the flat CSR,
	// "compressed" for the varint-compressed backend. Batch and anySCAN rows
	// always run on the flat CSR.
	Format string
	// ApproxDeltas lists the accuracy dials δ measured by the approximate-σ
	// rows of the machine-readable report (approx-build / approx-query);
	// empty disables them.
	ApproxDeltas []float64
	// Out receives the experiment report.
	Out io.Writer
}

// DefaultConfig returns the configuration used by cmd/benchrunner.
func DefaultConfig(out io.Writer) Config {
	return Config{
		Scale:   0.5,
		Threads: []int{1, 2, 4, 8, 16},
		Mu:      5,
		Eps:     0.5,
		Out:     out,
	}
}

// Experiment is a named, runnable reproduction of one table or figure.
type Experiment struct {
	Name  string
	Title string
	Run   func(cfg Config) error
}

// Experiments returns all experiments in paper order.
func Experiments() []Experiment {
	return []Experiment{
		{"table1", "Table I: real-graph stand-in inventory", RunTable1},
		{"table2", "Table II: LFR synthetic graph inventory", RunTable2},
		{"fig5", "Fig 5: anytime NMI/runtime vs batch algorithms", RunFig5},
		{"fig6", "Fig 6: final runtimes vs ε and μ", RunFig6},
		{"fig7", "Fig 7: similarity evaluations and vertex roles", RunFig7},
		{"fig8", "Fig 8: parameter and block-size effects (GR01L)", RunFig8},
		{"fig9", "Fig 9: pSCAN vs anySCAN on synthetic graphs", RunFig9},
		{"fig10", "Fig 10: anytime cumulative runtimes and final speedups per thread count", RunFig10},
		{"fig11", "Fig 11: anySCAN vs ideal parallel algorithm", RunFig11},
		{"fig12", "Fig 12: Union operation counts", RunFig12},
		{"fig13", "Fig 13: scalability vs μ, ε and block size (GR01L)", RunFig13},
		{"fig14", "Fig 14: scalability on synthetic graphs", RunFig14},
		{"ablation", "Ablation: contribution of each anySCAN design choice", RunAblation},
		{"approx", "Approximation: sampling (LinkSCAN*-style) vs anytime early stopping", RunApprox},
		{"approxdial", "Approximate σ: MinHash sketch dial, accuracy vs build speedup", RunApproxDial},
		{"mapreduce", "MapReduce PSCAN vs shared-memory algorithms (the Section V argument)", RunMapReduce},
	}
}

// Lookup returns the experiment with the given name.
func Lookup(name string) (Experiment, error) {
	for _, e := range Experiments() {
		if e.Name == name {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("bench: unknown experiment %q", name)
}

// batchAlgo identifies one exact batch competitor.
type batchAlgo struct {
	name string
	run  func(g *graph.CSR, mu int, eps float64) (*cluster.Result, scan.Metrics)
}

func batchAlgos() []batchAlgo {
	return []batchAlgo{
		{"SCAN", func(g *graph.CSR, mu int, eps float64) (*cluster.Result, scan.Metrics) {
			return scan.SCAN(g, mu, eps)
		}},
		{"SCAN-B", func(g *graph.CSR, mu int, eps float64) (*cluster.Result, scan.Metrics) {
			return scan.SCANB(g, mu, eps)
		}},
		{"SCAN++", scan.SCANPP},
		{"pSCAN", scan.PSCAN},
	}
}

// anyOpts builds anySCAN options from the config for a run on g. When the
// config does not pin the block sizes they default to max(128, |V|/128),
// the paper's relative default.
func (cfg Config) anyOpts(g *graph.CSR, threads int) core.Options {
	o := core.DefaultOptions()
	o.Mu, o.Eps = cfg.Mu, cfg.Eps
	o.Alpha, o.Beta = cfg.Alpha, cfg.Beta
	if o.Alpha <= 0 {
		o.Alpha = core.AutoBlock(g.NumVertices())
	}
	if o.Beta <= 0 {
		o.Beta = core.AutoBlock(g.NumVertices())
	}
	o.Threads = threads
	return o
}

func (cfg Config) load(name string) (*graph.CSR, error) {
	g, err := datasets.Load(name, cfg.Scale)
	if err != nil || !cfg.Relabel {
		return g, err
	}
	relabeled, _ := graph.RelabelByDegree(g)
	return relabeled, nil
}

// runAnySCAN executes anySCAN to completion and returns wall time + metrics.
func runAnySCAN(g *graph.CSR, o core.Options) (*cluster.Result, core.Metrics, time.Duration, error) {
	start := time.Now()
	res, m, err := core.Cluster(g, o)
	return res, m, time.Since(start), err
}

func header(w io.Writer, title string) {
	fmt.Fprintf(w, "\n=== %s ===\n", title)
	fmt.Fprintf(w, "(GOMAXPROCS=%d, NumCPU=%d — wall-clock speedups saturate at the physical core count)\n",
		runtime.GOMAXPROCS(0), runtime.NumCPU())
}

func newTab(w io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
}

func ms(d time.Duration) string {
	return fmt.Sprintf("%.1f", float64(d.Microseconds())/1000.0)
}

// sortedCopy returns a sorted copy of xs.
func sortedCopy(xs []int) []int {
	out := append([]int(nil), xs...)
	sort.Ints(out)
	return out
}
