// Command benchrunner regenerates the tables and figures of the paper's
// evaluation (Section IV) on the scaled-down synthetic dataset stand-ins.
//
// Usage:
//
//	benchrunner [flags] <experiment>...
//	benchrunner -list
//	benchrunner all
//
// Experiments: table1 table2 fig5 fig6 fig7 fig8 fig9 fig10 fig11 fig12
// fig13 fig14 (see DESIGN.md for the experiment index).
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"anyscan/internal/bench"
	"anyscan/internal/datasets"
	"anyscan/internal/frame"
)

func main() {
	cfg := bench.DefaultConfig(os.Stdout)
	scale := flag.Float64("scale", cfg.Scale, "dataset scale factor (1.0 = default reduced scale)")
	threads := flag.String("threads", "1,2,4,8,16", "comma-separated thread counts for scalability experiments")
	mu := flag.Int("mu", cfg.Mu, "μ: minimum ε-neighborhood size for cores")
	eps := flag.Float64("eps", cfg.Eps, "ε: structural similarity threshold")
	alpha := flag.Int("alpha", cfg.Alpha, "anySCAN Step-1 block size α")
	beta := flag.Int("beta", cfg.Beta, "anySCAN Step-2/3 block size β")
	relabel := flag.Bool("relabel", false, "renumber datasets in degree-descending order before measuring")
	list := flag.Bool("list", false, "list experiments and exit")
	jsonOut := flag.Bool("json", false, "also write a machine-readable BENCH_<date>.json (dataset × algorithm × threads: wall time, σ evaluations; plus query-index build time and per-(μ,ε) query latencies)")
	jsonPath := flag.String("json-out", "", "path for the -json report (default BENCH_<date>.json)")
	jsonSets := flag.String("json-datasets", "", "comma-separated datasets for the -json report (default: the Table I stand-ins)")
	format := flag.String("format", "csr", "graph storage backend for the -json index rows: csr | compressed")
	approxDeltas := flag.String("approx-deltas", "0.01", "comma-separated accuracy dials δ for the -json approx rows (empty = skip)")
	approxGate := flag.Float64("approx-gate", 0, "fail the run when any approx-query row's ARI against the exact answer is below this (0 = no gate)")
	goBench := flag.String("gobench", "", "also render the -json report in `go test -bench` format to this path (benchstat-compatible)")
	compare := flag.Bool("compare", false, "compare two BENCH_*.json reports: benchrunner -compare old.json new.json")
	failOnMissing := flag.Bool("fail-on-missing", false, "-compare: exit non-zero when a baseline cell has no counterpart in the new report (coverage regressions; timing deltas stay informational)")
	flag.Parse()

	if *compare {
		args := flag.Args()
		if len(args) != 2 {
			fmt.Fprintln(os.Stderr, "benchrunner: -compare needs exactly two report paths: old.json new.json")
			os.Exit(2)
		}
		oldRep, err := bench.LoadReport(args[0])
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchrunner:", err)
			os.Exit(1)
		}
		newRep, err := bench.LoadReport(args[1])
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchrunner:", err)
			os.Exit(1)
		}
		if err := bench.WriteComparison(os.Stdout, oldRep, newRep); err != nil {
			fmt.Fprintln(os.Stderr, "benchrunner:", err)
			os.Exit(1)
		}
		if *failOnMissing {
			_, onlyOld, _ := bench.CompareReports(oldRep, newRep)
			if len(onlyOld) > 0 {
				fmt.Fprintf(os.Stderr, "benchrunner: %d baseline cell(s) missing from the new report (coverage regression)\n", len(onlyOld))
				os.Exit(1)
			}
		}
		return
	}

	if *list {
		for _, e := range bench.Experiments() {
			fmt.Printf("  %-8s %s\n", e.Name, e.Title)
		}
		return
	}

	cfg.Scale, cfg.Mu, cfg.Eps, cfg.Alpha, cfg.Beta = *scale, *mu, *eps, *alpha, *beta
	cfg.Relabel = *relabel
	switch *format {
	case "", bench.FormatCSR, bench.FormatCompressed:
		cfg.Format = *format
	default:
		fmt.Fprintf(os.Stderr, "benchrunner: unknown -format %q (have csr, compressed)\n", *format)
		os.Exit(2)
	}
	cfg.Threads = cfg.Threads[:0]
	for _, part := range strings.Split(*threads, ",") {
		t, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || t < 1 {
			fmt.Fprintf(os.Stderr, "benchrunner: bad -threads entry %q\n", part)
			os.Exit(2)
		}
		cfg.Threads = append(cfg.Threads, t)
	}
	for _, part := range strings.Split(*approxDeltas, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		d, err := strconv.ParseFloat(part, 64)
		if err != nil || d < 0 || d >= 1 {
			fmt.Fprintf(os.Stderr, "benchrunner: bad -approx-deltas entry %q (want δ in [0,1))\n", part)
			os.Exit(2)
		}
		if d > 0 {
			cfg.ApproxDeltas = append(cfg.ApproxDeltas, d)
		}
	}

	names := flag.Args()
	if (*jsonOut || *goBench != "") && len(names) == 0 {
		// -json/-gobench alone: emit the machine-readable report without
		// re-running the text experiments.
		writeJSONReport(cfg, *jsonSets, *jsonPath, *goBench, *jsonOut, *approxGate)
		return
	}
	if len(names) == 0 {
		fmt.Fprintln(os.Stderr, "benchrunner: name experiments to run, or 'all' (-list to enumerate)")
		os.Exit(2)
	}
	if len(names) == 1 && names[0] == "all" {
		names = names[:0]
		for _, e := range bench.Experiments() {
			names = append(names, e.Name)
		}
	}
	for _, name := range names {
		exp, err := bench.Lookup(name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchrunner:", err)
			os.Exit(2)
		}
		if err := exp.Run(cfg); err != nil {
			fmt.Fprintf(os.Stderr, "benchrunner: %s: %v\n", name, err)
			os.Exit(1)
		}
	}
	if *jsonOut || *goBench != "" {
		writeJSONReport(cfg, *jsonSets, *jsonPath, *goBench, *jsonOut, *approxGate)
	}
}

// writeJSONReport measures the -json dataset set and writes the
// machine-readable report (and/or its go-bench rendering) alongside the
// text output, applying the -approx-gate accuracy floor if one is set.
func writeJSONReport(cfg bench.Config, datasetCSV, path, goBenchPath string, writeJSON bool, approxGate float64) {
	names := datasets.RealNames()
	if datasetCSV != "" {
		names = names[:0]
		for _, part := range strings.Split(datasetCSV, ",") {
			names = append(names, strings.TrimSpace(part))
		}
	}
	rep, err := bench.CollectRecords(cfg, names)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchrunner:", err)
		os.Exit(1)
	}
	if approxGate > 0 {
		checked := 0
		failed := 0
		for _, r := range rep.Records {
			if r.Algorithm != "approx-query" {
				continue
			}
			checked++
			if r.ARI < approxGate {
				failed++
				fmt.Fprintf(os.Stderr, "benchrunner: approx-gate: %s δ=%g (μ=%d, ε=%g): ARI %.4f < %.4f\n",
					r.Dataset, r.Delta, r.Mu, r.Eps, r.ARI, approxGate)
			}
		}
		if checked == 0 {
			fmt.Fprintln(os.Stderr, "benchrunner: approx-gate set but the report has no approx-query rows (check -approx-deltas)")
			os.Exit(1)
		}
		if failed > 0 {
			fmt.Fprintf(os.Stderr, "benchrunner: approx-gate: %d of %d approx-query cells below ARI %.4f\n", failed, checked, approxGate)
			os.Exit(1)
		}
		fmt.Fprintf(cfg.Out, "approx-gate: %d approx-query cells all at ARI >= %.4f\n", checked, approxGate)
	}
	if writeJSON {
		if path == "" {
			path = rep.DefaultJSONPath()
		}
		if err := rep.WriteJSON(path); err != nil {
			fmt.Fprintln(os.Stderr, "benchrunner:", err)
			os.Exit(1)
		}
		fmt.Fprintf(cfg.Out, "\nwrote %s (%d records)\n", path, len(rep.Records))
	}
	if goBenchPath != "" {
		if err := frame.Publish(goBenchPath, "go-bench report", rep.WriteGoBench); err != nil {
			fmt.Fprintln(os.Stderr, "benchrunner:", err)
			os.Exit(1)
		}
		fmt.Fprintf(cfg.Out, "wrote %s (go-bench format)\n", goBenchPath)
	}
}
