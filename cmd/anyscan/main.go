// Command anyscan clusters a graph with the anytime parallel anySCAN
// algorithm (or one of the exact batch baselines).
//
// Batch mode clusters a graph file and writes "vertex label role" lines:
//
//	anyscan -input graph.txt -mu 5 -eps 0.5 -o clusters.txt
//	anyscan -input graph.metis -algorithm pscan
//
// Interactive mode demonstrates the paper's suspend/inspect/resume scheme:
// the run pauses after every progress report and accepts commands on stdin
// ("c" continue, "s" snapshot summary, "q" stop with the best-so-far
// result):
//
//	anyscan -input graph.txt -interactive
//
// Sweep mode explores several ε values from a single similarity pass:
//
//	anyscan -input graph.txt -sweep 0.2,0.3,0.4,0.5,0.6
//
// Without -input, a synthetic dataset stand-in can be clustered directly:
//
//	anyscan -dataset GR01L -eps 0.6
//
// Long runs survive interruption: SIGINT/SIGTERM stops the run at a
// consistent point (even inside a block), writes an atomic checkpoint when
// -checkpoint is set, and reports the best-so-far clustering;
// -checkpoint-interval additionally checkpoints periodically:
//
//	anyscan -input big.bin -checkpoint run.ckpt -checkpoint-interval 30s
//	anyscan -input big.bin -resume run.ckpt
//
// Input formats by extension: .metis/.graph (METIS), .bin (binary
// container), .csrz (compressed container, see "anyscan graph convert"),
// anything else (whitespace edge list, '#' comments).
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"anyscan"
	"anyscan/internal/core"
	"anyscan/internal/datasets"
	"anyscan/internal/frame"
	igraph "anyscan/internal/graph"
)

func main() {
	// "anyscan remote <verb>" talks to a running anyscand service instead of
	// clustering locally (see remote.go); "anyscan index <verb>" builds and
	// queries persisted (μ, ε) query indexes (see index.go).
	if len(os.Args) > 1 && os.Args[1] == "remote" {
		remoteMain(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "index" {
		indexMain(os.Args[2:])
		return
	}
	// "anyscan graph <verb>" converts and inspects graph storage formats,
	// including the compressed .csrz container (see graph.go).
	if len(os.Args) > 1 && os.Args[1] == "graph" {
		graphMain(os.Args[2:])
		return
	}
	input := flag.String("input", "", "graph file to cluster (.metis/.graph, .bin, or edge list)")
	dataset := flag.String("dataset", "", "synthetic dataset stand-in to cluster instead of -input (e.g. GR01L)")
	scale := flag.Float64("scale", 0.5, "scale factor for -dataset")
	algorithm := flag.String("algorithm", "anyscan", "anyscan | scan | scanb | scanpp | pscan | parallel | overlap")
	mu := flag.Int("mu", 5, "μ: minimum ε-neighborhood size for cores")
	eps := flag.Float64("eps", 0.5, "ε: structural similarity threshold")
	alpha := flag.Int("alpha", 0, "Step-1 block size α (0 = max(128, |V|/128))")
	beta := flag.Int("beta", 0, "Step-2/3 block size β (0 = like alpha)")
	threads := flag.Int("threads", 0, "worker count (0 = GOMAXPROCS)")
	relabel := flag.Bool("relabel", false, "renumber vertices in degree-descending order before clustering (better locality on skewed graphs; output keeps the original ids)")
	interactive := flag.Bool("interactive", false, "pause for commands between progress reports (anyscan only)")
	every := flag.Int("every", 4, "iterations between progress reports")
	sweepList := flag.String("sweep", "", "comma-separated ε values to explore from one similarity pass")
	output := flag.String("o", "", "write 'vertex label role' lines to this file")
	checkpoint := flag.String("checkpoint", "", "write resumable checkpoints here (atomic temp+fsync+rename; used on quit, on SIGINT/SIGTERM, and by -checkpoint-interval)")
	checkpointInterval := flag.Duration("checkpoint-interval", 0, "auto-checkpoint to -checkpoint every interval (e.g. 30s; 0 disables)")
	resume := flag.String("resume", "", "resume an anyscan run from this checkpoint file")
	flag.Parse()

	if *checkpointInterval < 0 {
		fatal(fmt.Errorf("-checkpoint-interval must be >= 0, got %v", *checkpointInterval))
	}
	if *checkpointInterval > 0 && *checkpoint == "" {
		fatal(fmt.Errorf("-checkpoint-interval requires -checkpoint PATH"))
	}

	// Install the SIGINT/SIGTERM handler before the (potentially long) graph
	// load, so a signal at any point in the process lifetime interrupts
	// gracefully: a run in progress stops at a consistent point (StepCtx
	// notices the cancellation even inside a block), the state is
	// checkpointed when -checkpoint is set, and the best-so-far clustering
	// is reported. A second signal kills the process the default way
	// (runAnySCAN deregisters the handler on the first one).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	g, ids, err := load(*input, *dataset, *scale)
	if err != nil {
		fatal(err)
	}
	if *relabel {
		// Cluster the degree-relabeled copy but keep reporting in the input's
		// ids: external id of new vertex perm[old] is the old vertex's id.
		var perm []int32
		g, perm = anyscan.RelabelByDegree(g)
		remapped := make([]int64, len(perm))
		for old, newV := range perm {
			id := int64(old)
			if ids != nil {
				id = ids[old]
			}
			remapped[newV] = id
		}
		ids = remapped
	}
	s := anyscan.ComputeStats(g)
	fmt.Printf("graph: %d vertices, %d edges, d̄=%.2f, c=%.4f\n", s.Vertices, s.Edges, s.AvgDegree, s.AvgCC)

	if *sweepList != "" {
		if err := runSweep(g, *mu, *threads, *sweepList); err != nil {
			fatal(err)
		}
		return
	}

	var res *anyscan.Result
	switch *algorithm {
	case "anyscan":
		res = runAnySCAN(ctx, stop, g, anyCfg{
			mu: *mu, eps: *eps, alpha: *alpha, beta: *beta, threads: *threads,
			interactive: *interactive, every: *every,
			checkpoint: *checkpoint, checkpointEvery: *checkpointInterval,
			resume: *resume,
		})
	case "overlap":
		runOverlap(g, *mu, *eps)
		return
	default:
		algo, err := anyscan.ParseAlgorithm(*algorithm)
		if err != nil {
			fatal(fmt.Errorf("unknown -algorithm %q", *algorithm))
		}
		res = runBatch(algo, g, anyscan.Query{Mu: *mu, Eps: *eps, Threads: *threads})
	}

	if *output != "" {
		if err := writeResult(*output, res, ids); err != nil {
			fatal(err)
		}
		fmt.Println("wrote", *output)
	}
}

type anyCfg struct {
	mu                 int
	eps                float64
	alpha, beta        int
	threads            int
	interactive        bool
	every              int
	checkpoint, resume string
	checkpointEvery    time.Duration
}

func runAnySCAN(ctx context.Context, stop context.CancelFunc, g *anyscan.Graph, cfg anyCfg) *anyscan.Result {
	var c *anyscan.Clusterer
	if cfg.resume != "" {
		var err error
		c, err = anyscan.LoadCheckpointFile(g, cfg.resume)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("resumed from %s at phase %s (iteration %d)\n", cfg.resume, c.Phase(), c.Progress().Iterations)
	} else {
		opts := anyscan.DefaultOptions()
		opts.Mu, opts.Eps = cfg.mu, cfg.eps
		alpha, beta := cfg.alpha, cfg.beta
		if alpha <= 0 {
			alpha = core.AutoBlock(g.NumVertices())
		}
		if beta <= 0 {
			beta = alpha
		}
		opts.Alpha, opts.Beta = alpha, beta
		if cfg.threads > 0 {
			opts.Threads = cfg.threads
		}
		var err error
		c, err = anyscan.New(g, opts)
		if err != nil {
			fatal(err)
		}
	}
	interactive, every := cfg.interactive, cfg.every

	stdin := bufio.NewScanner(os.Stdin)
	start := time.Now()
	lastCkpt := start
	iter := 0
	for {
		more, err := c.StepCtx(ctx)
		if err != nil {
			stop()
			fmt.Println("\ninterrupted; reporting the best-so-far clustering")
			writeCheckpointIfConfigured(c, cfg.checkpoint)
			break
		}
		if !more {
			break
		}
		iter++
		if cfg.checkpointEvery > 0 && time.Since(lastCkpt) >= cfg.checkpointEvery {
			if err := c.SaveCheckpointFile(cfg.checkpoint); err != nil {
				fatal(err)
			}
			lastCkpt = time.Now()
			fmt.Printf("[%7.2fs] auto-checkpoint written to %s\n", time.Since(start).Seconds(), cfg.checkpoint)
		}
		if iter%every != 0 {
			continue
		}
		p := c.Progress()
		fmt.Printf("[%7.2fs] %s\n", time.Since(start).Seconds(), formatProgress(p))
		if interactive && !prompt(c, stdin) {
			fmt.Println("stopped early; reporting the best-so-far clustering")
			writeCheckpointIfConfigured(c, cfg.checkpoint)
			break
		}
	}
	res := c.Snapshot()
	m := c.Metrics()
	counts := res.RoleCounts()
	fmt.Printf("done in %v (algorithm time %v, %d iterations)\n",
		time.Since(start).Round(time.Millisecond), m.Elapsed.Round(time.Millisecond), m.Iterations)
	fmt.Printf("clusters=%d cores=%d borders=%d hubs=%d outliers=%d unclassified=%d\n",
		res.NumClusters, counts.Cores, counts.Borders, counts.Hubs, counts.Outliers, counts.Unclassified)
	fmt.Printf("work: %d similarity evals (+%d pruned), %d unions, %d super-nodes\n",
		m.Sim.Sims, m.Sim.Pruned, m.Unions(), m.SuperNodes)
	return res
}

func writeCheckpointIfConfigured(c *anyscan.Clusterer, path string) {
	if path == "" {
		return
	}
	if err := c.SaveCheckpointFile(path); err != nil {
		fatal(err)
	}
	fmt.Printf("checkpoint written to %s (resume with -resume %s)\n", path, path)
}

func runBatch(algo anyscan.Algorithm, g *anyscan.Graph, q anyscan.Query) *anyscan.Result {
	res, m, err := anyscan.Batch(g, algo, q)
	if err != nil {
		fatal(err)
	}
	counts := res.RoleCounts()
	fmt.Printf("%s done in %v\n", algo, m.Elapsed.Round(time.Millisecond))
	fmt.Printf("clusters=%d cores=%d borders=%d hubs=%d outliers=%d\n",
		res.NumClusters, counts.Cores, counts.Borders, counts.Hubs, counts.Outliers)
	fmt.Printf("work: %d similarity evals (+%d pruned, %d shared)\n",
		m.Sim.Sims, m.Sim.Pruned, m.Sim.Shared)
	return res
}

func runOverlap(g *anyscan.Graph, mu int, eps float64) {
	start := time.Now()
	ov, err := anyscan.OverlappingCommunities(g, anyscan.OverlapOptions{Mu: mu, Eps: eps})
	if err != nil {
		fatal(err)
	}
	hist := map[int]int{}
	maxDeg := 0
	for v := int32(0); v < int32(g.NumVertices()); v++ {
		d := ov.OverlapDegree(v)
		hist[d]++
		if d > maxDeg {
			maxDeg = d
		}
	}
	fmt.Printf("link-space clustering done in %v: %d overlapping communities\n",
		time.Since(start).Round(time.Millisecond), ov.NumCommunities)
	for d := 0; d <= maxDeg; d++ {
		if hist[d] > 0 {
			fmt.Printf("  in %d communities: %d vertices\n", d, hist[d])
		}
	}
}

func runSweep(g *anyscan.Graph, mu, threads int, list string) error {
	var epsValues []float64
	for _, part := range strings.Split(list, ",") {
		e, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return fmt.Errorf("bad -sweep entry %q: %w", part, err)
		}
		epsValues = append(epsValues, e)
	}
	start := time.Now()
	ex, err := anyscan.NewExplorer(g, mu, threads)
	if err != nil {
		return err
	}
	fmt.Printf("explorer built in %v (one σ per edge)\n", time.Since(start).Round(time.Millisecond))
	fmt.Println("     ε  clusters    cores  borders     hubs  outliers")
	for _, p := range ex.SweepProfile(epsValues) {
		fmt.Printf("  %.3f  %8d  %7d  %7d  %7d  %8d\n",
			p.Eps, p.Clusters, p.Counts.Cores, p.Counts.Borders, p.Counts.Hubs, p.Counts.Outliers)
	}
	return nil
}

// formatProgress renders one anytime progress report from the read-only
// core.Progress snapshot (shared with the anyscand job-status endpoint).
func formatProgress(p anyscan.Progress) string {
	return fmt.Sprintf("iter=%d phase=%s super-nodes=%d touched=%d/%d σ-evals=%d",
		p.Iterations, p.Phase, p.SuperNodes, p.Touched, p.Vertices, p.Sims)
}

// prompt handles one interactive pause; returns false to stop the run.
func prompt(c *anyscan.Clusterer, stdin *bufio.Scanner) bool {
	for {
		fmt.Print("anyscan> [c]ontinue  [s]napshot  [q]uit: ")
		if !stdin.Scan() {
			return true // EOF: just keep running to completion
		}
		switch stdin.Text() {
		case "", "c":
			return true
		case "s":
			snap := c.Snapshot()
			counts := snap.RoleCounts()
			fmt.Printf("  best-so-far: clusters=%d cores=%d borders=%d noise=%d unclassified=%d\n",
				snap.NumClusters, counts.Cores, counts.Borders, counts.Noise(), counts.Unclassified)
		case "q":
			return false
		default:
			fmt.Println("  commands: c (continue), s (snapshot), q (quit)")
		}
	}
}

func load(input, dataset string, scale float64) (*anyscan.Graph, []int64, error) {
	switch {
	case input != "" && dataset != "":
		return nil, nil, fmt.Errorf("use either -input or -dataset, not both")
	case input != "":
		return igraph.LoadFile(input)
	case dataset != "":
		g, err := datasets.Load(dataset, scale)
		return g, nil, err
	default:
		return nil, nil, fmt.Errorf("need -input FILE or -dataset NAME (known: %v)", datasets.Names())
	}
}

func writeResult(path string, res *anyscan.Result, ids []int64) error {
	return frame.Publish(path, "result", func(w io.Writer) error {
		fmt.Fprintln(w, "# vertex cluster role")
		for v := 0; v < res.N(); v++ {
			id := int64(v)
			if ids != nil {
				id = ids[v]
			}
			fmt.Fprintf(w, "%d %d %s\n", id, res.Labels[v], res.Roles[v])
		}
		return nil
	})
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "anyscan:", err)
	os.Exit(1)
}
