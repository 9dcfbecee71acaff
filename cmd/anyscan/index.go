package main

import (
	"flag"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"anyscan"
	"anyscan/internal/frame"
	igraph "anyscan/internal/graph"
)

// indexMain implements "anyscan index <verb>": build a persisted (μ, ε)
// query index for a graph, then answer exact clustering queries from it
// without re-evaluating a single similarity.
//
//	anyscan index build -input graph.txt -o graph.idx
//	anyscan index query -input graph.txt -index graph.idx -mu 5 -eps 0.5
//	anyscan index query -input graph.txt -mu 5 -eps 0.3,0.5,0.7
//	anyscan index local -input graph.txt -index graph.idx -vertex 42 -mu 5 -eps 0.5
//
// "query" without -index builds the index in memory first; with -index it
// loads the persisted one (verifying the graph fingerprint) and spends zero
// σ evaluations. "local" expands just the seed vertex's community in
// output-proportional time, with membership identical to the full query.
func indexMain(args []string) {
	if len(args) < 1 {
		fatal(fmt.Errorf("usage: anyscan index <build|query|local> [flags]"))
	}
	verb, rest := args[0], args[1:]
	switch verb {
	case "build":
		indexBuild(rest)
	case "query":
		indexQuery(rest)
	case "local":
		indexLocal(rest)
	default:
		fatal(fmt.Errorf("unknown index verb %q (have build, query, local)", verb))
	}
}

func indexBuild(args []string) {
	fs := flag.NewFlagSet("index build", flag.ExitOnError)
	input := fs.String("input", "", "graph file (.metis/.graph, .bin, or edge list)")
	output := fs.String("o", "", "write the index here (atomic temp+fsync+rename)")
	threads := fs.Int("threads", 0, "worker count (0 = GOMAXPROCS)")
	fs.Parse(args)
	if *input == "" || *output == "" {
		fatal(fmt.Errorf("index build needs -input FILE and -o FILE"))
	}
	g, _, err := igraph.LoadFile(*input)
	if err != nil {
		fatal(err)
	}
	x := buildIndex(g, *threads)
	if err := x.SaveFile(*output); err != nil {
		fatal(err)
	}
	fmt.Printf("written to %s\n", *output)
}

// buildIndex constructs an in-memory exact index and prints the one-line
// build report.
func buildIndex(g anyscan.GraphView, threads int) *anyscan.Index {
	x := anyscan.NewIndex(g, threads)
	fmt.Printf("index built in %v (%d σ evaluations, one per edge)\n",
		x.BuildTime().Round(time.Millisecond), x.SimEvals())
	return x
}

// indexLocal answers one seed-centered community query from a (built or
// loaded) index: the seed's role plus its community membership, visiting
// only the community and its fringe instead of clustering the whole graph.
func indexLocal(args []string) {
	fs := flag.NewFlagSet("index local", flag.ExitOnError)
	input := fs.String("input", "", "graph file (.metis/.graph, .bin, .csrz, or edge list)")
	indexPath := fs.String("index", "", "persisted index built with 'anyscan index build' (omit to build in memory)")
	vertex := fs.Int64("vertex", -1, "seed vertex id (original file id when the input renumbers)")
	mu := fs.Int("mu", 5, "μ: minimum ε-neighborhood size for cores")
	eps := fs.Float64("eps", 0.5, "ε: structural similarity threshold")
	threads := fs.Int("threads", 0, "worker count for building/loading (0 = GOMAXPROCS)")
	output := fs.String("o", "", "write 'vertex role' member lines here")
	fs.Parse(args)
	if *input == "" {
		fatal(fmt.Errorf("index local needs -input FILE"))
	}
	if *vertex < 0 {
		fatal(fmt.Errorf("index local needs -vertex ID (the seed vertex)"))
	}

	g, ids, err := igraph.LoadFile(*input)
	if err != nil {
		fatal(err)
	}
	// Edge-list inputs renumber vertices; map the user-supplied original id
	// onto the internal one so the seed means what the file said.
	seed := int64(-1)
	if ids == nil {
		seed = *vertex
	} else {
		for v, id := range ids {
			if id == *vertex {
				seed = int64(v)
				break
			}
		}
		if seed < 0 {
			fatal(fmt.Errorf("vertex %d not present in %s", *vertex, *input))
		}
	}

	var x *anyscan.Index
	if *indexPath != "" {
		x, err = anyscan.LoadIndexFile(g, *indexPath, *threads)
		if err != nil {
			fatal(err)
		}
	} else {
		x = buildIndex(g, *threads)
	}

	start := time.Now()
	res, err := anyscan.Local(g, x, int32(seed), *mu, *eps)
	if err != nil {
		fatal(err)
	}
	elapsed := time.Since(start)
	orig := func(v int32) int64 {
		if ids != nil {
			return ids[v]
		}
		return int64(v)
	}
	fmt.Printf("seed %d at (μ=%d, ε=%.3f): %s, community size %d, touched %d of %d vertices in %v\n",
		*vertex, *mu, *eps, res.Role, len(res.Members), res.Touched, g.NumVertices(),
		elapsed.Round(time.Microsecond))
	if len(res.Members) > 0 && *output == "" {
		fmt.Print("members:")
		for i, m := range res.Members {
			fmt.Printf(" %d(%s)", orig(m), res.Roles[i])
			if i == 49 && len(res.Members) > 50 {
				fmt.Printf(" ... (%d more)", len(res.Members)-50)
				break
			}
		}
		fmt.Println()
	}
	if *output != "" {
		err := frame.Publish(*output, "members", func(w io.Writer) error {
			fmt.Fprintln(w, "# vertex role")
			for i, m := range res.Members {
				fmt.Fprintf(w, "%d %s\n", orig(m), res.Roles[i])
			}
			return nil
		})
		if err != nil {
			fatal(err)
		}
		fmt.Println("wrote", *output)
	}
}

func indexQuery(args []string) {
	fs := flag.NewFlagSet("index query", flag.ExitOnError)
	input := fs.String("input", "", "graph file (.metis/.graph, .bin, or edge list)")
	indexPath := fs.String("index", "", "persisted index built with 'anyscan index build' (omit to build in memory)")
	mu := fs.Int("mu", 5, "μ: minimum ε-neighborhood size for cores")
	epsList := fs.String("eps", "0.5", "ε value, or comma-separated ε values for a profile")
	threads := fs.Int("threads", 0, "worker count for building/loading (0 = GOMAXPROCS)")
	output := fs.String("o", "", "write 'vertex label role' lines here (single ε only)")
	fs.Parse(args)
	if *input == "" {
		fatal(fmt.Errorf("index query needs -input FILE"))
	}
	var epsValues []float64
	for _, part := range strings.Split(*epsList, ",") {
		e, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			fatal(fmt.Errorf("bad -eps entry %q: %w", part, err))
		}
		epsValues = append(epsValues, e)
	}

	g, ids, err := igraph.LoadFile(*input)
	if err != nil {
		fatal(err)
	}
	var x *anyscan.Index
	if *indexPath != "" {
		start := time.Now()
		x, err = anyscan.LoadIndexFile(g, *indexPath, *threads)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("index loaded in %v (0 σ evaluations)\n", time.Since(start).Round(time.Millisecond))
	} else {
		x = buildIndex(g, *threads)
	}

	var last *anyscan.Result
	fmt.Println("  μ      ε  clusters    cores  borders     hubs  outliers   query")
	for _, eps := range epsValues {
		start := time.Now()
		res, err := x.Query(*mu, eps)
		if err != nil {
			fatal(err)
		}
		c := res.RoleCounts()
		fmt.Printf("%3d  %.3f  %8d  %7d  %7d  %7d  %8d  %6v\n",
			*mu, eps, res.NumClusters, c.Cores, c.Borders, c.Hubs, c.Outliers,
			time.Since(start).Round(time.Microsecond))
		last = res
	}
	if *output != "" {
		if len(epsValues) != 1 {
			fatal(fmt.Errorf("-o needs exactly one -eps value"))
		}
		if err := writeResult(*output, last, ids); err != nil {
			fatal(err)
		}
		fmt.Println("wrote", *output)
	}
}
