package main

import (
	"flag"
	"fmt"
	"path/filepath"
	"strings"
	"time"

	"anyscan"
	"anyscan/internal/frame"
	igraph "anyscan/internal/graph"
)

// graphMain implements "anyscan graph <verb>": storage-backend tooling for
// graph files.
//
//	anyscan graph convert -input graph.txt -o graph.csrz
//	anyscan graph convert -input graph.csrz -o graph.bin
//	anyscan graph info -input graph.csrz
//
// "convert" rewrites a graph between the storage formats this repository
// reads (edge list, METIS, .bin binary container, .csrz compressed
// container), choosing each format from the file extension. A written .csrz
// is reopened and fully validated (CRC plus an exhaustive decode of every
// neighbor list) before convert reports success, so a corrupt or
// misconverted file is never left looking usable.
func graphMain(args []string) {
	if len(args) < 1 {
		fatal(fmt.Errorf("usage: anyscan graph <convert|info> [flags]"))
	}
	verb, rest := args[0], args[1:]
	switch verb {
	case "convert":
		graphConvert(rest)
	case "info":
		graphInfo(rest)
	default:
		fatal(fmt.Errorf("unknown graph verb %q (have convert, info)", verb))
	}
}

func graphConvert(args []string) {
	fs := flag.NewFlagSet("graph convert", flag.ExitOnError)
	input := fs.String("input", "", "source graph (.metis/.graph, .bin, .csrz, or edge list)")
	output := fs.String("o", "", "destination; format chosen by extension (.csrz, .bin, .metis/.graph, else edge list)")
	fs.Parse(args)
	if *input == "" || *output == "" {
		fatal(fmt.Errorf("graph convert needs -input FILE and -o FILE"))
	}
	start := time.Now()
	// Load flat: a .csrz input is decompressed here, every other format is
	// parsed; conversion always goes through the canonical CSR.
	g, _, err := igraph.LoadFile(*input)
	if err != nil {
		fatal(err)
	}
	loadTime := time.Since(start)

	start = time.Now()
	write := g.WriteEdgeList
	switch strings.ToLower(filepath.Ext(*output)) {
	case ".csrz":
		c := anyscan.CompressGraph(g)
		if err := c.WriteCompressedFile(*output); err != nil {
			fatal(err)
		}
		// Reopen what was just written and decode every neighbor list: a
		// convert must never leave a .csrz behind that later fails to serve.
		chk, err := igraph.OpenCompressedFile(*output, igraph.CompressedOpenOptions{
			VerifyCRC: true, ValidateFull: true,
		})
		if err != nil {
			fatal(fmt.Errorf("validating %s: %w", *output, err))
		}
		if got, want := igraph.FingerprintOf(chk), igraph.FingerprintOf(g); got != want {
			fatal(fmt.Errorf("validating %s: content fingerprint mismatch after round-trip", *output))
		}
		chk.Close()
		raw := g.Bytes()
		fmt.Printf("converted in %v (load %v): %d vertices, %d edges, %s -> %s (%.1f%% of flat CSR), validated\n",
			time.Since(start).Round(time.Millisecond), loadTime.Round(time.Millisecond),
			g.NumVertices(), g.NumEdges(), byteCount(raw), byteCount(c.Bytes()),
			100*float64(c.Bytes())/float64(raw))
		return
	case ".bin":
		write = g.WriteBinary
	case ".metis", ".graph":
		write = g.WriteMETIS
	}
	if err := frame.Publish(*output, "graph", write); err != nil {
		fatal(err)
	}
	fmt.Printf("converted in %v (load %v): %d vertices, %d edges -> %s\n",
		time.Since(start).Round(time.Millisecond), loadTime.Round(time.Millisecond),
		g.NumVertices(), g.NumEdges(), *output)
}

func graphInfo(args []string) {
	fs := flag.NewFlagSet("graph info", flag.ExitOnError)
	input := fs.String("input", "", "graph file (.metis/.graph, .bin, .csrz, or edge list)")
	fs.Parse(args)
	if *input == "" {
		fatal(fmt.Errorf("graph info needs -input FILE"))
	}
	g, _, err := anyscan.LoadGraph(*input)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("backend:  %T\n", g)
	fmt.Printf("vertices: %d\n", g.NumVertices())
	fmt.Printf("edges:    %d\n", g.NumEdges())
	if g.NumVertices() > 0 {
		fmt.Printf("avg deg:  %.2f\n", float64(2*g.NumEdges())/float64(g.NumVertices()))
	}
	if s, ok := g.(interface {
		Bytes() int64
		ResidentBytes() int64
	}); ok {
		fmt.Printf("bytes:    %s (%s resident)\n", byteCount(s.Bytes()), byteCount(s.ResidentBytes()))
	}
}

func byteCount(b int64) string {
	const unit = 1024
	if b < unit {
		return fmt.Sprintf("%d B", b)
	}
	div, exp := int64(unit), 0
	for n := b / unit; n >= unit; n /= unit {
		div *= unit
		exp++
	}
	return fmt.Sprintf("%.1f %ciB", float64(b)/float64(div), "KMGT"[exp])
}
