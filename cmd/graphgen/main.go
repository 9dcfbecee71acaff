// Command graphgen generates synthetic graphs — the dataset stand-ins and
// the raw generator families — and writes them as edge lists or the compact
// binary container.
//
// Usage:
//
//	graphgen -type lfr -n 20000 -avgdeg 50 -o lfr.txt
//	graphgen -type dataset -name GR01L -scale 0.5 -o gr01.bin
//	graphgen -type hk -n 10000 -m 8 -pt 0.7 -o hk.txt
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"anyscan"
	"anyscan/internal/datasets"
	"anyscan/internal/frame"
)

func main() {
	typ := flag.String("type", "", "generator: lfr | er | ba | hk | rmat | circles | planted | dataset")
	n := flag.Int("n", 10000, "vertices")
	m := flag.Int64("m", 0, "edges (er, rmat) or edges-per-vertex (ba, hk)")
	avgdeg := flag.Float64("avgdeg", 30, "average degree (lfr)")
	mixing := flag.Float64("mixing", 0.2, "community mixing μ_mix (lfr)")
	pt := flag.Float64("pt", 0.5, "triad formation probability (hk)")
	k := flag.Int("k", 8, "communities (planted)")
	pin := flag.Float64("pin", 0.3, "intra-community edge probability (planted)")
	pout := flag.Float64("pout", 0.01, "inter-community edge probability (planted)")
	name := flag.String("name", "", "dataset name (dataset)")
	scale := flag.Float64("scale", 1.0, "dataset scale factor (dataset)")
	seed := flag.Int64("seed", 1, "random seed")
	weighted := flag.Bool("weighted", false, "uniform edge weights in [0.5, 1.5] instead of 1")
	out := flag.String("o", "", "output path (.csrz → compressed container, .bin → binary container, else edge list); empty = stats only")
	format := flag.String("format", "", "force the output container: csr (flat .bin semantics) or compressed (.csrz), overriding the extension")
	flag.Parse()

	wc := anyscan.WeightConfig{}
	if *weighted {
		wc = anyscan.WeightConfig{Mode: anyscan.WeightUniform, Min: 0.5, Max: 1.5}
	}

	var g *anyscan.Graph
	var err error
	switch *typ {
	case "lfr":
		cfg := anyscan.DefaultLFR(*n, *avgdeg, *seed)
		cfg.Mixing = *mixing
		cfg.Weights = wc
		g, _, err = anyscan.GenerateLFR(cfg)
	case "er":
		if *m == 0 {
			*m = int64(*n) * 10
		}
		g = anyscan.GenerateErdosRenyi(*n, *m, wc, *seed)
	case "ba":
		if *m == 0 {
			*m = 5
		}
		g = anyscan.GenerateHolmeKim(*n, int(*m), 0, wc, *seed)
	case "hk":
		if *m == 0 {
			*m = 5
		}
		g = anyscan.GenerateHolmeKim(*n, int(*m), *pt, wc, *seed)
	case "rmat":
		sc := 0
		for 1<<sc < *n {
			sc++
		}
		if *m == 0 {
			*m = int64(*n) * 16
		}
		g = anyscan.GenerateRMAT(sc, *m, 0.57, 0.19, 0.19, wc, *seed)
	case "circles":
		g = anyscan.GenerateSocialCircles(anyscan.SocialCirclesConfig{
			N: *n, CirclesPerV: 3.5, CircleSize: 40, CircleSizeJit: 20, IntraP: 0.7,
			Weights: wc, Seed: *seed,
		})
	case "planted":
		g = anyscan.GeneratePlantedPartition(*n, *k, *pin, *pout, wc, *seed)
	case "dataset":
		g, err = datasets.Load(*name, *scale)
	default:
		fmt.Fprintf(os.Stderr, "graphgen: unknown -type %q\n", *typ)
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		fatal(err)
	}

	s := anyscan.ComputeStats(g)
	fmt.Printf("generated: %d vertices, %d edges, d̄=%.2f, c=%.4f, max-deg=%d\n",
		s.Vertices, s.Edges, s.AvgDegree, s.AvgCC, s.MaxDegree)

	if *out == "" {
		return
	}
	compressed := strings.HasSuffix(*out, ".csrz")
	switch *format {
	case "":
	case "csr":
		compressed = false
	case "compressed":
		compressed = true
	default:
		fatal(fmt.Errorf("unknown -format %q (have csr, compressed)", *format))
	}
	if compressed {
		c := anyscan.CompressGraph(g)
		if err := c.WriteCompressedFile(*out); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s (compressed, %.1f%% of flat CSR)\n", *out,
			100*float64(c.Bytes())/float64(g.Bytes()))
		return
	}
	write := g.WriteEdgeList
	switch {
	case strings.HasSuffix(*out, ".bin"):
		write = g.WriteBinary
	case strings.HasSuffix(*out, ".metis"), strings.HasSuffix(*out, ".graph"):
		write = g.WriteMETIS
	}
	if err := frame.Publish(*out, "graph", write); err != nil {
		fatal(err)
	}
	fmt.Println("wrote", *out)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "graphgen:", err)
	os.Exit(1)
}
