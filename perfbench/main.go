// Command perfbench is the repository's benchmark. It generates one
// workload's graph from -seed with internal/gen, writes it to a file, starts
// anyscand in-process (server.New), registers the file through
// POST /v1/graphs and drives closed-loop clients of the typed client
// (server.Client), whose requests Server.ServeHTTP answers on the client's
// goroutine. It checks the answers against in-process results and prints
// every metric by name with its unit. The last line of standard output is one
// JSON object with the keys correct, attempted, failed and metrics: the
// end-to-end metrics, or with -trace 1 the per-layer metrics.
//
// The traced run sends the same requests over a loopback listener and
// replays the workload's operations with spans around direct calls into each
// layer's public functions, made from this package; nothing inside the
// program is instrumented. README.md describes the workloads and the
// metrics.
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload explore --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// config is one benchmark run.
type config struct {
	workload string
	seed     int64
	duration time.Duration // length of the timed phase
	trace    bool
	workdir  string        // generated graph files and the span dump
	scale    float64       // graph size factor: 1 for the benchmark, small in the smoke test
	setups   int           // setup samples whose median is setup_s
	probe    time.Duration // length of each host canary probe
}

func main() {
	cfg := config{scale: 1, setups: 7, probe: time.Second}
	flag.StringVar(&cfg.workload, "workload", "", "workload: explore, mixed_rw or build")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the generated graph and of the operation sequence")
	seconds := flag.Float64("seconds", 10, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1 replays the operations with per-layer spans and prints the per-layer metrics")
	flag.StringVar(&cfg.workdir, "workdir", filepath.Join(".bench_build", "work"), "directory for generated graph files and the span dump")
	flag.Parse()
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}
	cfg.duration = time.Duration(*seconds * float64(time.Second))
	cfg.trace = *trace == 1
	// GOMAXPROCS = nproc, whatever the container quota says.
	runtime.GOMAXPROCS(runtime.NumCPU())

	res, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run executes one workload run and returns its result line; the report
// lines go to out as they are measured.
func run(cfg config, out io.Writer) (*result, error) {
	wl, err := newWorkload(cfg.workload, cfg.seed)
	if err != nil {
		return nil, err
	}
	rep := newReport(out)
	fmt.Fprintf(out, "# host %s\n", describeHost())
	fmt.Fprintf(out, "# workload %s seed %d: %s\n", wl.name(), cfg.seed, wl.describe())
	// The canary runs before the server exists, so it measures the host and
	// not the benchmark.
	compute, walk := hostProbes(cfg.probe, cfg.seed)
	rep.set("host.compute_ns", compute, "ns")
	rep.set("host.mem_walk_ns", walk, "ns")

	b, err := start(cfg, wl, out)
	if err != nil {
		return nil, err
	}
	defer b.close()
	if cfg.trace {
		return b.runTraced(rep)
	}
	return b.runTimed(rep)
}
