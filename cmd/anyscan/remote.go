package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"anyscan/internal/server"
)

// remoteMain implements "anyscan remote <verb> [flags]": a thin client for a
// running anyscand service. Every verb prints the server's JSON response.
//
//	anyscan remote load    -addr URL -name g -path graph.metis
//	anyscan remote graphs  -addr URL
//	anyscan remote evict   -addr URL -name g
//	anyscan remote submit  -addr URL -graph g -mu 5 -eps 0.5 [-wait]
//	anyscan remote jobs    -addr URL
//	anyscan remote status  -addr URL -job j1
//	anyscan remote snapshot -addr URL -job j1 [-assignments]
//	anyscan remote result  -addr URL -job j1 [-assignments]
//	anyscan remote pause | resume | cancel -addr URL -job j1
//	anyscan remote query   -addr URL -graph g -mu 5 [-eps 0.5 | -eps-list 0.3,0.5 | -limit 8] [-approx 0.05] [-min-epoch 3]
//	anyscan remote local   -addr URL -graph g -vertex 42 -mu 5 -eps 0.5 [-min-epoch 3] [-no-members]
//	anyscan remote mutate  -addr URL -graph g -ops add:1:2:0.8,del:3:4,rw:1:2:1.5
func remoteMain(args []string) {
	if len(args) == 0 {
		fatal(fmt.Errorf("usage: anyscan remote <load|graphs|evict|submit|jobs|status|snapshot|result|pause|resume|cancel|query|local|mutate> [flags]"))
	}
	verb, args := args[0], args[1:]
	fs := flag.NewFlagSet("remote "+verb, flag.ExitOnError)
	addr := fs.String("addr", "http://localhost:8080", "anyscand base URL")
	name := fs.String("name", "", "graph registry name")
	path := fs.String("path", "", "graph file path (load)")
	dataset := fs.String("dataset", "", "synthetic dataset name (load)")
	scale := fs.Float64("scale", 0, "dataset scale factor (load)")
	graphName := fs.String("graph", "", "graph name (submit/query/local/mutate)")
	mu := fs.Int("mu", 5, "μ: minimum ε-neighborhood size for cores")
	eps := fs.Float64("eps", 0.5, "ε: structural similarity threshold")
	epsList := fs.String("eps-list", "", "comma-separated ε values (query profile)")
	limit := fs.Int("limit", 0, "max auto-picked ε thresholds for a query profile (0 = server default)")
	minEpoch := fs.Int64("min-epoch", 0, "query/local: wait for this live epoch before answering (read-your-writes)")
	approx := new(float64)
	if verb == "query" { // local reads are exact: only /v1/query has the dial
		fs.Float64Var(approx, "approx", 0, "query: accuracy dial δ in [0,1) — σ estimated from sketches, near-threshold edges exact (0 = exact)")
	}
	vertex := fs.Int64("vertex", -1, "local: seed vertex id")
	noMembers := fs.Bool("no-members", false, "local: omit the member list (summary only)")
	ops := fs.String("ops", "", "mutate: comma-separated add:u:v:w, del:u:v, rw:u:v:w operations")
	threads := fs.Int("threads", 0, "worker count for the job (0 = server default)")
	seed := fs.Int64("seed", 0, "random seed for the job (0 = server default)")
	jobID := fs.String("job", "", "job id")
	withAssignments := fs.Bool("assignments", false, "include per-vertex labels and roles")
	wait := fs.Bool("wait", false, "submit: poll until the job finishes")
	waitTimeout := fs.Duration("wait-timeout", 10*time.Minute, "timeout for -wait")
	callTimeout := fs.Duration("timeout", time.Minute, "overall deadline per request (retries included)")
	fs.Parse(args)

	// Every call is bounded by -timeout and aborts cleanly on Ctrl-C; the
	// context reaches the server, which cancels any in-flight work it started
	// for us.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, *callTimeout)
	defer cancel()

	c := server.NewClient(strings.TrimRight(*addr, "/"))
	needJob := func() string {
		if *jobID == "" {
			fatal(fmt.Errorf("remote %s needs -job ID", verb))
		}
		return *jobID
	}
	needGraph := func() string {
		if *graphName == "" {
			fatal(fmt.Errorf("remote %s needs -graph NAME", verb))
		}
		return *graphName
	}

	var out any
	var err error
	switch verb {
	case "load":
		out, err = c.LoadGraph(ctx, server.LoadGraphRequest{
			Name:        *name,
			GraphSource: server.GraphSource{Path: *path, Dataset: *dataset, Scale: *scale},
		})
	case "graphs":
		out, err = c.ListGraphs(ctx)
	case "evict":
		if *name == "" {
			fatal(fmt.Errorf("remote evict needs -name NAME"))
		}
		err = c.EvictGraph(ctx, *name)
		out = map[string]string{"evicted": *name}
	case "submit":
		spec := server.JobSpec{Graph: needGraph(), Mu: *mu, Eps: *eps, Threads: *threads, Seed: *seed}
		var st server.JobStatus
		st, err = c.SubmitJob(ctx, spec)
		out = st
		if err == nil && *wait {
			waitCtx, cancelWait := context.WithTimeout(ctx, *waitTimeout)
			out, err = c.WaitJob(waitCtx, st.ID)
			cancelWait()
		}
	case "jobs":
		out, err = c.ListJobs(ctx)
	case "status":
		out, err = c.JobStatus(ctx, needJob())
	case "snapshot":
		out, err = c.JobSnapshot(ctx, needJob(), *withAssignments)
	case "result":
		out, err = c.JobResult(ctx, needJob(), *withAssignments)
	case "pause":
		out, err = c.PauseJob(ctx, needJob())
	case "resume":
		out, err = c.ResumeJob(ctx, needJob())
	case "cancel":
		out, err = c.CancelJob(ctx, needJob())
	case "query":
		// -eps-list (or no ε at all) asks for a profile; a single -eps asks
		// for the exact clustering at (μ, ε).
		epsSet := false
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "eps" {
				epsSet = true
			}
		})
		switch {
		case *epsList != "":
			out, err = c.QueryProfile(ctx, needGraph(), *mu, parseEpsList(*epsList), *limit)
		case epsSet:
			out, err = c.QueryApproxEpoch(ctx, needGraph(), *mu, *eps, *approx, *minEpoch, *withAssignments)
		default:
			out, err = c.QueryProfile(ctx, needGraph(), *mu, nil, *limit)
		}
	case "local":
		if *vertex < 0 {
			fatal(fmt.Errorf("remote local needs -vertex ID (the seed vertex)"))
		}
		out, err = c.LocalEpoch(ctx, needGraph(), int32(*vertex), *mu, *eps, *minEpoch, !*noMembers)
	case "mutate":
		if *ops == "" {
			fatal(fmt.Errorf("remote mutate needs -ops LIST (e.g. add:1:2:0.8,del:3:4)"))
		}
		out, err = c.Mutate(ctx, needGraph(), parseOps(*ops))
	default:
		fatal(fmt.Errorf("unknown remote verb %q", verb))
	}
	if err != nil {
		fatal(err)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	enc.Encode(out)
}

// parseOps turns "-ops add:1:2:0.8,del:3:4,rw:1:2:1.5" into mutation specs.
// Accepted op names: add, del/delete, rw/reweight. add and rw take u:v:w;
// del takes u:v.
func parseOps(raw string) []server.MutationSpec {
	var muts []server.MutationSpec
	for _, part := range strings.Split(raw, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		fields := strings.Split(part, ":")
		var op string
		switch fields[0] {
		case "add":
			op = "add"
		case "del", "delete":
			op = "delete"
		case "rw", "reweight":
			op = "reweight"
		default:
			fatal(fmt.Errorf("bad -ops entry %q: unknown op %q (want add, del, or rw)", part, fields[0]))
		}
		wantFields := 4
		if op == "delete" {
			wantFields = 3
		}
		if len(fields) != wantFields {
			fatal(fmt.Errorf("bad -ops entry %q: want %s", part, map[string]string{
				"add": "add:u:v:w", "delete": "del:u:v", "reweight": "rw:u:v:w"}[op]))
		}
		u, err1 := strconv.ParseInt(fields[1], 10, 32)
		v, err2 := strconv.ParseInt(fields[2], 10, 32)
		if err1 != nil || err2 != nil {
			fatal(fmt.Errorf("bad -ops entry %q: endpoints must be integers", part))
		}
		m := server.MutationSpec{Op: op, U: int32(u), V: int32(v)}
		if op != "delete" {
			w, err := strconv.ParseFloat(fields[3], 32)
			if err != nil {
				fatal(fmt.Errorf("bad -ops entry %q: bad weight %q", part, fields[3]))
			}
			m.W = float32(w)
		}
		muts = append(muts, m)
	}
	if len(muts) == 0 {
		fatal(fmt.Errorf("-ops list is empty"))
	}
	return muts
}

func parseEpsList(raw string) []float64 {
	var epsValues []float64
	for _, part := range strings.Split(raw, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			fatal(fmt.Errorf("bad -eps-list value %q", part))
		}
		epsValues = append(epsValues, v)
	}
	return epsValues
}
