package server_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"anyscan/internal/cluster"
	"anyscan/internal/core"
	"anyscan/internal/faultinject"
	"anyscan/internal/gen"
	"anyscan/internal/graph"
	"anyscan/internal/server"
	"anyscan/internal/testutil"
)

// tctx is the background context threaded through client calls in tests that
// don't exercise cancellation themselves; per-call deadlines come from the
// server's route timeouts.
var tctx = context.Background()

// testGraph is a shared LFR benchmark graph, generated once: big enough that
// a single-threaded job takes many steps (so tests can reliably pause or
// cancel mid-run), small enough to keep the suite fast.
var (
	graphOnce sync.Once
	bigGraph  *graph.CSR
)

func sharedGraph(t *testing.T) *graph.CSR {
	t.Helper()
	graphOnce.Do(func() {
		g, _, err := gen.LFR(gen.DefaultLFR(40000, 10, 42))
		if err != nil {
			panic(err)
		}
		bigGraph = g
	})
	return bigGraph
}

// writeGraphFile serializes g into dir as a binary container (exact
// round-trip, including isolated vertices) and returns its path.
func writeGraphFile(t testing.TB, g *graph.CSR, dir string) string {
	t.Helper()
	path := filepath.Join(dir, "graph.bin")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.WriteBinary(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// newTestServer builds a Server plus an httptest listener and returns a
// typed client. Cleanup drains the job pool.
func newTestServer(t *testing.T, mcfg server.ManagerConfig) (*server.Server, *server.Client) {
	t.Helper()
	srv, err := server.New(server.Config{Manager: mcfg, Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Drain(ctx)
		ts.Close()
	})
	return srv, server.NewClient(ts.URL)
}

func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// slowSpec is a job spec tuned for many small steps: single-threaded with a
// small block size, so control requests land mid-run deterministically.
func slowSpec(graphName string) server.JobSpec {
	return server.JobSpec{Graph: graphName, Mu: 4, Eps: 0.4, Alpha: 32, Threads: 1, Seed: 7, ResolveRoles: true}
}

// pauseMidRun retries Pause until it lands while the job is running. Fails
// the test if the job reaches a terminal state first.
func pauseMidRun(t *testing.T, c *server.Client, id string) server.JobStatus {
	t.Helper()
	for {
		if st, err := c.PauseJob(tctx, id); err == nil {
			return st
		}
		st, err := c.JobStatus(tctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State.Terminal() {
			t.Fatalf("job reached %s before a pause landed", st.State)
		}
		time.Sleep(time.Millisecond)
	}
}

// resultFromAssignments rebuilds a cluster.Result from the wire payload so
// it can be compared against a batch run with cluster.Equivalent.
func resultFromAssignments(t *testing.T, a *server.Assignments) *cluster.Result {
	t.Helper()
	if a == nil {
		t.Fatal("response has no assignments")
	}
	r := cluster.NewResult(len(a.Labels))
	copy(r.Labels, a.Labels)
	for i, role := range a.Roles {
		r.Roles[i] = cluster.Role(role)
	}
	r.Canonicalize()
	return r
}

func batchResult(t *testing.T, g *graph.CSR, spec server.JobSpec) *cluster.Result {
	t.Helper()
	res, _, err := core.Cluster(g, spec.Options(g.NumVertices()))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestE2EJobLifecycle drives the full happy path over real HTTP: load a
// graph, submit a job, watch monotone progress, take an anytime snapshot
// mid-run (via pause), resume, and check the final result equals the batch
// anyscan result for the same (graph, ε, μ).
func TestE2EJobLifecycle(t *testing.T) {
	g := sharedGraph(t)
	path := writeGraphFile(t, g, t.TempDir())
	_, c := newTestServer(t, server.ManagerConfig{Workers: 2})

	info, err := c.LoadGraph(tctx, server.LoadGraphRequest{Name: "g", GraphSource: server.GraphSource{Path: path}})
	if err != nil {
		t.Fatal(err)
	}
	if info.Vertices != g.NumVertices() || info.Edges != g.NumEdges() {
		t.Fatalf("loaded graph %d/%d, want %d/%d", info.Vertices, info.Edges, g.NumVertices(), g.NumEdges())
	}

	spec := slowSpec("g")
	st, err := c.SubmitJob(tctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != server.JobQueued && st.State != server.JobRunning {
		t.Fatalf("fresh job state = %s", st.State)
	}

	// Anytime snapshot mid-run: pause at the next consistent point. A pause
	// that lands inside the first block rolls it back and leaves nothing
	// touched, so pause once a block has committed.
	for cur := st; cur.Progress.Touched == 0; {
		if cur.State.Terminal() {
			t.Fatalf("job reached %s before touching a vertex", cur.State)
		}
		time.Sleep(time.Millisecond)
		if cur, err = c.JobStatus(tctx, st.ID); err != nil {
			t.Fatal(err)
		}
	}
	paused := pauseMidRun(t, c, st.ID)
	for paused.State == server.JobRunning { // pause was accepted but not yet parked
		time.Sleep(time.Millisecond)
		if paused, err = c.JobStatus(tctx, st.ID); err != nil {
			t.Fatal(err)
		}
	}
	if paused.State != server.JobPaused {
		t.Fatalf("after pause: state = %s", paused.State)
	}
	if paused.Progress.Done {
		t.Fatal("paused mid-run but progress says done")
	}
	snap, err := c.JobSnapshot(tctx, st.ID, true)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Progress.Touched == 0 {
		t.Fatal("mid-run snapshot shows no touched vertices")
	}
	if snap.Assignments == nil || len(snap.Assignments.Labels) != g.NumVertices() {
		t.Fatal("mid-run snapshot has no per-vertex assignments")
	}

	if _, err := c.ResumeJob(tctx, st.ID); err != nil {
		t.Fatal(err)
	}

	// Monotone progress while the job runs to completion.
	prev := paused.Progress
	for {
		cur, err := c.JobStatus(tctx, st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if cur.Progress.Iterations < prev.Iterations || cur.Progress.Touched < prev.Touched ||
			cur.Progress.Sims < prev.Sims {
			t.Fatalf("progress went backwards: %+v then %+v", prev, cur.Progress)
		}
		prev = cur.Progress
		if cur.State.Terminal() {
			if cur.State != server.JobDone {
				t.Fatalf("job finished as %s (%s)", cur.State, cur.Error)
			}
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if !prev.Done || prev.Touched != g.NumVertices() {
		t.Fatalf("final progress not complete: %+v", prev)
	}

	// Final result must equal the batch anyscan result for the same inputs.
	res, err := c.JobResult(tctx, st.ID, true)
	if err != nil {
		t.Fatal(err)
	}
	got := resultFromAssignments(t, res.Assignments)
	want := batchResult(t, g, spec)
	if got.NumClusters != want.NumClusters {
		t.Fatalf("clusters = %d, want %d", got.NumClusters, want.NumClusters)
	}
	if err := cluster.Equivalent(got, want); err != nil {
		t.Fatalf("job result differs from batch run: %v", err)
	}
}

// TestE2ECancelMidRun interrupts a running job inside its current block and
// checks the terminal state; the anytime snapshot stays queryable, the final
// result never exists.
func TestE2ECancelMidRun(t *testing.T) {
	g := sharedGraph(t)
	path := writeGraphFile(t, g, t.TempDir())
	_, c := newTestServer(t, server.ManagerConfig{Workers: 1})

	if _, err := c.LoadGraph(tctx, server.LoadGraphRequest{Name: "g", GraphSource: server.GraphSource{Path: path}}); err != nil {
		t.Fatal(err)
	}
	st, err := c.SubmitJob(tctx, slowSpec("g"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.CancelJob(tctx, st.ID); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	var final server.JobStatus
	for {
		if final, err = c.JobStatus(tctx, st.ID); err != nil {
			t.Fatal(err)
		}
		if final.State.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job still %s after cancel", final.State)
		}
		time.Sleep(time.Millisecond)
	}
	if final.State != server.JobCanceled {
		t.Fatalf("state after cancel = %s", final.State)
	}
	if _, err := c.JobSnapshot(tctx, st.ID, false); err != nil {
		t.Fatalf("snapshot of canceled job: %v", err)
	}
	if _, err := c.JobResult(tctx, st.ID, false); err == nil {
		t.Fatal("result of a canceled job should not exist")
	}
}

// TestE2ERestartRecovery pauses a job mid-run (writing a checkpoint), kills
// the server, starts a fresh one on the same checkpoint directory, and
// checks the recovered job resumes to the exact batch result.
func TestE2ERestartRecovery(t *testing.T) {
	g := sharedGraph(t)
	dir := t.TempDir()
	path := writeGraphFile(t, g, dir)
	ckptDir := filepath.Join(dir, "ckpt")
	spec := slowSpec("g")

	// First daemon: submit, pause mid-run, drain away.
	srvA, err := server.New(server.Config{Manager: server.ManagerConfig{Workers: 1, CheckpointDir: ckptDir}, Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	tsA := httptest.NewServer(srvA)
	cA := server.NewClient(tsA.URL)
	if _, err := cA.LoadGraph(tctx, server.LoadGraphRequest{Name: "g", GraphSource: server.GraphSource{Path: path}}); err != nil {
		t.Fatal(err)
	}
	st, err := cA.SubmitJob(tctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	pauseMidRun(t, cA, st.ID)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srvA.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	tsA.Close()
	if _, err := os.Stat(filepath.Join(ckptDir, st.ID+".ckpt")); err != nil {
		t.Fatalf("pause left no checkpoint: %v", err)
	}

	// Second daemon on the same checkpoint dir: the job comes back paused.
	_, cB := newTestServer(t, server.ManagerConfig{Workers: 1, CheckpointDir: ckptDir})
	rec, err := cB.JobStatus(tctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if rec.State != server.JobPaused || !rec.Recovered {
		t.Fatalf("recovered job: state=%s recovered=%v", rec.State, rec.Recovered)
	}
	if _, err := cB.ResumeJob(tctx, st.ID); err != nil {
		t.Fatal(err)
	}
	final := waitJob(t, cB, st.ID)
	if final.State != server.JobDone {
		t.Fatalf("recovered job finished as %s (%s)", final.State, final.Error)
	}
	res, err := cB.JobResult(tctx, st.ID, true)
	if err != nil {
		t.Fatal(err)
	}
	got := resultFromAssignments(t, res.Assignments)
	want := batchResult(t, g, spec)
	if err := cluster.Equivalent(got, want); err != nil {
		t.Fatalf("resumed-across-restart result differs from batch run: %v", err)
	}
}

// TestE2ECheckpointFaults injects checkpoint write failures (the job
// survives, the error is reported) and corrupts a checkpoint on disk (the
// restarted daemon marks the job failed instead of dying).
func TestE2ECheckpointFaults(t *testing.T) {
	defer faultinject.Reset()
	g := sharedGraph(t)
	dir := t.TempDir()
	path := writeGraphFile(t, g, dir)
	ckptDir := filepath.Join(dir, "ckpt")

	srvA, err := server.New(server.Config{Manager: server.ManagerConfig{Workers: 1, CheckpointDir: ckptDir}, Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	tsA := httptest.NewServer(srvA)
	cA := server.NewClient(tsA.URL)
	if _, err := cA.LoadGraph(tctx, server.LoadGraphRequest{Name: "g", GraphSource: server.GraphSource{Path: path}}); err != nil {
		t.Fatal(err)
	}
	st, err := cA.SubmitJob(tctx, slowSpec("g"))
	if err != nil {
		t.Fatal(err)
	}

	// A failed checkpoint write must not kill the job.
	faultinject.Arm("checkpoint.write", 1, nil)
	pauseMidRun(t, cA, st.ID)
	status := waitState(t, cA, st.ID, server.JobPaused)
	if status.CheckpointErr == "" || !strings.Contains(status.CheckpointErr, "injected") {
		t.Fatalf("injected checkpoint failure not reported: %+v", status)
	}

	// The next pause writes a good checkpoint; corrupt it on disk.
	if _, err := cA.ResumeJob(tctx, st.ID); err != nil {
		t.Fatal(err)
	}
	pauseMidRun(t, cA, st.ID)
	status = waitState(t, cA, st.ID, server.JobPaused)
	if status.CheckpointErr != "" {
		t.Fatalf("clean checkpoint still reports error: %s", status.CheckpointErr)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srvA.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	tsA.Close()

	ckpt := filepath.Join(ckptDir, st.ID+".ckpt")
	data, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(ckpt, data, 0o666); err != nil {
		t.Fatal(err)
	}

	// The restarted daemon must come up and expose the job as failed.
	_, cB := newTestServer(t, server.ManagerConfig{Workers: 1, CheckpointDir: ckptDir})
	rec, err := cB.JobStatus(tctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if rec.State != server.JobFailed || !strings.Contains(rec.Error, "checkpoint") {
		t.Fatalf("corrupt checkpoint: state=%s err=%q", rec.State, rec.Error)
	}
}

// TestE2EManifestFaults fails each step of a job manifest's publish in
// turn. The submission is a server error, not a client one; the job is
// neither listed nor left as a temp file; and a restarted daemon recovers
// exactly the jobs acknowledged before the faults.
func TestE2EManifestFaults(t *testing.T) {
	defer faultinject.Reset()
	g := sharedGraph(t)
	dir := t.TempDir()
	path := writeGraphFile(t, g, dir)
	ckptDir := filepath.Join(dir, "ckpt")

	srvA, err := server.New(server.Config{Manager: server.ManagerConfig{Workers: 1, CheckpointDir: ckptDir}, Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	tsA := httptest.NewServer(srvA)
	cA := server.NewClient(tsA.URL)
	if _, err := cA.LoadGraph(tctx, server.LoadGraphRequest{Name: "g", GraphSource: server.GraphSource{Path: path}}); err != nil {
		t.Fatal(err)
	}
	acked, err := cA.SubmitJob(tctx, slowSpec("g"))
	if err != nil {
		t.Fatal(err)
	}
	pauseMidRun(t, cA, acked.ID)
	waitState(t, cA, acked.ID, server.JobPaused)

	onlyAcked := func(what string, c *server.Client) []server.JobStatus {
		t.Helper()
		jobs, err := c.ListJobs(tctx)
		if err != nil {
			t.Fatal(err)
		}
		if len(jobs) != 1 || jobs[0].ID != acked.ID {
			t.Fatalf("%s: jobs %+v, want only %s", what, jobs, acked.ID)
		}
		return jobs
	}
	for _, point := range []string{"manifest.write", "manifest.sync", "manifest.rename"} {
		faultinject.Arm(point, 1, nil)
		_, err := cA.SubmitJob(tctx, slowSpec("g"))
		var apiErr *server.APIError
		if !errors.As(err, &apiErr) || apiErr.Status != http.StatusInternalServerError {
			t.Fatalf("%s: submit answered %v, want a 500", point, err)
		}
		onlyAcked(point, cA)
		entries, err := os.ReadDir(ckptDir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if strings.Contains(e.Name(), ".tmp") {
				t.Fatalf("%s: temp file %s left in the checkpoint directory", point, e.Name())
			}
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srvA.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	tsA.Close()

	_, cB := newTestServer(t, server.ManagerConfig{Workers: 1, CheckpointDir: ckptDir})
	if rec := onlyAcked("after restart", cB); !rec[0].Recovered || rec[0].State != server.JobPaused {
		t.Fatalf("after restart: %s is %s (recovered %v), want a recovered paused job", acked.ID, rec[0].State, rec[0].Recovered)
	}
}

// TestE2EUnreadableManifestsFailTheirJobs starts a daemon over a checkpoint
// directory holding a truncated j5.json, beside its checkpoint, and an
// empty j6.json. Both jobs must be listed as failed with the manifest
// error, and the next submission must get an id above j6, so it cannot
// land beside the lost job's checkpoint.
func TestE2EUnreadableManifestsFailTheirJobs(t *testing.T) {
	dir := t.TempDir()
	path := writeGraphFile(t, testutil.Karate(), dir)
	ckptDir := filepath.Join(dir, "ckpt")
	if err := os.MkdirAll(ckptDir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, body := range map[string]string{
		"j5.json": `{"id": "j5", "spec": {"graph": "g", "mu"`,
		"j5.ckpt": "a checkpoint the lost manifest pointed at",
		"j6.json": "",
	} {
		if err := os.WriteFile(filepath.Join(ckptDir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	_, c := newTestServer(t, server.ManagerConfig{Workers: 1, CheckpointDir: ckptDir})
	jobs, err := c.ListJobs(tctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 2 {
		t.Fatalf("listed %d jobs, want the two with unreadable manifests: %+v", len(jobs), jobs)
	}
	for i, id := range []string{"j5", "j6"} {
		if st := jobs[i]; st.ID != id || st.State != server.JobFailed || !strings.Contains(st.Error, "manifest") {
			t.Fatalf("job %d: %s is %s (error %q), want %s failed with its manifest error", i, st.ID, st.State, st.Error, id)
		}
	}
	if _, err := c.LoadGraph(tctx, server.LoadGraphRequest{Name: "g", GraphSource: server.GraphSource{Path: path}}); err != nil {
		t.Fatal(err)
	}
	st, err := c.SubmitJob(tctx, server.JobSpec{Graph: "g", Mu: 3, Eps: 0.5, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st.ID != "j7" {
		t.Fatalf("next submission got id %s, want j7", st.ID)
	}
}

// waitJob polls a job to a terminal state with a generous bound.
func waitJob(t *testing.T, c *server.Client, id string) server.JobStatus {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	st, err := c.WaitJob(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func waitState(t *testing.T, c *server.Client, id string, want server.JobState) server.JobStatus {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := c.JobStatus(tctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == want {
			return st
		}
		if st.State.Terminal() || time.Now().After(deadline) {
			t.Fatalf("job state = %s, want %s", st.State, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestE2EInteractiveQueries exercises /v1/query's clustering and profile
// forms: the first query builds the graph's index (cache miss), repeats hit
// the cache, answers match the batch clustering, and eviction invalidates
// the cache.
func TestE2EInteractiveQueries(t *testing.T) {
	g := sharedGraph(t)
	path := writeGraphFile(t, g, t.TempDir())
	_, c := newTestServer(t, server.ManagerConfig{Workers: 1})
	if _, err := c.LoadGraph(tctx, server.LoadGraphRequest{Name: "g", GraphSource: server.GraphSource{Path: path}}); err != nil {
		t.Fatal(err)
	}

	first, err := c.Query(tctx, "g", 4, 0.4, true)
	if err != nil {
		t.Fatal(err)
	}
	if first.CacheHit {
		t.Fatal("first query reported a cache hit")
	}
	second, err := c.Query(tctx, "g", 4, 0.55, false)
	if err != nil {
		t.Fatal(err)
	}
	if !second.CacheHit {
		t.Fatal("second query missed the index cache")
	}

	// The interactive answer must match a batch run at the same (ε, μ).
	want, _, err := core.Cluster(g, server.JobSpec{Mu: 4, Eps: 0.4, ResolveRoles: true}.Options(g.NumVertices()))
	if err != nil {
		t.Fatal(err)
	}
	got := resultFromAssignments(t, first.Assignments)
	if err := cluster.Equivalent(got, want); err != nil {
		t.Fatalf("interactive clustering differs from batch run: %v", err)
	}

	profile, err := c.QueryProfile(tctx, "g", 4, []float64{0.3, 0.4, 0.55}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !profile.CacheHit || len(profile.Points) != 3 {
		t.Fatalf("profile: hit=%v points=%d", profile.CacheHit, len(profile.Points))
	}
	for _, p := range profile.Points {
		if p.Eps == 0.4 && p.Clusters != first.Clusters {
			t.Fatalf("profile at ε=0.4 found %d clusters, the clustering found %d", p.Clusters, first.Clusters)
		}
	}

	// Auto-picked thresholds.
	auto, err := c.QueryProfile(tctx, "g", 4, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(auto.Points) == 0 {
		t.Fatal("profile with auto thresholds returned no points")
	}

	// Eviction invalidates the index cache.
	if err := c.EvictGraph(tctx, "g"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query(tctx, "g", 4, 0.4, false); err == nil {
		t.Fatal("query against an evicted graph should fail")
	}
	if _, err := c.LoadGraph(tctx, server.LoadGraphRequest{Name: "g", GraphSource: server.GraphSource{Path: path}}); err != nil {
		t.Fatal(err)
	}
	reloaded, err := c.Query(tctx, "g", 4, 0.4, false)
	if err != nil {
		t.Fatal(err)
	}
	if reloaded.CacheHit {
		t.Fatal("index cache survived graph eviction")
	}
}

// TestE2EQueryOneSigmaPass drives the versioned /v1/query endpoint at two
// different μ (plus a profile form) on the same graph and asserts — via the
// σ-evaluation Prometheus counter — that the server spent exactly one
// similarity pass (one σ per edge) across all of them. This is the index
// guarantee the per-(graph, μ) explorer cache could not offer: changing μ no
// longer recomputes anything.
func TestE2EQueryOneSigmaPass(t *testing.T) {
	g := sharedGraph(t)
	path := writeGraphFile(t, g, t.TempDir())
	_, c := newTestServer(t, server.ManagerConfig{Workers: 1})
	if _, err := c.LoadGraph(tctx, server.LoadGraphRequest{Name: "g", GraphSource: server.GraphSource{Path: path}}); err != nil {
		t.Fatal(err)
	}

	first, err := c.Query(tctx, "g", 4, 0.4, true)
	if err != nil {
		t.Fatal(err)
	}
	if first.CacheHit {
		t.Fatal("first query reported a cache hit")
	}
	if first.Eps != 0.4 || len(first.Points) != 0 {
		t.Fatalf("single-ε response malformed: eps=%v points=%d", first.Eps, len(first.Points))
	}
	// The answer is the exact SCAN clustering at (μ, ε).
	want := cluster.Reference(g, 4, 0.4)
	got := resultFromAssignments(t, first.Assignments)
	if err := cluster.Equivalent(got, want); err != nil {
		t.Fatalf("/v1/query differs from the reference clustering: %v", err)
	}

	// A different μ on the same graph: served from the same index.
	second, err := c.Query(tctx, "g", 7, 0.55, false)
	if err != nil {
		t.Fatal(err)
	}
	if !second.CacheHit {
		t.Fatal("changing mu evicted the index")
	}

	// Profile form with auto-picked thresholds, at a third μ.
	profile, err := c.QueryProfile(tctx, "g", 5, nil, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !profile.CacheHit || len(profile.Points) == 0 || len(profile.Points) > 8 {
		t.Fatalf("profile: hit=%v points=%d", profile.CacheHit, len(profile.Points))
	}

	text, err := c.MetricsText(tctx)
	if err != nil {
		t.Fatal(err)
	}
	if sims := metricValue(t, text, "anyscand_index_sim_evals_total "); sims != float64(g.NumEdges()) {
		t.Errorf("σ evaluations = %g after three μ values, want exactly one pass = %d", sims, g.NumEdges())
	}
	if misses := metricValue(t, text, "anyscand_index_cache_misses_total "); misses != 1 {
		t.Errorf("index builds = %g, want 1", misses)
	}
	if hits := metricValue(t, text, "anyscand_index_cache_hits_total "); hits != 2 {
		t.Errorf("index cache hits = %g, want 2", hits)
	}
}

// TestE2EMetrics checks the Prometheus endpoint reports non-zero job and
// σ-evaluation counters after real work.
func TestE2EMetrics(t *testing.T) {
	g := sharedGraph(t)
	path := writeGraphFile(t, g, t.TempDir())
	_, c := newTestServer(t, server.ManagerConfig{Workers: 1})
	if _, err := c.LoadGraph(tctx, server.LoadGraphRequest{Name: "g", GraphSource: server.GraphSource{Path: path}}); err != nil {
		t.Fatal(err)
	}
	st, err := c.SubmitJob(tctx, server.JobSpec{Graph: "g", Mu: 4, Eps: 0.4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, c, st.ID)
	if _, err := c.Query(tctx, "g", 4, 0.4, false); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query(tctx, "g", 4, 0.5, false); err != nil {
		t.Fatal(err)
	}

	text, err := c.MetricsText(tctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"anyscand_jobs_submitted_total 1",
		"anyscand_jobs_completed_total 1",
		"anyscand_queries_total 2",
		"anyscand_index_cache_hits_total 1",
		"anyscand_index_cache_misses_total 1",
		"anyscand_graphs_loaded 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	// σ-evaluation and wall-time counters: index builds, queries, and job
	// work all non-zero.
	for _, prefix := range []string{
		"anyscand_index_sim_evals_total ",
		"anyscand_index_build_ms_total ",
		"anyscand_query_ms_total ",
		"anyscand_job_sim_evals ",
	} {
		v := metricValue(t, text, prefix)
		if v <= 0 {
			t.Errorf("%s= %g, want > 0", prefix, v)
		}
	}
	if !strings.Contains(text, "anyscand_http_request_duration_ms_bucket") {
		t.Error("metrics missing the latency histogram")
	}
}

func metricValue(t *testing.T, text, prefix string) float64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, prefix); ok {
			var v float64
			if _, err := fmt.Sscan(rest, &v); err != nil {
				t.Fatalf("parsing %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("metric %q not found", prefix)
	return 0
}

// TestE2EDrain checks drain semantics: running jobs park with a checkpoint,
// new submissions are rejected, and health reports draining.
func TestE2EDrain(t *testing.T) {
	g := sharedGraph(t)
	dir := t.TempDir()
	path := writeGraphFile(t, g, dir)
	ckptDir := filepath.Join(dir, "ckpt")
	srv, c := newTestServer(t, server.ManagerConfig{Workers: 1, CheckpointDir: ckptDir})
	if _, err := c.LoadGraph(tctx, server.LoadGraphRequest{Name: "g", GraphSource: server.GraphSource{Path: path}}); err != nil {
		t.Fatal(err)
	}
	st, err := c.SubmitJob(tctx, slowSpec("g"))
	if err != nil {
		t.Fatal(err)
	}
	// A drain that starts before the only worker picks the job up leaves it
	// queued (TestE2EDrainKeepsQueuedJob), so drain once it has left queued.
	waitLeftQueued(t, c, st.ID)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	after, err := c.JobStatus(tctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	// The job either finished before the drain reached it or parked paused
	// with a checkpoint on disk.
	switch after.State {
	case server.JobPaused:
		if _, err := os.Stat(filepath.Join(ckptDir, st.ID+".ckpt")); err != nil {
			t.Fatalf("drained job left no checkpoint: %v", err)
		}
	case server.JobDone:
	default:
		t.Fatalf("after drain: state = %s", after.State)
	}
	if _, err := c.SubmitJob(tctx, slowSpec("g")); err == nil || !strings.Contains(err.Error(), "draining") {
		t.Fatalf("submit during drain: %v", err)
	}
	// Liveness stays green while draining — restarting a draining daemon
	// would only lose work; readiness flips so traffic is steered away.
	if err := c.Healthz(tctx); err != nil {
		t.Fatalf("healthz should stay OK while draining: %v", err)
	}
	if err := c.Readyz(tctx); err == nil {
		t.Fatal("readyz should fail while draining")
	}
}

// waitLeftQueued polls until job id has left the queued state.
func waitLeftQueued(t *testing.T, c *server.Client, id string) {
	t.Helper()
	for {
		st, err := c.JobStatus(tctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != server.JobQueued {
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// TestE2EDrainKeepsQueuedJob drains a one-worker server while a second job
// waits behind a running one: the running job parks paused, and the queued
// one stays queued with its manifest on disk, so a restart brings it back.
// The case needs the first job still running when the drain starts, which
// its paused state shows; a job that finished first (it runs for about
// 0.2 s) lets the second one start, and the attempt is repeated.
func TestE2EDrainKeepsQueuedJob(t *testing.T) {
	g := sharedGraph(t)
	path := writeGraphFile(t, g, t.TempDir())
	for attempt := 0; attempt < 5; attempt++ {
		ckptDir := filepath.Join(t.TempDir(), "ckpt")
		srv, c := newTestServer(t, server.ManagerConfig{Workers: 1, CheckpointDir: ckptDir})
		if _, err := c.LoadGraph(tctx, server.LoadGraphRequest{Name: "g", GraphSource: server.GraphSource{Path: path}}); err != nil {
			t.Fatal(err)
		}
		running, err := c.SubmitJob(tctx, slowSpec("g"))
		if err != nil {
			t.Fatal(err)
		}
		waitLeftQueued(t, c, running.ID)
		queued, err := c.SubmitJob(tctx, slowSpec("g"))
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err = srv.Drain(ctx)
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		first, err := c.JobStatus(tctx, running.ID)
		if err != nil {
			t.Fatal(err)
		}
		if first.State != server.JobPaused {
			t.Logf("attempt %d: the first job was %s before the drain reached it", attempt, first.State)
			continue
		}
		second, err := c.JobStatus(tctx, queued.ID)
		if err != nil {
			t.Fatal(err)
		}
		if second.State != server.JobQueued {
			t.Fatalf("job queued behind a running one at drain: state = %s, want queued", second.State)
		}
		if _, err := os.Stat(filepath.Join(ckptDir, queued.ID+".json")); err != nil {
			t.Fatalf("queued job's manifest is not on disk after drain: %v", err)
		}
		return
	}
	t.Fatal("the first job finished before the drain in every attempt")
}

// TestErrorCodesIgnoreNames checks that a status comes from the kind of
// error, not from its text: a failed load answers 400 whatever words the
// client put in the graph's name, while the real 404, 409 and 503 answers
// keep their codes.
func TestErrorCodesIgnoreNames(t *testing.T) {
	srv, c := newTestServer(t, server.ManagerConfig{Workers: 1, Logger: quietLogger()})
	c.Retry.MaxAttempts = 1 // the draining 503 is checked, not retried
	missing := filepath.Join(t.TempDir(), "missing.bin")
	for _, name := range []string{"g", "already", "only x", "not found", "draining"} {
		_, err := c.LoadGraph(tctx, server.LoadGraphRequest{Name: name, GraphSource: server.GraphSource{Path: missing}})
		if got := apiStatus(t, err); got != http.StatusBadRequest {
			t.Errorf("load %q from a missing file: status %d, want 400", name, got)
		}
	}

	path := writeGraphFile(t, sharedGraph(t), t.TempDir())
	if _, err := c.LoadGraph(tctx, server.LoadGraphRequest{Name: "g", GraphSource: server.GraphSource{Path: path}}); err != nil {
		t.Fatal(err)
	}
	_, err := c.LoadGraph(tctx, server.LoadGraphRequest{Name: "g", GraphSource: server.GraphSource{Dataset: "GR01L", Scale: 0.05}})
	if got := apiStatus(t, err); got != http.StatusConflict {
		t.Errorf("reload from another source: status %d, want 409", got)
	}
	if got := apiStatus(t, c.EvictGraph(tctx, "nope")); got != http.StatusNotFound {
		t.Errorf("evict an unknown graph: status %d, want 404", got)
	}
	_, err = c.JobStatus(tctx, "nope")
	if got := apiStatus(t, err); got != http.StatusNotFound {
		t.Errorf("status of an unknown job: %d, want 404", got)
	}
	_, err = c.ResumeJob(tctx, "nope")
	if got := apiStatus(t, err); got != http.StatusNotFound {
		t.Errorf("resume an unknown job: status %d, want 404", got)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	_, err = c.SubmitJob(tctx, slowSpec("g"))
	if got := apiStatus(t, err); got != http.StatusServiceUnavailable {
		t.Errorf("submit while draining: status %d, want 503", got)
	}
}
