package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"anyscan/internal/cluster"
	"anyscan/internal/core"
	"anyscan/internal/frame"
	"anyscan/internal/graph"
)

// Job is one async anySCAN run. Two locks split its state:
//
//   - runMu serializes access to the Clusterer (StepCtx vs Snapshot /
//     Progress / SaveCheckpoint) — exactly the "between Step calls" protocol
//     the anytime scheme requires. A status or snapshot request therefore
//     waits at most one block; the σ total of /v1/metrics reads the
//     Clusterer's atomic counters (Clusterer.Sims) and waits for none.
//   - ctl guards the cheap control fields (state, flags, timestamps) and is
//     never held across a Step, so pause/cancel always land promptly: they
//     set a flag and cancel the step context, which reaches *inside* the
//     running block via core.StepCtx.
type Job struct {
	ID   string
	Spec JobSpec

	runMu sync.Mutex
	c     *core.Clusterer

	ctl        sync.Mutex
	state      JobState
	err        error
	ckptErr    error
	wantPause  bool
	wantCancel bool
	cancelStep context.CancelFunc
	result     *cluster.Result
	recovered  bool
	created    time.Time
	started    time.Time
	finished   time.Time
}

// Status returns the job's wire status. It may wait for the current block
// to finish (progress is read between steps).
func (j *Job) Status() JobStatus {
	j.runMu.Lock()
	p := j.c.Progress()
	j.runMu.Unlock()

	j.ctl.Lock()
	defer j.ctl.Unlock()
	st := JobStatus{
		ID:        j.ID,
		Graph:     j.Spec.Graph,
		Spec:      j.Spec,
		State:     j.state,
		Recovered: j.recovered,
		Progress:  progressInfo(p),
		Created:   j.created,
		Started:   j.started,
		Finished:  j.finished,
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	if j.ckptErr != nil {
		st.CheckpointErr = j.ckptErr.Error()
	}
	return st
}

// Snapshot returns the best-so-far clustering (the anytime result). Valid in
// every state; between steps for a running job.
func (j *Job) Snapshot() *cluster.Result {
	j.ctl.Lock()
	if j.result != nil {
		res := j.result
		j.ctl.Unlock()
		return res
	}
	j.ctl.Unlock()
	j.runMu.Lock()
	defer j.runMu.Unlock()
	return j.c.Snapshot()
}

// State returns the current lifecycle state.
func (j *Job) State() JobState {
	j.ctl.Lock()
	defer j.ctl.Unlock()
	return j.state
}

// Result returns the final clustering, or nil while the job is unfinished.
func (j *Job) Result() *cluster.Result {
	j.ctl.Lock()
	defer j.ctl.Unlock()
	return j.result
}

// jobManifest is the durable description of an unfinished job, written next
// to its checkpoint so a restarted daemon can rebuild it.
type jobManifest struct {
	ID      string      `json:"id"`
	Spec    JobSpec     `json:"spec"`
	Source  GraphSource `json:"source"`
	Created time.Time   `json:"created"`
}

// ManagerConfig configures a job Manager.
type ManagerConfig struct {
	// Workers is the number of jobs run concurrently (0 → 2).
	Workers int
	// CheckpointDir enables durable jobs: manifests and atomic checkpoints
	// are written here, and NewManager recovers unfinished jobs from it.
	// Empty disables persistence.
	CheckpointDir string
	// CheckpointEverySteps checkpoints a running job every n completed
	// steps (0 disables periodic checkpoints; pause and drain always
	// checkpoint).
	CheckpointEverySteps int
	// Logger receives job lifecycle events (nil → slog.Default()).
	Logger *slog.Logger
}

// Manager schedules async clustering jobs on a bounded worker pool. Jobs
// survive daemon restarts when a checkpoint directory is configured: every
// unfinished job has a manifest, pause/drain/periodic checkpoints persist
// its state atomically, and NewManager recovers manifests into paused jobs.
type Manager struct {
	reg *Registry
	met *Metrics
	cfg ManagerConfig
	log *slog.Logger

	mu     sync.Mutex
	jobs   map[string]*Job
	order  []string // submission order, for stable listings
	nextID atomic.Int64

	queue    chan *Job
	wg       sync.WaitGroup
	draining atomic.Bool
	closed   atomic.Bool
}

// NewManager starts the worker pool and, when cfg.CheckpointDir is set,
// recovers unfinished jobs left behind by a previous process. Recovered
// jobs come back paused: their checkpoint (when one exists) restores the
// exact suspended position, otherwise they restart from scratch on resume.
func NewManager(reg *Registry, met *Metrics, cfg ManagerConfig) (*Manager, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	m := &Manager{
		reg:   reg,
		met:   met,
		cfg:   cfg,
		log:   cfg.Logger,
		jobs:  make(map[string]*Job),
		queue: make(chan *Job, 1024),
	}
	if cfg.CheckpointDir != "" {
		if err := os.MkdirAll(cfg.CheckpointDir, 0o777); err != nil {
			return nil, fmt.Errorf("creating checkpoint dir: %w", err)
		}
		if err := m.recover(); err != nil {
			return nil, err
		}
	}
	for w := 0; w < cfg.Workers; w++ {
		m.wg.Add(1)
		go func() {
			defer m.wg.Done()
			for j := range m.queue {
				m.runJob(j)
			}
		}()
	}
	return m, nil
}

// Submit validates the spec, builds the Clusterer, and enqueues the job.
func (m *Manager) Submit(spec JobSpec) (*Job, error) {
	if m.closed.Load() || m.draining.Load() {
		return nil, errDraining
	}
	ge, err := m.reg.Get(spec.Graph)
	if err != nil {
		return nil, err
	}
	c, err := core.New(ge.CSR(), spec.Options(ge.G.NumVertices()))
	if err != nil {
		return nil, err
	}
	j := &Job{
		ID:      fmt.Sprintf("j%d", m.nextID.Add(1)),
		Spec:    spec,
		c:       c,
		state:   JobQueued,
		created: time.Now(),
	}
	if err := m.writeManifest(j, ge.Source); err != nil {
		return nil, err
	}
	m.mu.Lock()
	m.jobs[j.ID] = j
	m.order = append(m.order, j.ID)
	m.mu.Unlock()
	m.met.JobsSubmitted.Add(1)
	m.queue <- j
	m.log.Info("job submitted", "job", j.ID, "graph", spec.Graph, "mu", spec.Mu, "eps", spec.Eps)
	return j, nil
}

// Get returns the job with the given id.
func (m *Manager) Get(id string) (*Job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return nil, fmt.Errorf("job %q %w", id, errNoJob)
	}
	return j, nil
}

// List returns every job in submission order.
func (m *Manager) List() []*Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Job, 0, len(m.order))
	for _, id := range m.order {
		out = append(out, m.jobs[id])
	}
	return out
}

// CountByState tallies jobs per lifecycle state.
func (m *Manager) CountByState() map[JobState]int {
	counts := make(map[JobState]int)
	for _, j := range m.List() {
		counts[j.State()]++
	}
	return counts
}

// TotalSims sums the σ evaluations performed by all jobs so far. It does
// not take any job's runMu, so it never waits for a running block or a
// checkpoint write.
func (m *Manager) TotalSims() int64 {
	var total int64
	for _, j := range m.List() {
		total += j.c.Sims()
	}
	return total
}

// Pause asks a running job to park at the next consistent point (reaching
// inside the current block via the step context) and checkpoint.
func (m *Manager) Pause(id string) error {
	j, err := m.Get(id)
	if err != nil {
		return err
	}
	j.ctl.Lock()
	defer j.ctl.Unlock()
	switch j.state {
	case JobRunning:
		j.wantPause = true
		if j.cancelStep != nil {
			j.cancelStep()
		}
		return nil
	case JobPaused:
		return nil
	default:
		return fmt.Errorf("job %s is %s; %w", id, j.state, errNotRunning)
	}
}

// Resume re-enqueues a paused job; it continues from its in-memory state.
func (m *Manager) Resume(id string) error {
	if m.draining.Load() {
		return errDraining
	}
	j, err := m.Get(id)
	if err != nil {
		return err
	}
	j.ctl.Lock()
	if j.state != JobPaused {
		j.ctl.Unlock()
		return fmt.Errorf("job %s is %s; %w", id, j.state, errNotPaused)
	}
	j.state = JobQueued
	j.wantPause = false
	j.ctl.Unlock()
	m.queue <- j
	m.log.Info("job resumed", "job", id)
	return nil
}

// Cancel stops a job. Queued and paused jobs cancel immediately; a running
// job is interrupted inside its current block and parks as canceled. The
// best-so-far snapshot stays queryable; the final result never arrives.
func (m *Manager) Cancel(id string) error {
	j, err := m.Get(id)
	if err != nil {
		return err
	}
	j.ctl.Lock()
	switch j.state {
	case JobQueued, JobPaused:
		// Not owned by a worker (a queued job still in the channel is
		// skipped by runJob's initial state check).
		j.state = JobCanceled
		j.finished = time.Now()
		j.ctl.Unlock()
		m.met.JobsCanceled.Add(1)
		m.removeDurableState(j)
		m.log.Info("job canceled", "job", id)
		return nil
	case JobRunning:
		j.wantCancel = true
		if j.cancelStep != nil {
			j.cancelStep()
		}
		j.ctl.Unlock()
		return nil
	default:
		j.ctl.Unlock()
		return fmt.Errorf("job %s %w (%s)", id, errFinished, j.state)
	}
}

// runJob drives one job on a worker goroutine until it finishes, pauses,
// cancels, or fails. A panic inside the algorithm (re-raised by par's
// panic-safe pool) fails the job instead of killing the daemon.
func (m *Manager) runJob(j *Job) {
	defer func() {
		if r := recover(); r != nil {
			j.ctl.Lock()
			j.state = JobFailed
			j.err = fmt.Errorf("job panicked: %v", r)
			j.finished = time.Now()
			j.ctl.Unlock()
			m.met.JobsFailed.Add(1)
			m.removeDurableState(j)
			m.log.Error("job panicked", "job", j.ID, "panic", fmt.Sprint(r))
		}
	}()

	j.ctl.Lock()
	if j.state != JobQueued { // canceled while queued
		j.ctl.Unlock()
		return
	}
	if m.draining.Load() {
		// Drain began after this job was queued: leave it queued; its
		// manifest (when durable) brings it back after restart.
		j.ctl.Unlock()
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	j.cancelStep = cancel
	j.state = JobRunning
	if j.started.IsZero() {
		j.started = time.Now()
	}
	j.ctl.Unlock()
	defer cancel()

	steps := 0
	for {
		j.ctl.Lock()
		if j.wantCancel {
			j.wantCancel = false
			j.state = JobCanceled
			j.finished = time.Now()
			j.ctl.Unlock()
			m.met.JobsCanceled.Add(1)
			m.removeDurableState(j)
			m.log.Info("job canceled", "job", j.ID)
			return
		}
		if j.wantPause || m.draining.Load() {
			// Checkpoint before publishing paused, so a status that reads
			// paused carries this pause's checkpoint outcome and Drain,
			// which waits for no job running, returns after the write. A
			// cancel that lands during the write still wins.
			j.ctl.Unlock()
			m.checkpoint(j)
			j.ctl.Lock()
			if !j.wantCancel {
				j.wantPause = false
				j.state = JobPaused
				j.ctl.Unlock()
				m.log.Info("job paused", "job", j.ID)
				return
			}
			j.ctl.Unlock()
			continue
		}
		j.ctl.Unlock()

		j.runMu.Lock()
		more, err := j.c.StepCtx(ctx)
		j.runMu.Unlock()
		if err != nil {
			// The step context fired: pause/cancel/drain flags route the
			// next loop iteration. Anything else is a genuine failure.
			j.ctl.Lock()
			routed := j.wantCancel || j.wantPause || m.draining.Load()
			j.ctl.Unlock()
			if routed {
				continue
			}
			j.ctl.Lock()
			j.state = JobFailed
			j.err = err
			j.finished = time.Now()
			j.ctl.Unlock()
			m.met.JobsFailed.Add(1)
			m.removeDurableState(j)
			m.log.Error("job failed", "job", j.ID, "err", err)
			return
		}
		steps++
		if !more {
			j.runMu.Lock()
			res := j.c.Snapshot()
			j.runMu.Unlock()
			j.ctl.Lock()
			j.state = JobDone
			j.result = res
			j.finished = time.Now()
			j.ctl.Unlock()
			m.met.JobsCompleted.Add(1)
			m.removeDurableState(j)
			m.log.Info("job done", "job", j.ID, "clusters", res.NumClusters)
			return
		}
		if m.cfg.CheckpointEverySteps > 0 && steps%m.cfg.CheckpointEverySteps == 0 {
			m.checkpoint(j)
		}
	}
}

// --- durable state --------------------------------------------------------

func (m *Manager) manifestPath(id string) string {
	return filepath.Join(m.cfg.CheckpointDir, id+".json")
}

func (m *Manager) checkpointPath(id string) string {
	return filepath.Join(m.cfg.CheckpointDir, id+".ckpt")
}

// writeManifest persists the job description (not its run state) so a
// restarted daemon can rebuild the job even before its first checkpoint.
// The manifest is fsynced before Submit acknowledges the job.
func (m *Manager) writeManifest(j *Job, src GraphSource) error {
	if m.cfg.CheckpointDir == "" {
		return nil
	}
	man := jobManifest{ID: j.ID, Spec: j.Spec, Source: src, Created: j.created}
	data, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return err
	}
	err = frame.Publish(m.manifestPath(j.ID), "manifest", func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
	if err != nil {
		return fmt.Errorf("job %s %w: %w", j.ID, errNotDurable, err)
	}
	return nil
}

// checkpoint saves the job's suspended state atomically. Failures are
// recorded on the job (and logged) but do not kill it: the in-memory run is
// still intact, only durability across a crash is reduced.
func (m *Manager) checkpoint(j *Job) {
	if m.cfg.CheckpointDir == "" {
		return
	}
	j.runMu.Lock()
	err := j.c.SaveCheckpointFile(m.checkpointPath(j.ID))
	j.runMu.Unlock()
	j.ctl.Lock()
	j.ckptErr = err
	j.ctl.Unlock()
	if err != nil {
		m.log.Error("checkpoint failed", "job", j.ID, "err", err)
	}
}

// removeDurableState deletes a finished job's manifest and checkpoint.
func (m *Manager) removeDurableState(j *Job) {
	if m.cfg.CheckpointDir == "" {
		return
	}
	os.Remove(m.manifestPath(j.ID))
	os.Remove(m.checkpointPath(j.ID))
}

// recover rebuilds unfinished jobs from manifests left by a previous
// process. A job with a checkpoint resumes exactly where it parked; one
// without (crash before the first checkpoint) restarts from scratch. Every
// recovered job starts paused — the operator (or client) resumes it. A
// corrupt manifest or checkpoint, or a missing graph, marks the job failed
// instead of aborting startup: one bad file must not take the service down.
// A manifest j<N>.json that cannot be read or parsed is failed job j<N>,
// and N counts toward the next id, so no new job takes the id of the lost
// one and lands beside its checkpoint; other unreadable files are logged
// and skipped.
func (m *Manager) recover() error {
	entries, err := os.ReadDir(m.cfg.CheckpointDir)
	if err != nil {
		return fmt.Errorf("scanning checkpoint dir: %w", err)
	}
	var maxID int64
	for _, ent := range entries {
		if ent.IsDir() || !strings.HasSuffix(ent.Name(), ".json") {
			continue
		}
		var man jobManifest
		data, err := os.ReadFile(filepath.Join(m.cfg.CheckpointDir, ent.Name()))
		if err == nil {
			if err = json.Unmarshal(data, &man); err == nil && man.ID == "" {
				err = errors.New("manifest names no job")
			}
		}
		if err != nil {
			id := strings.TrimSuffix(ent.Name(), ".json")
			n, idErr := parseJobID(id)
			if idErr != nil || id != fmt.Sprintf("j%d", n) {
				m.log.Error("reading job manifest", "file", ent.Name(), "err", err)
				continue
			}
			maxID = max(maxID, n)
			m.failRecovered(&Job{ID: id, recovered: true}, fmt.Errorf("recovering job %s manifest: %w", id, err))
			continue
		}
		if n, err := parseJobID(man.ID); err == nil && n > maxID {
			maxID = n
		}
		j := &Job{ID: man.ID, Spec: man.Spec, created: man.Created, recovered: true}
		ge, err := m.reg.Load(man.Spec.Graph, man.Source)
		if err != nil {
			m.failRecovered(j, fmt.Errorf("recovering job %s: %w", man.ID, err))
			continue
		}
		ckpt := m.checkpointPath(man.ID)
		if _, statErr := os.Stat(ckpt); statErr == nil {
			c, err := core.LoadCheckpointFile(ge.CSR(), ckpt)
			if err != nil {
				m.failRecovered(j, fmt.Errorf("recovering job %s checkpoint: %w", man.ID, err))
				continue
			}
			j.c = c
		} else {
			c, err := core.New(ge.CSR(), man.Spec.Options(ge.G.NumVertices()))
			if err != nil {
				m.failRecovered(j, fmt.Errorf("recovering job %s: %w", man.ID, err))
				continue
			}
			j.c = c
		}
		j.state = JobPaused
		m.jobs[j.ID] = j
		m.order = append(m.order, j.ID)
		m.met.JobsRecovered.Add(1)
		m.log.Info("job recovered", "job", j.ID, "graph", man.Spec.Graph)
	}
	sort.Slice(m.order, func(a, b int) bool {
		x, _ := parseJobID(m.order[a])
		y, _ := parseJobID(m.order[b])
		return x < y
	})
	m.nextID.Store(maxID)
	return nil
}

// failRecovered registers a recovered-but-unusable job as failed so its
// fate is visible over the API rather than silently dropped. Jobs without a
// restored Clusterer report empty progress.
func (m *Manager) failRecovered(j *Job, err error) {
	if j.c == nil {
		// A placeholder so Status/Snapshot never dereference nil; an empty
		// 1-vertex run is inert.
		if ph, phErr := placeholderClusterer(); phErr == nil {
			j.c = ph
		} else {
			m.log.Error("job unrecoverable", "job", j.ID, "err", err)
			return
		}
	}
	j.state = JobFailed
	j.err = err
	j.finished = time.Now()
	m.jobs[j.ID] = j
	m.order = append(m.order, j.ID)
	m.met.JobsFailed.Add(1)
	m.log.Error("job recovery failed", "job", j.ID, "err", err)
}

// placeholderClusterer backs a failed-at-recovery job whose real state could
// not be restored: a trivial single-vertex run that only serves empty
// Progress/Snapshot reads.
func placeholderClusterer() (*core.Clusterer, error) {
	g, err := graph.FromEdges(1, nil)
	if err != nil {
		return nil, err
	}
	return core.New(g, core.DefaultOptions())
}

func parseJobID(id string) (int64, error) {
	var n int64
	_, err := fmt.Sscanf(id, "j%d", &n)
	return n, err
}

// Drain stops accepting work, interrupts every running job inside its
// current block, checkpoints each at a consistent point, and waits (bounded
// by ctx) for all of them to park. Queued jobs stay queued; durable ones
// come back on restart.
func (m *Manager) Drain(ctx context.Context) error {
	m.draining.Store(true)
	for _, j := range m.List() {
		j.ctl.Lock()
		if j.state == JobRunning && j.cancelStep != nil {
			j.cancelStep()
		}
		j.ctl.Unlock()
	}
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		running := m.CountByState()[JobRunning]
		if running == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("drain timed out with %d jobs still running: %w", running, ctx.Err())
		case <-tick.C:
		}
	}
}

// Close drains (bounded by ctx) and stops the worker pool.
func (m *Manager) Close(ctx context.Context) error {
	err := m.Drain(ctx)
	if m.closed.CompareAndSwap(false, true) {
		close(m.queue)
	}
	m.wg.Wait()
	return err
}
