// Package server implements anyscand: a long-running HTTP service that keeps
// a registry of loaded graphs, runs anySCAN clusterings as asynchronous
// anytime jobs on a worker pool (pause / resume / cancel / checkpoint /
// restart recovery), and answers interactive clustering queries from a
// per-graph query index without recomputing structural similarity.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"strconv"
	"time"

	"anyscan/internal/cluster"
)

// Config configures a Server.
type Config struct {
	// Manager settings (worker pool, checkpoint dir) — see ManagerConfig.
	Manager ManagerConfig
	// IndexThreads is the worker count for query-index construction
	// (0 = GOMAXPROCS).
	IndexThreads int
	// Overload configures admission control, deadlines, rate limits, and the
	// index memory budget; zero values pick production-safe defaults.
	Overload OverloadConfig
	// Logger receives request and lifecycle logs (nil → slog.Default()).
	Logger *slog.Logger
}

// OverloadConfig bounds what the server will take on at once. The design
// invariant is that a request is answered within its deadline — with a fresh
// answer, a stale-marked answer, or a fast 429/503 + Retry-After — never by
// queuing unboundedly.
type OverloadConfig struct {
	// BuildSlots is the number of index builds that may run concurrently;
	// the admission semaphore's capacity is derived from it (0 → 2).
	BuildSlots int
	// QueueDepth bounds the admission wait queue; requests beyond it are
	// shed immediately with 503 + Retry-After (0 → 16, negative → no queue:
	// saturation sheds at once).
	QueueDepth int
	// QueueWait bounds how long an admitted-but-queued request waits before
	// it is shed (0 → 2s).
	QueueWait time.Duration
	// QueryTimeout is the default deadline on index-building routes —
	// /v1/query, /v1/local, mutations, graph loads (0 → 60s, negative →
	// none). Clients may shorten it per request with ?timeout_ms=.
	QueryTimeout time.Duration
	// RequestTimeout is the default deadline on every other route
	// (0 → 15s, negative → none).
	RequestTimeout time.Duration
	// RatePerSec enables per-client token-bucket rate limiting at this
	// request rate (0 → unlimited). Health, readiness, and metrics probes
	// are exempt.
	RatePerSec float64
	// RateBurst is the token-bucket burst (0 → 2×RatePerSec).
	RateBurst int
	// IndexMemoryBudget bounds resident query-index bytes; least-recently-
	// used indexes (stale snapshots first) are evicted above it, except
	// those a live graph pins (0 → unlimited).
	IndexMemoryBudget int64
}

// withDefaults fills zero fields with the production defaults.
func (c OverloadConfig) withDefaults() OverloadConfig {
	if c.BuildSlots == 0 {
		c.BuildSlots = 2
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 16
	}
	if c.QueueWait == 0 {
		c.QueueWait = 2 * time.Second
	}
	if c.QueryTimeout == 0 {
		c.QueryTimeout = 60 * time.Second
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 15 * time.Second
	}
	return c
}

// Server wires the graph registry (with each graph's indexes and live
// epochs) and the job manager behind an http.Handler.
type Server struct {
	reg     *Registry
	jobs    *Manager
	met     *Metrics
	log     *slog.Logger
	mux     *http.ServeMux
	admit   *admission
	limiter *rateLimiter
	ocfg    OverloadConfig
}

// New builds a Server, recovering any unfinished jobs from the checkpoint
// directory.
func New(cfg Config) (*Server, error) {
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	if cfg.Manager.Logger == nil {
		cfg.Manager.Logger = cfg.Logger
	}
	met := &Metrics{}
	ocfg := cfg.Overload.withDefaults()
	admit := newAdmission(ocfg.BuildSlots, ocfg.QueueDepth, ocfg.QueueWait, met)
	reg := newRegistry(met, cfg.IndexThreads, admit, ocfg.IndexMemoryBudget)
	jobs, err := NewManager(reg, met, cfg.Manager)
	if err != nil {
		return nil, err
	}
	s := &Server{
		reg:     reg,
		jobs:    jobs,
		met:     met,
		log:     cfg.Logger,
		mux:     http.NewServeMux(),
		admit:   admit,
		limiter: newRateLimiter(ocfg.RatePerSec, ocfg.RateBurst),
		ocfg:    ocfg,
	}
	s.routes()
	return s, nil
}

// Metrics exposes the server's counters (used by tests and the daemon).
func (s *Server) Metrics() *Metrics { return s.met }

// Registry exposes the graph registry (used by the daemon for preloads).
func (s *Server) Registry() *Registry { return s.reg }

// Drain stops accepting jobs, parks every running job at a consistent
// checkpoint, and waits for them (bounded by ctx). Called on SIGTERM before
// http.Server.Shutdown.
func (s *Server) Drain(ctx context.Context) error { return s.jobs.Close(ctx) }

// routes registers every endpoint under the versioned prefix /v1.
func (s *Server) routes() {
	// Every route carries a default deadline, propagated through the request
	// context into index builds and parallel loops: heavy routes (index-
	// building reads and mutations, graph loads) get the query timeout,
	// everything else the request timeout. Clients may shorten (never
	// extend) the deadline with ?timeout_ms=.
	heavy := func(h http.HandlerFunc) http.HandlerFunc { return s.withDeadline(s.ocfg.QueryTimeout, h) }
	light := func(h http.HandlerFunc) http.HandlerFunc { return s.withDeadline(s.ocfg.RequestTimeout, h) }
	s.mux.HandleFunc("POST /v1/graphs", heavy(s.handleLoadGraph))
	s.mux.HandleFunc("GET /v1/graphs", light(s.handleListGraphs))
	s.mux.HandleFunc("DELETE /v1/graphs/{name}", light(s.handleEvictGraph))
	s.mux.HandleFunc("POST /v1/graphs/{name}/edges", heavy(s.handleMutate))

	s.mux.HandleFunc("POST /v1/jobs", light(s.handleSubmitJob))
	s.mux.HandleFunc("GET /v1/jobs", light(s.handleListJobs))
	s.mux.HandleFunc("GET /v1/jobs/{id}", light(s.handleJobStatus))
	s.mux.HandleFunc("GET /v1/jobs/{id}/snapshot", light(s.handleJobSnapshot))
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", light(s.handleJobResult))
	s.mux.HandleFunc("POST /v1/jobs/{id}/pause", light(s.jobControl((*Manager).Pause)))
	s.mux.HandleFunc("POST /v1/jobs/{id}/resume", light(s.jobControl((*Manager).Resume)))
	s.mux.HandleFunc("POST /v1/jobs/{id}/cancel", light(s.jobControl((*Manager).Cancel)))

	// Reads may build the graph's index on first touch, so they get the
	// heavy deadline.
	s.mux.HandleFunc("GET /v1/query", heavy(s.handleQuery))
	s.mux.HandleFunc("GET /v1/local", heavy(s.handleLocal))

	s.mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/readyz", s.handleReadyz)
}

// withDeadline attaches the route's default deadline to the request context
// and pushes it down to the transport: the connection's read deadline bounds
// slow-loris bodies, the write deadline bounds stuck clients. A client may
// shorten the deadline with ?timeout_ms= (capped at the route default so the
// server stays in charge of its own worst case). d <= 0 disables the
// deadline.
func (s *Server) withDeadline(d time.Duration, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		// timeout must be a per-request copy: d is captured by every request
		// on this route, so assigning to it would make one request's
		// ?timeout_ms= the route's deadline forever after.
		timeout := d
		req, err := parseTimeoutParam(r.URL.Query())
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		if req > 0 && (timeout <= 0 || req < timeout) {
			timeout = req
		}
		if timeout <= 0 {
			h(w, r)
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), timeout)
		defer cancel()
		rc := http.NewResponseController(w)
		rc.SetReadDeadline(time.Now().Add(timeout))
		rc.SetWriteDeadline(time.Now().Add(timeout + 5*time.Second))
		h(w, r.WithContext(ctx))
	}
}

// ServeHTTP implements http.Handler with per-client rate limiting, request
// logging, and latency observation around the mux.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
	if s.limiter != nil && !probePath(r.URL.Path) {
		if ok, retryAfter := s.limiter.Allow(clientKey(r), time.Now()); !ok {
			s.met.RateLimited.Add(1)
			writeError(sw, 0, &OverloadError{
				Code:       http.StatusTooManyRequests,
				RetryAfter: retryAfter,
				Reason:     "rate-limit",
			})
			s.observe(r, sw, start)
			return
		}
	}
	s.mux.ServeHTTP(sw, r)
	s.observe(r, sw, start)
}

func (s *Server) observe(r *http.Request, sw *statusWriter, start time.Time) {
	d := time.Since(start)
	s.met.ObserveLatency(d)
	s.log.Info("request",
		"method", r.Method, "path", r.URL.Path,
		"status", sw.status, "ms", float64(d.Microseconds())/1000)
}

// probePath reports whether the path is an operational probe exempt from
// rate limiting — throttling the load balancer's health checks or the
// metrics scraper only makes an overload harder to see.
func probePath(path string) bool {
	switch path {
	case "/v1/healthz", "/v1/readyz", "/v1/metrics":
		return true
	}
	return false
}

// clientKey identifies the client for rate limiting: the remote host without
// the ephemeral port, so one misbehaving client maps to one bucket across
// connections.
func clientKey(r *http.Request) string {
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// writeError answers a non-2xx response. Overload errors override code with
// their own status and carry a Retry-After header; context deadline/cancel
// errors become 503 + Retry-After (the request can be retried against a less
// loaded moment). Any other error uses code as given.
func writeError(w http.ResponseWriter, code int, err error) {
	var oe *OverloadError
	switch {
	case errors.As(err, &oe):
		w.Header().Set("Retry-After", retryAfterSeconds(oe.RetryAfter))
		code = oe.Code
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		w.Header().Set("Retry-After", "1")
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, ErrorResponse{Error: err.Error()})
}

// retryAfterSeconds renders a Retry-After header value (whole seconds,
// minimum 1 — the header has no sub-second form).
func retryAfterSeconds(d time.Duration) string {
	secs := int(d.Round(time.Second) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

// maxBodyBytes bounds every JSON request body. The largest legitimate one
// is a mutation batch: 1% of the edges of a 5.6M-edge graph is about 3 MiB.
const maxBodyBytes = 32 << 20

// decodeBody decodes r's JSON body into v, reading at most maxBodyBytes.
// On failure it answers the request itself, 413 for a body over the bound
// and 400 for anything else, and returns false.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v)
	if err == nil {
		return true
	}
	code := http.StatusBadRequest
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		code = http.StatusRequestEntityTooLarge
	}
	writeError(w, code, fmt.Errorf("decoding request: %w", err))
	return false
}

// The registry's and the job manager's domain errors. Each is wrapped with
// %w into a message that names the graph or job, so errorCode matches them
// with errors.Is, never by message text (which embeds client-chosen names).
var (
	errNotLoaded   = errors.New("is not loaded")
	errOtherSource = errors.New("is already loaded from a different source; evict it first")
	errNoJob       = errors.New("not found")
	errDraining    = errors.New("server is draining; not accepting jobs")
	errNotRunning  = errors.New("only running jobs pause")
	errNotPaused   = errors.New("only paused jobs resume")
	errFinished    = errors.New("already finished")
	errNotDurable  = errors.New("could not be made durable")
)

// errorCode maps a domain error to an HTTP status.
func errorCode(err error) int {
	switch {
	case errors.Is(err, errNotLoaded), errors.Is(err, errNoJob):
		return http.StatusNotFound
	case errors.Is(err, errDraining):
		return http.StatusServiceUnavailable
	case errors.Is(err, errOtherSource), errors.Is(err, errNotRunning),
		errors.Is(err, errNotPaused), errors.Is(err, errFinished):
		return http.StatusConflict
	case errors.Is(err, errNotDurable):
		return http.StatusInternalServerError
	default:
		return http.StatusBadRequest
	}
}

// --- graphs ---------------------------------------------------------------

func (s *Server) handleLoadGraph(w http.ResponseWriter, r *http.Request) {
	var req LoadGraphRequest
	if !decodeBody(w, r, &req) {
		return
	}
	e, err := s.reg.Load(req.Name, req.GraphSource)
	if err != nil {
		writeError(w, errorCode(err), err)
		return
	}
	writeJSON(w, http.StatusOK, e.Info())
}

func (s *Server) handleListGraphs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.reg.List())
}

func (s *Server) handleEvictGraph(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if err := s.reg.Evict(name); err != nil {
		writeError(w, errorCode(err), err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// --- jobs -----------------------------------------------------------------

func (s *Server) handleSubmitJob(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	if !decodeBody(w, r, &spec) {
		return
	}
	j, err := s.jobs.Submit(spec)
	if err != nil {
		writeError(w, errorCode(err), err)
		return
	}
	writeJSON(w, http.StatusAccepted, j.Status())
}

func (s *Server) handleListJobs(w http.ResponseWriter, r *http.Request) {
	jobs := s.jobs.List()
	out := make([]JobStatus, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.Status())
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	j, err := s.jobs.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, errorCode(err), err)
		return
	}
	writeJSON(w, http.StatusOK, j.Status())
}

func (s *Server) handleJobSnapshot(w http.ResponseWriter, r *http.Request) {
	j, err := s.jobs.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, errorCode(err), err)
		return
	}
	writeSnapshot(w, r, j, j.Snapshot())
}

func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	j, err := s.jobs.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, errorCode(err), err)
		return
	}
	res := j.Result()
	if res == nil {
		writeError(w, http.StatusConflict,
			fmt.Errorf("job %s is %s; the final result exists only for done jobs", j.ID, j.State()))
		return
	}
	writeSnapshot(w, r, j, res)
}

func (s *Server) jobControl(verb func(*Manager, string) error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		if err := verb(s.jobs, id); err != nil {
			writeError(w, errorCode(err), err)
			return
		}
		j, err := s.jobs.Get(id)
		if err != nil {
			writeError(w, errorCode(err), err)
			return
		}
		writeJSON(w, http.StatusOK, j.Status())
	}
}

// writeSnapshot answers a job's snapshot or result res, with its
// assignments when the request asks for them.
func writeSnapshot(w http.ResponseWriter, r *http.Request, j *Job, res *cluster.Result) {
	st := j.Status()
	writeBody(w, SnapshotResponse{
		ID:                j.ID,
		State:             st.State,
		Progress:          st.Progress,
		ClusteringPayload: clusteringPayload(res),
	}, assignmentMembers(res, wantAssignments(r)))
}

func wantAssignments(r *http.Request) bool {
	v := r.URL.Query().Get("assignments")
	return v == "1" || v == "true"
}

// --- observability --------------------------------------------------------

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	counts := s.jobs.CountByState()
	indexes, indexBytes, liveGraphs, epochLag := s.reg.stateStats()
	graphBytes, graphResident := s.reg.BytesUsage()
	gauges := []Gauge{
		{"anyscand_graph_bytes", "Logical bytes of all registry graph storage.", float64(graphBytes)},
		{"anyscand_graph_resident_bytes", "Heap-resident registry graph bytes (mmap-backed sections excluded).", float64(graphResident)},
		{"anyscand_live_graphs", "Graphs with a live mutable epoch chain.", float64(liveGraphs)},
		{"anyscand_epoch_lag", "Largest gap between a demanded epoch and the newest published one.", float64(epochLag)},
		{"anyscand_graphs_loaded", "Graphs resident in the registry.", float64(s.reg.Len())},
		{"anyscand_indexes_cached", "Query indexes resident in the cache.", float64(indexes)},
		{"anyscand_index_cache_hit_rate", "Query-index cache hit rate.", s.met.IndexHitRate()},
		{"anyscand_job_sim_evals", "Similarity evaluations across all jobs.", float64(s.jobs.TotalSims())},
		{"anyscand_index_memory_bytes", "Resident query-index bytes (fresh + stale).", float64(indexBytes)},
		{"anyscand_admission_queue_depth", "Requests waiting in the admission queue.", float64(s.admit.sem.QueueLen())},
	}
	for _, st := range []JobState{JobQueued, JobRunning, JobPaused, JobDone, JobFailed, JobCanceled} {
		gauges = append(gauges, Gauge{
			Name:  "anyscand_jobs_" + string(st),
			Help:  fmt.Sprintf("Jobs currently %s.", st),
			Value: float64(counts[st]),
		})
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.met.WritePrometheus(w, gauges)
}

// handleHealthz is the liveness probe: the process is up and serving HTTP.
// It deliberately never looks at drain or load state — restarting a draining
// or briefly saturated daemon would only lose work.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz is the readiness probe: 503 while draining (shutdown in
// progress) or while the admission queue is saturated, so load balancers
// steer new traffic elsewhere before requests get shed.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	switch {
	case s.jobs.draining.Load():
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
	case s.admit.sem.Saturated():
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "saturated"})
	default:
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	}
}
