package server

import (
	"time"

	"anyscan/internal/cluster"
	"anyscan/internal/core"
)

// This file defines the wire types of the anyscand HTTP API, shared by the
// server handlers, the Go client, and the CLI verbs. All payloads are JSON.

// Graph storage backends a registry entry can be served from.
const (
	// FormatCSR is the flat in-memory CSR backend (the default).
	FormatCSR = "csr"
	// FormatCompressed serves the varint-compressed backend: .csrz files
	// stay mmap-backed (near-zero load, larger-than-RAM graphs); other
	// sources are compressed in memory after loading.
	FormatCompressed = "compressed"
)

// GraphSource describes where a registry graph comes from, so a job manifest
// can reload it after a daemon restart.
type GraphSource struct {
	// Path is a graph file (.metis/.graph, .bin, .csrz, or edge list),
	// exclusive with Dataset.
	Path string `json:"path,omitempty"`
	// Dataset is a synthetic dataset stand-in name (e.g. "GR01L").
	Dataset string `json:"dataset,omitempty"`
	// Scale is the dataset scale factor (0 → 1.0); ignored for Path.
	Scale float64 `json:"scale,omitempty"`
	// Format selects the storage backend: "" or FormatCSR for flat,
	// FormatCompressed for the varint-compressed backend.
	Format string `json:"format,omitempty"`
}

// LoadGraphRequest asks the server to load a graph into the registry.
type LoadGraphRequest struct {
	// Name is the registry key; defaults to the dataset name or the file
	// base name.
	Name string `json:"name,omitempty"`
	GraphSource
}

// GraphInfo describes one loaded graph.
type GraphInfo struct {
	Name     string      `json:"name"`
	Source   GraphSource `json:"source"`
	Vertices int         `json:"vertices"`
	Edges    int64       `json:"edges"`
	AvgDeg   float64     `json:"avg_degree"`
	Loaded   time.Time   `json:"loaded"`
}

// JobSpec are the clustering parameters of a submitted job.
type JobSpec struct {
	Graph        string  `json:"graph"`
	Mu           int     `json:"mu"`
	Eps          float64 `json:"eps"`
	Alpha        int     `json:"alpha,omitempty"`   // 0 → max(128, |V|/128)
	Beta         int     `json:"beta,omitempty"`    // 0 → like alpha
	Threads      int     `json:"threads,omitempty"` // 0 → GOMAXPROCS
	Seed         int64   `json:"seed,omitempty"`
	ResolveRoles bool    `json:"resolve_roles,omitempty"`
	EdgeMemo     bool    `json:"edge_memo,omitempty"`
}

// Options converts the spec into core options for a run on a graph with n
// vertices, applying the same automatic block sizing as the CLI.
func (s JobSpec) Options(n int) core.Options {
	o := core.DefaultOptions()
	o.Mu, o.Eps = s.Mu, s.Eps
	o.Alpha, o.Beta = s.Alpha, s.Beta
	if o.Alpha <= 0 {
		o.Alpha = core.AutoBlock(n)
	}
	if o.Beta <= 0 {
		o.Beta = o.Alpha
	}
	if s.Threads > 0 {
		o.Threads = s.Threads
	}
	if s.Seed != 0 {
		o.Seed = s.Seed
	}
	o.ResolveRoles = s.ResolveRoles
	o.EdgeMemo = s.EdgeMemo
	return o
}

// JobState is the lifecycle state of an async clustering job.
type JobState string

// Job lifecycle states. Transitions:
//
//	queued → running → done | failed | canceled
//	running ⇄ paused (pause/resume; drain pauses all running jobs)
//	queued | paused → canceled
//
// A daemon restart recovers unfinished jobs from their manifests into the
// paused state; resuming continues from the latest checkpoint (or from
// scratch when the job never checkpointed).
const (
	JobQueued   JobState = "queued"
	JobRunning  JobState = "running"
	JobPaused   JobState = "paused"
	JobDone     JobState = "done"
	JobFailed   JobState = "failed"
	JobCanceled JobState = "canceled"
)

// Terminal reports whether no further transitions are possible.
func (s JobState) Terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCanceled
}

// ProgressInfo is the wire form of core.Progress.
type ProgressInfo struct {
	Phase      string  `json:"phase"`
	Iterations int     `json:"iterations"`
	ElapsedMS  float64 `json:"elapsed_ms"`
	SuperNodes int     `json:"super_nodes"`
	Vertices   int     `json:"vertices"`
	Touched    int     `json:"touched"`
	Sims       int64   `json:"sims"`
	Done       bool    `json:"done"`
}

func progressInfo(p core.Progress) ProgressInfo {
	return ProgressInfo{
		Phase:      p.Phase.String(),
		Iterations: p.Iterations,
		ElapsedMS:  float64(p.Elapsed.Microseconds()) / 1000,
		SuperNodes: p.SuperNodes,
		Vertices:   p.Vertices,
		Touched:    p.Touched,
		Sims:       p.Sims,
		Done:       p.Done,
	}
}

// JobStatus is the job-status payload of GET /jobs and GET /jobs/{id}.
type JobStatus struct {
	ID            string       `json:"id"`
	Graph         string       `json:"graph"`
	Spec          JobSpec      `json:"spec"`
	State         JobState     `json:"state"`
	Error         string       `json:"error,omitempty"`
	CheckpointErr string       `json:"checkpoint_error,omitempty"`
	Recovered     bool         `json:"recovered,omitempty"`
	Progress      ProgressInfo `json:"progress"`
	Created       time.Time    `json:"created"`
	Started       time.Time    `json:"started,omitzero"`
	Finished      time.Time    `json:"finished,omitzero"`
}

// RoleCounts is the wire form of cluster.Counts.
type RoleCounts struct {
	Cores        int `json:"cores"`
	Borders      int `json:"borders"`
	Hubs         int `json:"hubs"`
	Outliers     int `json:"outliers"`
	Unclassified int `json:"unclassified"`
}

func roleCounts(c cluster.Counts) RoleCounts {
	return RoleCounts{
		Cores:        c.Cores,
		Borders:      c.Borders,
		Hubs:         c.Hubs,
		Outliers:     c.Outliers,
		Unclassified: c.Unclassified,
	}
}

// Assignments is the full per-vertex clustering, requested with
// ?assignments=1. Labels[v] is the dense cluster id or -1; Roles[v] encodes
// cluster.Role (0 unclassified, 1 outlier, 2 hub, 3 border, 4 core). The
// server writes both arrays itself (assignmentMembers, wire.go).
type Assignments struct {
	Labels Ints[int32] `json:"labels"`
	Roles  Ints[int8]  `json:"roles"`
}

// ClusteringPayload is a clustering summary, shared by the anytime snapshot,
// the final result, and the interactive /v1/query clustering. Assignments
// is its last member, and every wire type that embeds it declares no
// member after it that a clustering with assignments carries.
type ClusteringPayload struct {
	Clusters    int          `json:"clusters"`
	Counts      RoleCounts   `json:"counts"`
	Assignments *Assignments `json:"assignments,omitempty"`
}

// clusteringPayload is r's summary; the assignments go out through
// assignmentMembers.
func clusteringPayload(r *cluster.Result) ClusteringPayload {
	return ClusteringPayload{Clusters: r.NumClusters, Counts: roleCounts(r.RoleCounts())}
}

// SnapshotResponse is the anytime snapshot of a job mid-run.
type SnapshotResponse struct {
	ID       string       `json:"id"`
	State    JobState     `json:"state"`
	Progress ProgressInfo `json:"progress"`
	ClusteringPayload
}

// QueryResponse answers GET /v1/query. With a single eps parameter the
// response carries the exact clustering at (μ, ε) in the embedded
// ClusteringPayload; with an eps list (or none) it carries one summary point
// per probed ε in Points.
type QueryResponse struct {
	Graph string  `json:"graph"`
	Mu    int     `json:"mu"`
	Eps   float64 `json:"eps,omitempty"` // single-ε form only
	// Approx echoes the accuracy dial δ the answer was actually computed at:
	// the requested ?approx= value when a sketch-based index served it,
	// omitted (0) when the answer is exact — including approx requests that
	// fell back to exact serving (weighted graphs, live epoch chains).
	Approx   float64 `json:"approx,omitempty"`
	CacheHit bool    `json:"cache_hit"`
	// Stale marks a degraded-mode answer: the fresh index build failed or
	// was shed, so the response was served from the last good index (which
	// may describe another generation of the graph with the same vertex
	// count). The response also carries an X-Anyscan-Stale: 1 header.
	Stale bool `json:"stale,omitempty"`
	// Epoch is the live-graph epoch the answer was computed on; present only
	// for graphs that have been mutated (see POST /v1/graphs/{name}/edges).
	Epoch   int64   `json:"epoch,omitempty"`
	BuildMS float64 `json:"build_ms,omitempty"` // index build time (cache miss only)
	QueryMS float64 `json:"query_ms"`
	ClusteringPayload
	Points []SweepPoint `json:"points,omitempty"` // profile form only
}

// SweepPoint is one ε of a profile-form QueryResponse.
type SweepPoint struct {
	Eps      float64    `json:"eps"`
	Clusters int        `json:"clusters"`
	Counts   RoleCounts `json:"counts"`
}

// MutationSpec is one edge mutation of a MutateRequest. Op is "add" (insert
// the edge, or update its weight when present), "delete" (idempotent), or
// "reweight" (errors when the edge is absent). Endpoints are unordered; w is
// ignored for deletes.
type MutationSpec struct {
	Op string  `json:"op"`
	U  int32   `json:"u"`
	V  int32   `json:"v"`
	W  float32 `json:"w,omitempty"`
}

// MutateRequest is the body of POST /v1/graphs/{name}/edges: one batch of
// edge mutations, applied atomically (any invalid mutation rejects the whole
// batch before any state changes).
type MutateRequest struct {
	Mutations []MutationSpec `json:"mutations"`
}

// MutateResponse reports one applied batch. Epoch is the read-your-writes
// token: a GET /v1/query with ?min_epoch=<Epoch> is guaranteed to observe
// this batch (or later state). A batch whose net effect was nothing returns
// the unchanged current epoch with Applied == 0.
type MutateResponse struct {
	Graph           string  `json:"graph"`
	Epoch           int64   `json:"epoch"`
	Applied         int     `json:"applied"`
	NoOps           int     `json:"noops"`
	Vertices        int     `json:"vertices"`
	Edges           int64   `json:"edges"`
	PublishMS       float64 `json:"publish_ms"`
	SigmaRecomputed int64   `json:"sigma_recomputed"`
}

// LocalResponse answers GET /v1/local: the seed-centered community query.
// Role is the seed's role under the full clustering at (μ, ε) ("core",
// "border", "hub", "outlier"); Members/Roles carry the exact community when
// the seed belongs to one (suppress with ?members=0 to get the summary
// only). Touched is the number of vertices the expansion visited — the
// output-proportional cost of the answer.
type LocalResponse struct {
	Graph string  `json:"graph"`
	Seed  int32   `json:"seed"`
	Mu    int     `json:"mu"`
	Eps   float64 `json:"eps"`
	Role  string  `json:"role"`
	// Approx echoes the accuracy dial δ the answer was actually computed at
	// (omitted when exact — see QueryResponse.Approx).
	Approx   float64 `json:"approx,omitempty"`
	CacheHit bool    `json:"cache_hit"`
	// Stale marks a degraded-mode answer served from the last good index;
	// the response also carries an X-Anyscan-Stale: 1 header.
	Stale bool `json:"stale,omitempty"`
	// Epoch is the live-graph epoch the answer was computed on; present only
	// for graphs that have been mutated.
	Epoch   int64       `json:"epoch,omitempty"`
	BuildMS float64     `json:"build_ms,omitempty"` // index build time (cache miss only)
	QueryMS float64     `json:"query_ms"`
	Size    int         `json:"size"`    // community size (0 for noise seeds)
	Touched int         `json:"touched"` // vertices the expansion visited
	Members Ints[int32] `json:"members,omitempty"`
	// Roles is parallel to Members, encoding cluster.Role per member
	// (3 border, 4 core). The server writes Members and Roles, the last two
	// members, itself (localMembers, wire.go).
	Roles Ints[int8] `json:"roles,omitempty"`
}

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
}
