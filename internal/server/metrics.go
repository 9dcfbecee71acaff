package server

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"
)

// latencyBuckets are the upper bounds (milliseconds) of the HTTP request
// latency histogram; a final implicit +Inf bucket catches the rest.
var latencyBuckets = [...]float64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000}

// Metrics aggregates the service's observability counters. All fields are
// atomics so handlers and workers update them without locking; /metrics
// renders them in the Prometheus text exposition format together with
// gauges sampled at scrape time.
type Metrics struct {
	JobsSubmitted atomic.Int64
	JobsCompleted atomic.Int64
	JobsFailed    atomic.Int64
	JobsCanceled  atomic.Int64
	JobsRecovered atomic.Int64

	QueriesServed atomic.Int64 // /v1/query answers (clusterings and profiles)
	IndexHits     atomic.Int64
	IndexMisses   atomic.Int64
	IndexSims     atomic.Int64 // σ evaluations spent building per-graph indexes
	IndexBuildUS  atomic.Int64 // wall time spent building indexes (µs)
	QueryUS       atomic.Int64 // wall time spent answering queries (µs)
	IndexEvicted  atomic.Int64 // indexes dropped by the memory budget

	MutationsTotal  atomic.Int64 // edge mutations accepted via POST /graphs/{name}/edges
	EpochsPublished atomic.Int64 // live-graph epochs published (effective batches)
	EpochPublishUS  atomic.Int64 // wall time from entering Apply to epoch visibility (µs)

	LocalQueries  atomic.Int64 // /v1/local seed-centered community queries answered
	LocalFrontier atomic.Int64 // vertices touched by local-query frontier expansions
	LocalQueryUS  atomic.Int64 // wall time spent answering local queries (µs)

	ApproxQueries      atomic.Int64 // queries answered from a sketch-based approximate index
	ApproxResolvedArcs atomic.Int64 // near-threshold arcs resolved exactly while answering approx queries
	ApproxLiveExact    atomic.Int64 // approx requests on live graphs served exactly instead
	ApproxIndexBuilds  atomic.Int64 // approximate (delta > 0) index builds completed

	AdmissionAdmitted atomic.Int64 // heavy work admitted through the semaphore
	AdmissionQueued   atomic.Int64 // admissions that waited in the bounded queue
	AdmissionShed     atomic.Int64 // heavy work refused (queue full / timed out)
	RateLimited       atomic.Int64 // requests refused by per-client rate limits
	StaleServed       atomic.Int64 // queries answered from a stale index
	DeadlineExceeded  atomic.Int64 // requests cut short by their deadline

	HTTPRequests atomic.Int64
	latencyCount [len(latencyBuckets) + 1]atomic.Int64
	latencySumUS atomic.Int64
}

// ObserveLatency records one HTTP request duration in the histogram.
func (m *Metrics) ObserveLatency(d time.Duration) {
	m.HTTPRequests.Add(1)
	m.latencySumUS.Add(d.Microseconds())
	ms := float64(d.Microseconds()) / 1000
	for i, ub := range latencyBuckets {
		if ms <= ub {
			m.latencyCount[i].Add(1)
			return
		}
	}
	m.latencyCount[len(latencyBuckets)].Add(1)
}

// IndexHitRate returns hits/(hits+misses), 0 when no queries were made.
func (m *Metrics) IndexHitRate() float64 {
	h, miss := m.IndexHits.Load(), m.IndexMisses.Load()
	if h+miss == 0 {
		return 0
	}
	return float64(h) / float64(h+miss)
}

// Gauge is one point-in-time value sampled by the server at scrape time
// (loaded graphs, jobs per state, σ evaluations across jobs, …).
type Gauge struct {
	Name  string
	Help  string
	Value float64
}

// WritePrometheus renders every counter plus the sampled gauges in the
// Prometheus text format (hand-rolled; the module stays stdlib-only).
func (m *Metrics) WritePrometheus(w io.Writer, gauges []Gauge) {
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	counter("anyscand_jobs_submitted_total", "Clustering jobs submitted.", m.JobsSubmitted.Load())
	counter("anyscand_jobs_completed_total", "Clustering jobs run to completion.", m.JobsCompleted.Load())
	counter("anyscand_jobs_failed_total", "Clustering jobs that failed.", m.JobsFailed.Load())
	counter("anyscand_jobs_canceled_total", "Clustering jobs canceled.", m.JobsCanceled.Load())
	counter("anyscand_jobs_recovered_total", "Jobs recovered from checkpoints after a restart.", m.JobsRecovered.Load())
	counter("anyscand_queries_total", "Interactive clustering queries served.", m.QueriesServed.Load())
	counter("anyscand_index_cache_hits_total", "Query-index cache hits.", m.IndexHits.Load())
	counter("anyscand_index_cache_misses_total", "Query-index cache misses (builds).", m.IndexMisses.Load())
	counter("anyscand_index_sim_evals_total", "Similarity evaluations spent building query indexes.", m.IndexSims.Load())
	counter("anyscand_http_requests_total", "HTTP requests handled.", m.HTTPRequests.Load())
	counter("anyscand_index_evicted_total", "Query indexes evicted by the memory budget.", m.IndexEvicted.Load())
	counter("anyscand_admission_admitted_total", "Heavy requests admitted through the semaphore.", m.AdmissionAdmitted.Load())
	counter("anyscand_admission_queued_total", "Heavy requests that waited in the admission queue.", m.AdmissionQueued.Load())
	counter("anyscand_admission_shed_total", "Heavy requests shed (queue full or wait timed out).", m.AdmissionShed.Load())
	counter("anyscand_rate_limited_total", "Requests refused by per-client rate limits.", m.RateLimited.Load())
	counter("anyscand_stale_served_total", "Queries answered from a stale index in degraded mode.", m.StaleServed.Load())
	counter("anyscand_deadline_exceeded_total", "Requests cut short by their deadline.", m.DeadlineExceeded.Load())
	counter("anyscand_mutations_total", "Edge mutations accepted on live graphs.", m.MutationsTotal.Load())
	fmt.Fprintf(w, "# HELP anyscand_epoch_publish_seconds Time from entering Apply to the new epoch being visible to readers.\n# TYPE anyscand_epoch_publish_seconds summary\nanyscand_epoch_publish_seconds_sum %g\nanyscand_epoch_publish_seconds_count %d\n",
		float64(m.EpochPublishUS.Load())/1e6, m.EpochsPublished.Load())
	fmt.Fprintf(w, "# HELP anyscand_index_build_ms_total Wall time spent building query indexes.\n# TYPE anyscand_index_build_ms_total counter\nanyscand_index_build_ms_total %g\n",
		float64(m.IndexBuildUS.Load())/1000)
	fmt.Fprintf(w, "# HELP anyscand_query_ms_total Wall time spent answering interactive queries.\n# TYPE anyscand_query_ms_total counter\nanyscand_query_ms_total %g\n",
		float64(m.QueryUS.Load())/1000)
	counter("anyscand_approx_queries_total", "Queries answered from a sketch-based approximate index.", m.ApproxQueries.Load())
	counter("anyscand_approx_resolved_arcs_total", "Near-threshold arcs resolved exactly while answering approximate queries.", m.ApproxResolvedArcs.Load())
	counter("anyscand_approx_live_exact_total", "Approximate requests on live graphs served exactly instead.", m.ApproxLiveExact.Load())
	counter("anyscand_approx_index_builds_total", "Approximate (delta > 0) index builds completed.", m.ApproxIndexBuilds.Load())
	counter("anyscand_local_queries_total", "Seed-centered local community queries served.", m.LocalQueries.Load())
	counter("anyscand_local_frontier_vertices_total", "Vertices touched by local-query frontier expansions.", m.LocalFrontier.Load())
	fmt.Fprintf(w, "# HELP anyscand_local_query_ms_total Wall time spent answering local community queries.\n# TYPE anyscand_local_query_ms_total counter\nanyscand_local_query_ms_total %g\n",
		float64(m.LocalQueryUS.Load())/1000)

	fmt.Fprintf(w, "# HELP anyscand_http_request_duration_ms HTTP request latency.\n")
	fmt.Fprintf(w, "# TYPE anyscand_http_request_duration_ms histogram\n")
	var cum int64
	for i, ub := range latencyBuckets {
		cum += m.latencyCount[i].Load()
		fmt.Fprintf(w, "anyscand_http_request_duration_ms_bucket{le=\"%g\"} %d\n", ub, cum)
	}
	cum += m.latencyCount[len(latencyBuckets)].Load()
	fmt.Fprintf(w, "anyscand_http_request_duration_ms_bucket{le=\"+Inf\"} %d\n", cum)
	fmt.Fprintf(w, "anyscand_http_request_duration_ms_sum %g\n", float64(m.latencySumUS.Load())/1000)
	fmt.Fprintf(w, "anyscand_http_request_duration_ms_count %d\n", cum)

	for _, g := range gauges {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", g.Name, g.Help, g.Name, g.Name, g.Value)
	}
}
