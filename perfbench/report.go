package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/metrics"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run's result line. Every workload
// reports all of them; BENCHMARK.json lists the same names and units.
// cpu_ms_per_op is the process's CPU time over the timed phase per completed
// request. The wall-clock figures (throughput_ops, op_p50_ms and the
// per-kind percentiles) are report lines only: on a shared host they move
// with the time the process waits for a CPU (README.md, "Why it is built this
// way").
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cpu_ms_per_op", "ms"},
	{"heap_mb", "MB"},
}

// perLayer are the metrics of a traced run's result line (README.md says
// which end-to-end metric each should move).
var perLayer = []metricDef{
	{"simeval.evals", "count"},
	{"simeval.ns_per_eval", "ns"},
	{"index.build_ms", "ms"},
	{"index.build_t1_ms", "ms"},
	{"index.build_speedup", "ratio"},
	{"index.approx_build_ms", "ms"},
	{"index.approx_sketched_frac", "ratio"},
	{"index.bytes", "bytes"},
	{"index.query_ms", "ms"},
	{"index.core_order_ms", "ms"},
	{"sweep.profile_ms", "ms"},
	{"local.query_us", "us"},
	{"local.touched_per_query", "count"},
	{"local.members_per_touched", "ratio"},
	{"live.apply_ms", "ms"},
	{"live.sigma_recomputed_per_batch", "count"},
	{"live.publish_ms", "ms"},
	{"live.epoch_query_ms", "ms"},
	{"live.epoch_local_us", "us"},
	{"server.handler_ms.query", "ms"},
	{"server.handler_ms.local", "ms"},
	{"server.handler_ms.mutate", "ms"},
	{"server.self_ms.query", "ms"},
	{"server.self_ms.local", "ms"},
	{"server.self_ms.mutate", "ms"},
	{"server.encode_ms.query", "ms"},
	{"server.encode_ms.local", "ms"},
	{"server.response_kb.query", "KiB"},
	{"server.response_kb.local", "KiB"},
	{"server.index_hit_rate", "ratio"},
	{"server.admission_queued", "count"},
	{"server.admission_shed", "count"},
	{"http.transport_ms.query", "ms"},
	{"http.transport_ms.local", "ms"},
	{"http.transport_ms.mutate", "ms"},
	{"graph.load_ms", "ms"},
	{"gc.cpu_frac", "ratio"},
	{"alloc_kb_per_op.query", "KiB"},
	{"alloc_kb_per_op.local", "KiB"},
	{"alloc_kb_per_op.mutate", "KiB"},
	{"host.compute_ns", "ns"},
	{"host.mem_walk_ns", "ns"},
	{"trace.overhead_ms", "ms"},
	{"trace.overhead_frac", "ratio"},
	{"trace.root_self_ms", "ms"},
	{"trace.spans", "count"},
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report prints every metric as it is measured ("metric <name> <value>
// <unit>") and keeps it for the result line.
type report struct {
	w   io.Writer
	all map[string]metric
}

func newReport(w io.Writer) *report { return &report{w: w, all: map[string]metric{}} }

func (r *report) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		fmt.Fprintf(r.w, "# %s: no samples\n", name)
		return
	}
	r.all[name] = metric{Value: v, Unit: unit}
	fmt.Fprintf(r.w, "metric %s %v %s\n", name, v, unit)
}

// result builds the result line from defs; a metric that was not measured
// fails the run rather than going missing from the line.
func (r *report) result(defs []metricDef, attempted, failed int64) (*result, error) {
	res := &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		m, ok := r.all[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if m.Unit != d.unit {
			return nil, fmt.Errorf("metric %s has unit %s, want %s", d.name, m.Unit, d.unit)
		}
		res.Metrics[d.name] = m
	}
	return res, nil
}

// readMetric reads one runtime/metrics value as a float (NaN when this Go
// version does not have it).
func readMetric(name string) float64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	switch s[0].Value.Kind() {
	case metrics.KindUint64:
		return float64(s[0].Value.Uint64())
	case metrics.KindFloat64:
		return s[0].Value.Float64()
	}
	return math.NaN()
}

// liveHeapMB forces a GC and returns the live heap in MB.
func liveHeapMB() float64 {
	runtime.GC()
	if v := readMetric("/gc/heap/live:bytes"); !math.IsNaN(v) {
		return v / 1e6
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// cpuSample is the runtime's cumulative CPU accounting at one instant.
type cpuSample struct{ gc, total float64 }

func readCPU() cpuSample {
	return cpuSample{gc: readMetric("/cpu/classes/gc/total:cpu-seconds"), total: readMetric("/cpu/classes/total:cpu-seconds")}
}

// gcFrac is the share of the CPU time available between a and b that the
// garbage collector used.
func gcFrac(a, b cpuSample) float64 { return (b.gc - a.gc) / (b.total - a.total) }
