package main

import (
	"math"
	"sort"
)

// metricDef is one metric of BENCHMARK.json: its name, unit, which
// direction is better and, for end-to-end metrics, the share of the
// parent's median by which it may worsen before a change regresses.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the gated metrics every untraced run prints, on every
// workload. An operation is a batch (paper-repro), a sweep
// (traced-sweep), a relayed event (relay-ingest) or a fleet job
// (fleet-churn); latency runs from the operation's start, or for the
// open-loop workloads from when it was due, until it is done. Every
// bound is the largest allowed: on the shared two-core host the
// benchmark was sized on, these metrics spread by up to 0.14 (the
// interquartile range over ten runs, as a share of the median).
var endToEnd = []metricDef{
	{"latency_p90_ms", "ms", "lower", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the metrics every traced run prints. They carry no
// bound; README.md maps each to the end-to-end metric it should move.
// The median latency is here rather than gated: fleet-churn's medians
// spread by up to 0.25 from run to run.
var perLayer = []metricDef{
	{"latency_p50_ms", "ms", "lower", 0},
	{"latency_p99_ms", "ms", "lower", 0},
	{"trace.residual_frac", "ratio", "lower", 0},
	{"trace.overhead_frac", "ratio", "lower", 0},
	{"runner.utilization", "ratio", "higher", 0},
	{"runner.job_wall_max_s", "s", "lower", 0},
	{"sim.events", "count", "lower", 0},
	{"sim.ns_per_event", "ns", "lower", 0},
	{"sim.allocs_per_event", "count", "lower", 0},
	{"sim.bytes_per_event", "B", "lower", 0},
	{"sim.heap_high_water", "count", "lower", 0},
	{"sim.hook_overhead_frac", "ratio", "lower", 0},
	{"gc.cycles", "count", "lower", 0},
	{"phase.estimate_ms", "ms", "lower", 0},
	{"workload.analyze_ms", "ms", "lower", 0},
	{"loss.analyze_ms", "ms", "lower", 0},
	{"otrace.events", "count", "lower", 0},
	{"otrace.jsonl_ns_per_event", "ns", "lower", 0},
	{"otrace.jsonl_bytes_per_event", "B", "lower", 0},
	{"otrace.jsonl_allocs_per_event", "count", "lower", 0},
	{"otrace.wire_encode_ns_per_event", "ns", "lower", 0},
	{"otrace.wire_decode_ns_per_event", "ns", "lower", 0},
	{"otrace.wire_bytes_per_event", "B", "lower", 0},
	{"source.emit_ns.p50", "ns", "lower", 0},
	{"source.emit_ns.p99", "ns", "lower", 0},
	{"source.wire_lag_us.p50", "us", "lower", 0},
	{"source.wire_lag_us.p99", "us", "lower", 0},
	{"gen.late_ms.p99", "ms", "lower", 0},
	{"online.queue_wait_us.p50", "us", "lower", 0},
	{"online.queue_wait_us.p99", "us", "lower", 0},
	{"online.loss_ns_per_event", "ns", "lower", 0},
	{"online.phase_ns_per_event", "ns", "lower", 0},
	{"online.workload_ns_per_event", "ns", "lower", 0},
	{"pipestat.monitor_ns_per_event", "ns", "lower", 0},
	{"online.shard_skew", "ratio", "lower", 0},
	{"coord.submit_us.p50", "us", "lower", 0},
	{"coord.submit_us.p99", "us", "lower", 0},
	{"coord.dispatch_wait_ms.p50", "ms", "lower", 0},
	{"coord.dispatch_wait_ms.p90", "ms", "lower", 0},
	{"agent.run_us.p50", "us", "lower", 0},
	{"relay.finalize_lag_ms.p50", "ms", "lower", 0},
	{"relay.finalize_lag_ms.p90", "ms", "lower", 0},
	{"coord.journal_appends_per_job", "count", "lower", 0},
	{"coord.journal_compactions", "count", "lower", 0},
	{"coord.journal_bytes", "B", "lower", 0},
	{"coord.backlog_max", "count", "lower", 0},
	{"process.allocs_per_op", "count", "lower", 0},
	{"process.bytes_per_op", "B", "lower", 0},
}

func findMetric(defs []metricDef, name string) (metricDef, bool) {
	for _, d := range defs {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

// quantile is the q-quantile of xs, interpolating linearly between
// order statistics. xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	h := q * float64(len(xs)-1)
	lo := int(h)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (h-float64(lo))*(xs[lo+1]-xs[lo])
}

// tailSamples is how many samples a reported tail percentile must have
// beyond it.
const tailSamples = 10

// tail reports the highest percentile at or below q that has at least
// ten samples beyond it, and the value there. Below 20 samples no tail
// percentile qualifies, and it reports the median.
func tail(xs []float64, q float64) (value, used float64) {
	used = q
	if n := float64(len(xs)); n*(1-q) < tailSamples {
		used = math.Max(0.5, 1-tailSamples/n)
	}
	return quantile(xs, used), used
}

// quartiles returns the three cut points Python's
// statistics.quantiles(xs, n=4) gives (its default, exclusive method),
// the rule BENCHMARK.json's spreads are judged by. xs is sorted in
// place and must hold at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	sort.Float64s(xs)
	n := len(xs)
	m := n + 1
	cut := func(i int) float64 {
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := float64(i*m - j*4)
		return (xs[j-1]*(4-delta) + xs[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// nsToUnit converts nanosecond samples to floats in the given unit
// (1e3 for µs, 1e6 for ms).
func nsToUnit(ns []int64, per float64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / per
	}
	return out
}
