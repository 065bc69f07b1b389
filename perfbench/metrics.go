package main

import "pdq/internal/exp"

// metricDecl declares one reported metric as BENCHMARK.json lists it.
// Bound is the share of the parent's median by which an end-to-end
// metric may get worse before a change counts as a regression; per-layer
// metrics carry none.
type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the simulator sees, measured with
// tracing off: wall_s is the median host time of one repetition of the
// workload's tables, setup_s the median of the run's set-ups, and
// peak_rss_mb the median over repetitions of the process's peak resident
// memory during one.
//
// The bounds are wide because the host is: on the shared two-core
// machine the benchmark was tuned on, the same code's wall_s spread 5-26%
// (quartile distance over the median) between sets of ten runs, and a
// fixed CPU loop varied up to 3x in speed within a minute. setup_s, a
// median of set-ups that take milliseconds, keeps the largest bound.
//
// cell_ok_ratio is the complement of the failed-cell ratio: a clean run
// has no failed cells, and a ratio that is 0 on every healthy run cannot
// carry a relative bound. The report prints cell_fail_ratio beside it.
var endToEnd = []metricDecl{
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.24},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.1},
	{Name: "cell_ok_ratio", Unit: "ratio", Better: "higher", Bound: 0.001},
}

// perLayer are the traced run's metrics, one group per module. Every
// workload reports every one of them; a layer a workload does not reach
// reads 0 there, which is itself part of the layer map the trace checks.
func perLayer() []metricDecl {
	var out []metricDecl
	for _, f := range exp.FigureNames() {
		out = append(out, metricDecl{Name: "exp.fig_ms." + f, Unit: "ms", Better: "lower"})
	}
	return append(out, []metricDecl{
		{Name: "exp.search_share", Unit: "ratio", Better: "lower"},

		{Name: "scenario.cells", Unit: "count", Better: "higher"},
		{Name: "scenario.cells_failed", Unit: "count", Better: "lower"},
		{Name: "scenario.cell_ms.mean", Unit: "ms", Better: "lower"},
		{Name: "scenario.busy_frac", Unit: "ratio", Better: "higher"},
		{Name: "scenario.load_ms", Unit: "ms", Better: "lower"},

		{Name: "topo.build_ms", Unit: "ms", Better: "lower"},
		{Name: "topo.route_ms", Unit: "ms", Better: "lower"},
		{Name: "topo.routes", Unit: "count", Better: "higher"},

		{Name: "workload.gen_ms", Unit: "ms", Better: "lower"},
		{Name: "workload.flows", Unit: "count", Better: "higher"},

		{Name: "sim.events_fired", Unit: "count", Better: "lower"},
		{Name: "sim.events_scheduled", Unit: "count", Better: "lower"},
		{Name: "sim.events_cancelled", Unit: "count", Better: "lower"},
		{Name: "sim.queue_highwater", Unit: "count", Better: "lower"},
		{Name: "sim.ns_per_event", Unit: "ns", Better: "lower"},
		{Name: "sim.hold_ns", Unit: "ns", Better: "lower"},
		{Name: "sim.hold_allocs", Unit: "allocs", Better: "lower"},

		{Name: "netsim.tx_packets", Unit: "count", Better: "lower"},
		{Name: "netsim.tx_bytes", Unit: "bytes", Better: "lower"},
		{Name: "netsim.drops", Unit: "count", Better: "lower"},
		{Name: "netsim.ns_per_packet", Unit: "ns", Better: "lower"},

		{Name: "core.pdq_cell_ms", Unit: "ms", Better: "lower"},
		{Name: "core.preemptions", Unit: "count", Better: "lower"},
		{Name: "protocol.tcp_cell_ms", Unit: "ms", Better: "lower"},
		{Name: "protocol.dctcp_cell_ms", Unit: "ms", Better: "lower"},
		{Name: "protocol.retransmits", Unit: "count", Better: "lower"},
		{Name: "protocol.ecn_marks", Unit: "count", Better: "lower"},

		{Name: "flowsim.pdq_cell_ms", Unit: "ms", Better: "lower"},
		{Name: "flowsim.rcp_cell_ms", Unit: "ms", Better: "lower"},
		{Name: "flowsim.d3_cell_ms", Unit: "ms", Better: "lower"},
		{Name: "flowsim.us_per_flow", Unit: "us", Better: "lower"},

		{Name: "stats.extract_ms", Unit: "ms", Better: "lower"},

		{Name: "obsv.trace_overhead_frac", Unit: "ratio", Better: "lower"},
	}...)
}

// declared returns the metric set one mode must report.
func declared(traced bool) []metricDecl {
	if traced {
		return perLayer()
	}
	return endToEnd
}
