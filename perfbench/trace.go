package main

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pdq/internal/obsv"
	"pdq/internal/scenario"
	"pdq/internal/topo"
	traffic "pdq/internal/workload"
)

// The traced pass reruns a workload with every protocol row and metric
// swapped for a traced twin: a registered runner (metric) that calls the
// original through the registry's public entry and times the calls into
// the layers below it. A twin times the topology build, routes every
// flow of the cell through Topology.Path before the simulation starts
// (the routes are cached on the topology, so the simulation reuses them
// and its results do not change), times the run itself, and afterwards
// reads the link counters and the per-flow result counters. Rows keep
// their labels, so the traced tables must equal the untraced ones; the
// run checks that they do.

// twinPrefix names a traced twin in the registries.
const twinPrefix = "perfbench/"

// The twins of the runners and metrics the workloads use. Registries take
// literal names only, so each twin is spelled out.
func init() {
	if e, ok := twinRunner("PDQ(Full)"); ok {
		scenario.RegisterRunner(scenario.RunnerEntry{Name: twinPrefix + "PDQ(Full)", Level: e.Level, Params: e.Params, ShardSafe: e.ShardSafe, Make: e.Make})
	}
	if e, ok := twinRunner("PDQ(ES+ET)"); ok {
		scenario.RegisterRunner(scenario.RunnerEntry{Name: twinPrefix + "PDQ(ES+ET)", Level: e.Level, Params: e.Params, ShardSafe: e.ShardSafe, Make: e.Make})
	}
	if e, ok := twinRunner("PDQ(ES)"); ok {
		scenario.RegisterRunner(scenario.RunnerEntry{Name: twinPrefix + "PDQ(ES)", Level: e.Level, Params: e.Params, ShardSafe: e.ShardSafe, Make: e.Make})
	}
	if e, ok := twinRunner("PDQ(Basic)"); ok {
		scenario.RegisterRunner(scenario.RunnerEntry{Name: twinPrefix + "PDQ(Basic)", Level: e.Level, Params: e.Params, ShardSafe: e.ShardSafe, Make: e.Make})
	}
	if e, ok := twinRunner("D3"); ok {
		scenario.RegisterRunner(scenario.RunnerEntry{Name: twinPrefix + "D3", Level: e.Level, Params: e.Params, ShardSafe: e.ShardSafe, Make: e.Make})
	}
	if e, ok := twinRunner("RCP"); ok {
		scenario.RegisterRunner(scenario.RunnerEntry{Name: twinPrefix + "RCP", Level: e.Level, Params: e.Params, ShardSafe: e.ShardSafe, Make: e.Make})
	}
	if e, ok := twinRunner("RCP/D3"); ok {
		scenario.RegisterRunner(scenario.RunnerEntry{Name: twinPrefix + "RCP/D3", Level: e.Level, Params: e.Params, ShardSafe: e.ShardSafe, Make: e.Make})
	}
	if e, ok := twinRunner("TCP"); ok {
		scenario.RegisterRunner(scenario.RunnerEntry{Name: twinPrefix + "TCP", Level: e.Level, Params: e.Params, ShardSafe: e.ShardSafe, Make: e.Make})
	}
	if e, ok := twinRunner("DCTCP"); ok {
		scenario.RegisterRunner(scenario.RunnerEntry{Name: twinPrefix + "DCTCP", Level: e.Level, Params: e.Params, ShardSafe: e.ShardSafe, Make: e.Make})
	}
	if e, ok := twinRunner("flow:PDQ"); ok {
		scenario.RegisterRunner(scenario.RunnerEntry{Name: twinPrefix + "flow:PDQ", Level: e.Level, Params: e.Params, ShardSafe: e.ShardSafe, Make: e.Make})
	}
	if e, ok := twinRunner("flow:RCP"); ok {
		scenario.RegisterRunner(scenario.RunnerEntry{Name: twinPrefix + "flow:RCP", Level: e.Level, Params: e.Params, ShardSafe: e.ShardSafe, Make: e.Make})
	}
	if e, ok := twinRunner("flow:D3"); ok {
		scenario.RegisterRunner(scenario.RunnerEntry{Name: twinPrefix + "flow:D3", Level: e.Level, Params: e.Params, ShardSafe: e.ShardSafe, Make: e.Make})
	}

	if e, ok := twinMetric("mean-fct"); ok {
		scenario.RegisterMetric(scenario.MetricEntry{Name: twinPrefix + "mean-fct", Params: e.Params, Fn: e.Fn})
	}
	if e, ok := twinMetric("mean-fct-vs-srpt"); ok {
		scenario.RegisterMetric(scenario.MetricEntry{Name: twinPrefix + "mean-fct-vs-srpt", Params: e.Params, Fn: e.Fn})
	}
	if e, ok := twinMetric("max-fct"); ok {
		scenario.RegisterMetric(scenario.MetricEntry{Name: twinPrefix + "max-fct", Params: e.Params, Fn: e.Fn})
	}
	if e, ok := twinMetric("app-throughput"); ok {
		scenario.RegisterMetric(scenario.MetricEntry{Name: twinPrefix + "app-throughput", Params: e.Params, Fn: e.Fn})
	}
}

// twinRunner returns the traced twin of a registered runner.
func twinRunner(name string) (scenario.RunnerEntry, bool) {
	base, ok := scenario.LookupRunner(name)
	if !ok {
		return base, false
	}
	twin := base
	twin.Make = func(p map[string]float64, seed int64) scenario.RunnerFunc {
		run := base.Make(p, seed)
		return func(build func() *topo.Topology, flows []traffic.Flow, rc scenario.RunCtx) []traffic.Result {
			var (
				tp               *topo.Topology
				buildNs, routeNs time.Duration
				routes           int
			)
			timedBuild := func() *topo.Topology {
				t0 := time.Now()
				tp = build()
				t1 := time.Now()
				routes += routeAll(tp, flows)
				buildNs += t1.Sub(t0)
				routeNs += time.Since(t1)
				return tp
			}
			t0 := time.Now()
			rs := run(timedBuild, flows, rc)
			simNs := time.Since(t0) - buildNs - routeNs
			if t := current.Load(); t != nil {
				t.addRun(name, base.Level, tp, flows, rs, buildNs, routeNs, simNs, routes)
			}
			return rs
		}
	}
	return twin, true
}

// twinMetric returns the traced twin of a registered metric.
func twinMetric(name string) (scenario.MetricEntry, bool) {
	for _, base := range scenario.MetricList() {
		if base.Name != name {
			continue
		}
		twin := base
		twin.Fn = func(rs []traffic.Result, flows []traffic.Flow, p map[string]float64) float64 {
			t0 := time.Now()
			v := base.Fn(rs, flows, p)
			if t := current.Load(); t != nil {
				t.addExtract(time.Since(t0))
			}
			return v
		}
		return twin, true
	}
	return scenario.MetricEntry{}, false
}

// current is the tally the twins record into; nil outside a traced pass.
var current atomic.Pointer[tally]

// tally aggregates the twins' spans and counters over one traced pass.
// Sweep workers record concurrently.
type tally struct {
	mu       sync.Mutex
	build    time.Duration
	route    time.Duration
	routes   int
	extract  time.Duration
	byRunner map[string]*runnerTally
}

// runnerTally is one runner's share of a traced pass.
type runnerTally struct {
	level   string
	runs    int
	sim     time.Duration // runner time minus build and routes
	flows   int
	packets uint64
	bytes   uint64
	drops   uint64

	retransmits, preemptions, ecnMarks int64
}

func (t *tally) addRun(name, level string, tp *topo.Topology, flows []traffic.Flow, rs []traffic.Result,
	build, route, simNs time.Duration, routes int) {
	var r runnerTally
	if tp != nil {
		for _, l := range tp.Net.Links() {
			r.packets += l.TxPackets()
			r.bytes += l.TxBytes()
			r.drops += l.Drops() + l.LossDrops() + l.FaultDrops()
		}
	}
	for _, x := range rs {
		r.retransmits += int64(x.Retransmits)
		r.preemptions += int64(x.Preemptions)
		r.ecnMarks += int64(x.ECNMarks)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.build += build
	t.route += route
	t.routes += routes
	rt := t.byRunner[name]
	if rt == nil {
		rt = &runnerTally{level: level}
		t.byRunner[name] = rt
	}
	rt.runs++
	rt.sim += simNs
	rt.flows += len(flows)
	rt.packets += r.packets
	rt.bytes += r.bytes
	rt.drops += r.drops
	rt.retransmits += r.retransmits
	rt.preemptions += r.preemptions
	rt.ecnMarks += r.ecnMarks
}

func (t *tally) addExtract(d time.Duration) {
	t.mu.Lock()
	t.extract += d
	t.mu.Unlock()
}

// sum folds the tallies of the runners keep selects.
func (t *tally) sum(keep func(name string, r *runnerTally) bool) runnerTally {
	var s runnerTally
	for name, r := range t.byRunner {
		if !keep(name, r) {
			continue
		}
		s.runs += r.runs
		s.sim += r.sim
		s.flows += r.flows
		s.packets += r.packets
		s.bytes += r.bytes
		s.drops += r.drops
		s.retransmits += r.retransmits
		s.preemptions += r.preemptions
		s.ecnMarks += r.ecnMarks
	}
	return s
}

// cellMs is the mean host ms per run of the named runners, 0 if none ran.
func (t *tally) cellMs(names ...string) float64 {
	s := t.sum(func(name string, _ *runnerTally) bool { return slices.Contains(names, name) })
	if s.runs == 0 {
		return 0
	}
	return ms(s.sim) / float64(s.runs)
}

// twinSpec swaps a grid spec's runners and metrics for their twins in
// place. Rows keep their labels. Custom drivers run their own protocol
// calls and stay as they are.
func twinSpec(s *scenario.Spec) error {
	if s.Driver != "" {
		return nil
	}
	twinM := func(m *scenario.MetricSpec) error {
		if m == nil || m.Name == "" {
			return nil
		}
		if !slices.Contains(scenario.MetricNames(), twinPrefix+m.Name) {
			return fmt.Errorf("%s: metric %s has no traced twin", s.Name, m.Name)
		}
		m.Name = twinPrefix + m.Name
		return nil
	}
	if err := twinM(&s.Metric); err != nil {
		return err
	}
	for i := range s.Protocols {
		p := &s.Protocols[i]
		if p.Runner == "" {
			continue
		}
		if _, ok := scenario.LookupRunner(twinPrefix + p.Runner); !ok {
			return fmt.Errorf("%s: runner %s has no traced twin", s.Name, p.Runner)
		}
		if p.Label == "" {
			p.Label = p.Runner
		}
		p.Runner = twinPrefix + p.Runner
		if err := twinM(p.Metric); err != nil {
			return err
		}
	}
	return nil
}

// tracedPass is one run of a workload with its rows swapped for their
// twins, the observability plane attached, and the twins recording.
type tracedPass struct {
	*pass
	specs []*scenario.Spec
	tally *tally
	obs   *obsv.Observer
	runs  []*obsv.SweepStats // one per spec
}

func runTraced(w *workload, opts func(*scenario.Spec) scenario.Opts) (*tracedPass, error) {
	specs, err := w.load()
	if err != nil {
		return nil, err
	}
	for _, s := range specs {
		if err := twinSpec(s); err != nil {
			return nil, err
		}
	}
	tp := &tracedPass{specs: specs, tally: &tally{byRunner: map[string]*runnerTally{}}, obs: obsv.New(obsv.WallClock)}
	current.Store(tp.tally)
	defer current.Store(nil)
	tp.pass, err = runPass(specs, func(s *scenario.Spec) scenario.Opts {
		o := opts(s)
		o.Obs = tp.obs
		o.Progress = tp.obs.StartRun(s.Name)
		tp.runs = append(tp.runs, o.Progress)
		return o
	})
	if err != nil {
		return nil, err
	}
	return tp, nil
}

// measureTraced runs the workload untraced, traced, traced and untraced
// again, checks that all four produced the same tables, and reports the
// per-layer metrics from the first traced pass. The tracing overhead
// compares the two traced passes with the two untraced ones; the
// mirrored order cancels a drift in host speed.
func measureTraced(w *workload, cfg config, specs []*scenario.Spec, opts func(*scenario.Spec) scenario.Opts, setups []setupCost, out *outcome) (*pass, error) {
	plain, err := runPass(specs, opts)
	if err != nil {
		return nil, err
	}
	tp, err := runTraced(w, opts)
	if err != nil {
		return nil, err
	}
	again, err := runTraced(w, opts)
	if err != nil {
		return nil, err
	}
	plainAgain, err := runPass(specs, opts)
	if err != nil {
		return nil, err
	}
	traced, t, obs := tp.pass, tp.tally, tp.obs

	a, f := traced.cells()
	out.res.Attempted, out.res.Failed = a, f
	if want := plain.render(); traced.render() != want || again.render() != want || plainAgain.render() != want {
		out.fail("traced tables differ from untraced tables")
	} else {
		out.ok("traced tables equal untraced tables")
	}

	units := map[string]string{}
	for _, d := range perLayer() {
		units[d.Name] = d.Unit
		if strings.HasPrefix(d.Name, "exp.fig_ms.") {
			out.res.Metrics[d.Name] = metric{0, d.Unit} // figures this workload does not run
		}
	}
	put := func(name string, v float64) {
		u, ok := units[name]
		if !ok {
			panic("perfbench: undeclared metric " + name)
		}
		out.res.Metrics[name] = metric{v, u}
	}

	// exp: per-figure wall time and the searches' share of it.
	var total, search float64
	for i, s := range tp.specs {
		if _, ok := units["exp.fig_ms."+s.Name]; ok {
			put("exp.fig_ms."+s.Name, traced.specMs[i])
		}
		total += traced.specMs[i]
		if isSearch(s) {
			search += traced.specMs[i]
		}
	}
	put("exp.search_share", ratio(search, total))

	// scenario: the sweep executor's cells, from the observability plane.
	var cells, failed uint64
	var cellSec float64
	var cellCount uint64
	for _, r := range tp.runs {
		snap := r.Snapshot()
		cells += snap.Done + snap.Failed
		failed += snap.Failed
		r.CellSeconds(func(h *obsv.Histogram) {
			cellSec += h.Sum()
			cellCount += h.Count()
		})
	}
	put("scenario.cells", float64(cells))
	put("scenario.cells_failed", float64(failed))
	put("scenario.cell_ms.mean", ratio(cellSec*1e3, float64(cellCount)))
	put("scenario.busy_frac", ratio(cellSec, measuredWorkers*traced.wall.Seconds()))

	// Set-up layers: medians over the run's set-ups.
	pickMs := func(f func(setupCost) time.Duration) float64 {
		xs := make([]float64, len(setups))
		for i, c := range setups {
			xs[i] = ms(f(c))
		}
		return median(xs)
	}
	put("scenario.load_ms", pickMs(func(c setupCost) time.Duration { return c.load }))
	put("workload.gen_ms", pickMs(func(c setupCost) time.Duration { return c.gen }))
	put("workload.flows", float64(setups[0].flows))

	// topo: every cell's build and routes in the traced pass.
	put("topo.build_ms", ms(t.build))
	put("topo.route_ms", ms(t.route))
	put("topo.routes", float64(t.routes))

	// sim: engine counters from the observability plane.
	rt := obs.Runtime.Snapshot()
	packet := t.sum(func(_ string, r *runnerTally) bool { return r.level == "packet" })
	put("sim.events_fired", float64(rt.Fired))
	put("sim.events_scheduled", float64(rt.Scheduled))
	put("sim.events_cancelled", float64(rt.Cancelled))
	put("sim.queue_highwater", float64(rt.QueueHWM))
	put("sim.ns_per_event", ratio(float64(packet.sim.Nanoseconds()), float64(rt.Fired)))
	hold := holdModel(int(rt.QueueHWM), cfg.seed)
	put("sim.hold_ns", hold.nsPerEvent)
	put("sim.hold_allocs", hold.allocsPerEvent)
	if hold.allocsPerEvent != 0 {
		out.fail("hold model at depth %d allocates %g times per event, want 0", hold.depth, hold.allocsPerEvent)
	} else {
		out.ok("hold model at depth %d: 0 allocations per event", hold.depth)
	}

	// netsim: link counters summed over every packet-level run.
	put("netsim.tx_packets", float64(packet.packets))
	put("netsim.tx_bytes", float64(packet.bytes))
	put("netsim.drops", float64(packet.drops))
	put("netsim.ns_per_packet", ratio(float64(packet.sim.Nanoseconds()), float64(packet.packets)))

	// core and protocol: per-run time by protocol, result counters.
	put("core.pdq_cell_ms", t.cellMs("PDQ(Full)", "PDQ(ES+ET)", "PDQ(ES)", "PDQ(Basic)"))
	put("core.preemptions", float64(packet.preemptions))
	put("protocol.tcp_cell_ms", t.cellMs("TCP"))
	put("protocol.dctcp_cell_ms", t.cellMs("DCTCP"))
	put("protocol.retransmits", float64(packet.retransmits))
	put("protocol.ecn_marks", float64(packet.ecnMarks))

	// flowsim: per-run time by allocator and per flow.
	flow := t.sum(func(_ string, r *runnerTally) bool { return r.level == "flow" })
	put("flowsim.pdq_cell_ms", t.cellMs("flow:PDQ"))
	put("flowsim.rcp_cell_ms", t.cellMs("flow:RCP"))
	put("flowsim.d3_cell_ms", t.cellMs("flow:D3"))
	put("flowsim.us_per_flow", ratio(float64(flow.sim)/float64(time.Microsecond), float64(flow.flows)))

	put("stats.extract_ms", ms(t.extract))
	put("obsv.trace_overhead_frac", (traced.wall+again.wall).Seconds()/(plain.wall+plainAgain.wall).Seconds()-1)

	out.notes = append(out.notes, fmt.Sprintf("passes untraced %.4f s, traced %.4f s, traced %.4f s, untraced %.4f s; %d runner calls traced",
		plain.wall.Seconds(), traced.wall.Seconds(), again.wall.Seconds(), plainAgain.wall.Seconds(), packet.runs+flow.runs))
	return plain, nil
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
