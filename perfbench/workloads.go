package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"pdq/internal/exp"
	"pdq/internal/scenario"
	"pdq/internal/sim"
	"pdq/internal/topo"
	traffic "pdq/internal/workload"
)

// workload is one named set of inputs the benchmark runs. Engine knobs
// (shards, timer backend) stay at the program defaults in every
// workload, so the benchmark measures what a user gets by default.
type workload struct {
	name, why string
	// specs returns the workload's scenarios as JSON documents; load
	// parses them with scenario.Load, which is part of set-up.
	specs func() ([][]byte, error)
	quick bool // run the specs at their quick scale
	// golden requires the tables of the workload's figures that have a
	// committed quick seed-7 golden (internal/exp/testdata) to reproduce
	// it byte for byte.
	golden bool
	// pinRandomWork runs the specs whose amount of work is itself drawn
	// from the seed at goldenSeed, whatever the run's seed: threshold
	// searches, whose cost depends on where the threshold falls, and
	// Poisson arrivals, whose flow count and heavy-tailed sizes are
	// random. Between seeds these move the quick figure set's event count
	// by up to 4x; pinned, the measured work stays the same from seed to
	// seed, while the seed still draws the inputs of every other spec.
	pinRandomWork bool
	// claims checks the paper's qualitative result on one run's tables.
	claims func(ts []*scenario.Table) error
}

// workloads lists the benchmark's workloads at full scale. Fig. 8b's
// flow-level rows on a fat-tree are not one of them: flowsim's time spread
// 16-27% between passes on a shared two-core host at every size tried
// (k=4 to 10), too much for any bound the benchmark may carry. The
// flow-level rows of figs. 10-12 run in figures-quick, so the traced run
// still reports the flowsim layer.
func workloads() []*workload {
	return []*workload{
		figuresQuick(exp.FigureNames()),
		fatTreePacket(8),
	}
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads() {
		names = append(names, w.name)
	}
	return names
}

func lookupWorkload(name string) (*workload, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// goldenSeed is the seed of the committed golden tables.
const goldenSeed = 7

// figuresQuick is the paper's own evaluation: the named figures at quick
// scale, one after another. Like every workload it is measured one cell
// at a time: on a shared two-core host the spread of its wall time over
// ten seeds was 18% with a worker per core and 5-7% with one worker.
func figuresQuick(figs []string) *workload {
	return &workload{
		name: "figures-quick",
		why:  "all 25 paper figures at quick scale, one cell at a time, searches and Poisson figures at the goldens' seed: threshold searches, per-cell set-up, agents on small trees",
		specs: func() ([][]byte, error) {
			out := make([][]byte, 0, len(figs))
			for _, f := range figs {
				b, err := json.Marshal(exp.Specs[f]())
				if err != nil {
					return nil, fmt.Errorf("encoding %s: %w", f, err)
				}
				out = append(out, b)
			}
			return out, nil
		},
		quick:         true,
		golden:        true,
		pinRandomWork: true,
	}
}

// fatTreePacket is one packet-level cell per protocol: a k-ary fat-tree
// under permutation traffic, TCP, DCTCP and PDQ(Full). The benchmark runs
// it at k=8: at k=16 (1024 hosts, a 31.5k-deep event queue) its wall time
// spread 21-26% between runs of the same code on a shared two-core host,
// and in passes interleaved on that host k=8 spread about two-thirds as
// much as k=16.
func fatTreePacket(k int) *workload {
	spec := fmt.Sprintf(`{
  "name": "fattree-k%d-packet",
  "desc": "fat-tree k=%d permutation, 2 flows/host, 50 KB uniform-mean: mean FCT [ms]",
  "digits": 4,
  "topology": {"name": "fat-tree", "params": {"k": %d}},
  "workload": {
    "pattern": {"name": "permutation"},
    "sizes": {"name": "uniform-mean", "params": {"mean_kb": 50}},
    "count_per_host": 2
  },
  "protocols": ["TCP", "DCTCP", "PDQ(Full)"],
  "metric": {"name": "mean-fct", "params": {"ms": 1}},
  "horizon_ms": 100
}`, k, k, k)
	return &workload{
		name:  fmt.Sprintf("fattree-k%d-packet", k),
		why:   fmt.Sprintf("one packet-level cell per protocol on a %d-host fat-tree, repeated: event heap, route BFS, link serializers, TCP/DCTCP/PDQ agents", k*k*k/4),
		specs: func() ([][]byte, error) { return [][]byte{[]byte(spec)}, nil },
		claims: func(ts []*scenario.Table) error {
			return fasterThan(ts[0], "PDQ(Full)", "TCP", "DCTCP")
		},
	}
}

// fasterThan checks the paper's headline on a one-column table: the PDQ
// row's mean FCT is below every baseline row's.
func fasterThan(t *scenario.Table, pdq string, baselines ...string) error {
	v := t.Get(pdq, t.Cols[0])
	for _, b := range baselines {
		if bv := t.Get(b, t.Cols[0]); !(v < bv) {
			return fmt.Errorf("%s: %s mean FCT %g is not below %s's %g", t.Name, pdq, v, b, bv)
		}
	}
	return nil
}

// load parses the workload's scenarios.
func (w *workload) load() ([]*scenario.Spec, error) {
	docs, err := w.specs()
	if err != nil {
		return nil, err
	}
	out := make([]*scenario.Spec, 0, len(docs))
	for _, d := range docs {
		s, err := scenario.Load(d)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// measuredWorkers is the sweep worker count of the measured runs: one
// cell at a time, which keeps the spread between runs on a shared host
// small. The cross-worker check runs the same tables on every core.
const measuredWorkers = 1

// pass is one run of every spec of a workload.
type pass struct {
	tables []*scenario.Table
	specMs []float64 // host ms per spec, in spec order
	wall   time.Duration
}

// runPass runs specs in order, each with the options opts gives it, and
// times each one. Specs are not mutated, so a slice may be run
// repeatedly.
func runPass(specs []*scenario.Spec, opts func(*scenario.Spec) scenario.Opts) (*pass, error) {
	p := &pass{}
	start := time.Now()
	for _, s := range specs {
		t0 := time.Now()
		t, err := scenario.Run(s, opts(s))
		if err != nil {
			return nil, err
		}
		p.specMs = append(p.specMs, ms(time.Since(t0)))
		p.tables = append(p.tables, t)
	}
	p.wall = time.Since(start)
	return p, nil
}

// render is the pass's tables as text, the form the goldens hold.
func (p *pass) render() string {
	var b strings.Builder
	for _, t := range p.tables {
		b.WriteString(t.String())
	}
	return b.String()
}

// cells counts the pass's table cells and those that failed: a cell
// fails when its value is not finite or the table reports it in Errors.
func (p *pass) cells() (attempted, failed int) {
	for _, t := range p.tables {
		bad := 0
		for _, r := range t.Rows {
			attempted += len(r.Vals)
			for _, v := range r.Vals {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					bad++
				}
			}
		}
		failed += max(bad, len(t.Errors))
	}
	return attempted, failed
}

// setupCost is one set-up of a workload: every spec loaded, and for each
// spec the topology, flow set and routes of its first cell.
type setupCost struct {
	load, build, gen, route time.Duration
	routes, flows           int
}

func (c setupCost) total() time.Duration { return c.load + c.build + c.gen + c.route }

// setup performs and times one set-up.
func (w *workload) setup(seed int64) (setupCost, error) {
	var c setupCost
	t0 := time.Now()
	specs, err := w.load()
	if err != nil {
		return c, err
	}
	c.load = time.Since(t0)
	for _, s := range specs {
		in, ok, err := firstCell(s, w.quick)
		if err != nil {
			return c, fmt.Errorf("%s: %w", s.Name, err)
		}
		if !ok {
			continue
		}
		t0 := time.Now()
		tp, err := topo.BuildByName(in.topo.Name, in.topo.Params, seed)
		if err != nil {
			return c, fmt.Errorf("%s: %w", s.Name, err)
		}
		t1 := time.Now()
		flows := in.gen(seed)
		t2 := time.Now()
		c.routes += routeAll(tp, flows)
		c.build += t1.Sub(t0)
		c.gen += t2.Sub(t1)
		c.route += time.Since(t2)
		c.flows += len(flows)
	}
	return c, nil
}

// routeAll routes every flow of the set over tp and returns the number
// of routes computed.
func routeAll(tp *topo.Topology, flows []traffic.Flow) int {
	n := 0
	for _, f := range flows {
		if f.Src != f.Dst {
			tp.Path(tp.Hosts[f.Src], tp.Hosts[f.Dst])
			n++
		}
	}
	return n
}

// cellInputs is what a spec's first cell simulates on.
type cellInputs struct {
	topo scenario.TopoSpec
	gen  func(seed int64) []traffic.Flow
}

// firstCell resolves the topology and flow generator of a grid spec's
// first column: the first sweep case, or the first value of a flow-count
// or size axis. Search cells draw the batch at their upper bound. It
// reports false for specs without a pattern workload (custom drivers and
// hand-built flow sets).
func firstCell(s *scenario.Spec, quick bool) (cellInputs, bool, error) {
	w := s.Workload
	if s.Driver != "" || w.Custom != "" {
		return cellInputs{}, false, nil
	}
	ts, patt, sizes := s.Topology, w.Pattern, w.Sizes
	count := pick(quick, w.Count, w.QuickCount)
	perHost := pick(quick, w.CountPerHost, w.QuickCountPerHost)
	var rate, windowMs float64
	if a := w.Arrival; a != nil {
		rate, windowMs = pick(quick, a.Rate, a.QuickRate), pick(quick, a.WindowMs, a.QuickWindowMs)
	}
	if sw := s.Sweep; sw != nil {
		cases, values := sw.Cases, sw.Values
		if quick && len(sw.QuickCases) > 0 {
			cases = sw.QuickCases
		}
		if quick && len(sw.QuickValues) > 0 {
			values = sw.QuickValues
		}
		if len(cases) > 0 {
			c := cases[0]
			if c.Topology != nil {
				ts = *c.Topology
			}
			if c.Pattern != nil {
				patt = *c.Pattern
			}
			if c.Sizes != nil {
				sizes = *c.Sizes
			}
		} else if len(values) > 0 {
			v := values[0]
			switch sw.Axis {
			case "flows":
				count = int(v)
			case "flows-per-host":
				perHost = v
			case "mean-size-kb":
				p := map[string]float64{"mean_kb": v}
				for k, pv := range sizes.Params {
					if k != "mean_kb" {
						p[k] = pv
					}
				}
				sizes.Params = p
			case "poisson-rate":
				rate = v
			}
		}
	}
	hosts, err := topo.HostsByName(ts.Name, ts.Params)
	if err != nil {
		return cellInputs{}, false, err
	}
	rackOf, err := topo.RackOfByName(ts.Name, ts.Params)
	if err != nil {
		return cellInputs{}, false, err
	}
	if w.Hosts > 0 && w.Hosts < hosts {
		hosts = w.Hosts
	}
	n := count
	if perHost > 0 {
		n = int(perHost * float64(hosts))
	}
	if n <= 0 {
		n = pick(quick, s.Eval.Hi, s.Eval.QuickHi)
		if s.Eval.HiPerHost > 0 {
			n = int(s.Eval.HiPerHost * float64(hosts))
		}
	}
	poisson := w.Arrival != nil
	if poisson && rate <= 0 {
		rate = float64(pick(quick, s.Eval.Steps, s.Eval.QuickSteps)) * s.Eval.RateStep
	}
	if (poisson && rate <= 0) || (!poisson && n <= 0) {
		return cellInputs{}, false, fmt.Errorf("cannot resolve the first cell's flow count")
	}
	pat, err := traffic.MakePattern(patt.Name, patt.Params)
	if err != nil {
		return cellInputs{}, false, err
	}
	dist, err := traffic.MakeSizeDist(sizes.Name, sizes.Params)
	if err != nil {
		return cellInputs{}, false, err
	}
	meanDl := sim.Time(w.MeanDeadlineMs * float64(sim.Millisecond))
	window := sim.Time(windowMs * float64(sim.Millisecond))
	return cellInputs{topo: ts, gen: func(seed int64) []traffic.Flow {
		g := traffic.NewGen(seed, dist, meanDl)
		if poisson {
			return g.Poisson(rate, window, pat, hosts, rackOf)
		}
		return g.Batch(n, pat, hosts, rackOf, 0)
	}}, true, nil
}

// pick resolves a full/quick spec pair: the quick value wins at quick
// scale when it is set.
func pick[T int | float64](quick bool, full, q T) T {
	if quick && q != 0 {
		return q
	}
	return full
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// opts returns the options spec s runs with in w at the run's seed and
// worker count.
func (w *workload) opts(s *scenario.Spec, seed int64, workers int) scenario.Opts {
	if w.pinRandomWork && (isSearch(s) || s.Workload.Arrival != nil) {
		seed = goldenSeed
	}
	return scenario.Opts{Quick: w.quick, Seed: seed, Parallel: workers}
}

// isSearch reports whether s's cells search for a threshold.
func isSearch(s *scenario.Spec) bool {
	return s.Eval.Mode == "max-flows" || s.Eval.Mode == "max-rate"
}
