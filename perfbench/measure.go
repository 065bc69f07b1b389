package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"pdq/internal/scenario"
)

// config is one benchmark invocation.
type config struct {
	seed    int64
	seconds float64 // measured repetitions run at least this long
	trace   bool    // report per-layer metrics from a traced pass
	root    string  // repository root
}

// A run repeats set-up at least setupMinReps times and for at least
// setupMinTime; setup_s is the median.
const (
	setupMinReps = 9
	setupMinTime = time.Second
)

// minReps is the fewest measured repetitions a run makes.
const minReps = 2

// outcome is a finished measurement, ready to print.
type outcome struct {
	res    result
	prov   provenance
	notes  []string // context lines printed before the metrics
	checks []string // one line per output check, "ok ..." or "FAILED ..."
}

// fail records a failed output check.
func (o *outcome) fail(format string, args ...any) {
	o.res.Correct = false
	o.checks = append(o.checks, "FAILED "+fmt.Sprintf(format, args...))
}

func (o *outcome) ok(format string, args ...any) {
	o.checks = append(o.checks, "ok "+fmt.Sprintf(format, args...))
}

// measure runs workload w once as cfg asks.
func measure(w *workload, cfg config) (*outcome, error) {
	out := &outcome{
		res:  result{Correct: true, Metrics: map[string]metric{}},
		prov: collectProvenance(cfg),
	}
	var setups []setupCost
	for start := time.Now(); len(setups) < setupMinReps || time.Since(start) < setupMinTime; {
		runtime.GC() // each set-up starts from the same heap
		c, err := w.setup(cfg.seed)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, c)
	}
	specs, err := w.load()
	if err != nil {
		return nil, err
	}
	opts := func(s *scenario.Spec) scenario.Opts { return w.opts(s, cfg.seed, measuredWorkers) }

	var ref *pass // the run's reference tables
	if cfg.trace {
		ref, err = measureTraced(w, cfg, specs, opts, setups, out)
	} else {
		ref, err = measureUntraced(cfg, specs, opts, setups, out)
	}
	if err != nil {
		return nil, err
	}
	if err := checkOutputs(w, cfg, specs, ref, out); err != nil {
		return nil, err
	}
	for _, d := range declared(cfg.trace) {
		if _, ok := out.res.Metrics[d.Name]; !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
	}
	return out, nil
}

// measureUntraced runs the workload's tables once untimed, as warm-up and
// reference, then repeats them until cfg.seconds have passed and reports
// the end-to-end metrics.
func measureUntraced(cfg config, specs []*scenario.Spec, opts func(*scenario.Spec) scenario.Opts, setups []setupCost, out *outcome) (*pass, error) {
	ref, err := runPass(specs, opts)
	if err != nil {
		return nil, err
	}
	var (
		want        = ref.render()
		walls, rss  []float64
		perRepPeaks = resetPeakRSS() == nil
	)
	start := time.Now()
	for len(walls) < minReps || time.Since(start).Seconds() < cfg.seconds {
		if perRepPeaks {
			if err := resetPeakRSS(); err != nil {
				return nil, err
			}
		}
		runtime.GC() // each repetition starts from the same heap
		p, err := runPass(specs, opts)
		if err != nil {
			return nil, err
		}
		peak, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		rss = append(rss, peak)
		a, f := p.cells()
		out.res.Attempted += a
		out.res.Failed += f
		walls = append(walls, p.wall.Seconds())
		if p.render() != want {
			out.fail("repetition %d's tables differ from the warm-up pass's", len(walls))
		}
	}
	if !perRepPeaks {
		out.notes = append(out.notes, "peak_rss_mb is the process's peak: the kernel does not let it reset the peak per repetition")
	}
	out.ok("%d repetitions produced the warm-up pass's tables", len(walls))

	okRatio := 1 - float64(out.res.Failed)/float64(out.res.Attempted)
	m := out.res.Metrics
	m["wall_s"] = metric{median(walls), "s"}
	m["setup_s"] = metric{median(setupSeconds(setups)), "s"}
	m["peak_rss_mb"] = metric{median(rss), "MB"}
	m["cell_ok_ratio"] = metric{okRatio, "ratio"}
	out.notes = append(out.notes,
		fmt.Sprintf("wall_s over %d repetitions: min %.4f median %.4f max %.4f",
			len(walls), slices.Min(walls), median(walls), slices.Max(walls)),
		fmt.Sprintf("cell_fail_ratio %g ratio (%d of %d cells failed)", 1-okRatio, out.res.Failed, out.res.Attempted))
	return ref, nil
}

func setupSeconds(cs []setupCost) []float64 {
	out := make([]float64, len(cs))
	for i, c := range cs {
		out[i] = c.total().Seconds()
	}
	return out
}

// checkOutputs verifies the reference tables: the paper's qualitative
// result, identical tables at the other worker count, and, for the
// figure workload, the committed seed-7 goldens byte for byte.
func checkOutputs(w *workload, cfg config, specs []*scenario.Spec, ref *pass, out *outcome) error {
	if _, f := ref.cells(); f > 0 {
		out.fail("%d cells failed", f)
	}
	if w.claims != nil {
		if err := w.claims(ref.tables); err != nil {
			out.fail("paper claim: %v", err)
		} else {
			out.ok("paper claim: PDQ has the lowest mean FCT")
		}
	}

	workers := runtime.GOMAXPROCS(0)
	p, err := runPass(specs, func(s *scenario.Spec) scenario.Opts { return w.opts(s, cfg.seed, workers) })
	if err != nil {
		return err
	}
	if p.render() != ref.render() {
		out.fail("tables at %d workers differ from tables at %d", workers, measuredWorkers)
	} else {
		out.ok("tables identical at %d and %d workers", measuredWorkers, workers)
	}

	if !w.golden {
		return nil
	}
	files, err := filepath.Glob(filepath.Join(cfg.root, "internal", "exp", "testdata", "*_quick_seed7.golden"))
	if err != nil || len(files) == 0 {
		return fmt.Errorf("no committed golden tables under %s (err %v)", cfg.root, err)
	}
	var bad []string
	checked := 0
	for _, file := range files {
		f := strings.TrimSuffix(filepath.Base(file), "_quick_seed7.golden")
		i := slices.IndexFunc(specs, func(s *scenario.Spec) bool { return s.Name == f })
		if i < 0 {
			continue // a figure this workload does not run
		}
		want, err := os.ReadFile(file)
		if err != nil {
			return fmt.Errorf("reading golden: %w", err)
		}
		checked++
		var got string
		if o := w.opts(specs[i], cfg.seed, measuredWorkers); o.Seed == goldenSeed {
			got = ref.tables[i].String()
		} else {
			o.Seed = goldenSeed
			t, err := scenario.Run(specs[i], o)
			if err != nil {
				return err
			}
			got = t.String()
		}
		if !bytes.Equal([]byte(got), want) {
			bad = append(bad, f)
		}
	}
	if len(bad) > 0 {
		out.fail("seed-7 tables differ from the committed goldens: %s", strings.Join(bad, ", "))
	} else {
		out.ok("%d seed-7 tables match the committed goldens", checked)
	}
	return nil
}

// resetPeakRSS resets the process's peak resident set size to its
// current one, so that the next peakRSSMB reads the peak since now.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
