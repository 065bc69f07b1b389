// Command perfbench is the repository benchmark. It runs one named
// workload through the program's Go API (internal/exp, internal/scenario
// and the layers below them) in this process, checks the tables it
// produced, and prints every metric by name and unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (endToEnd); with
// -trace 1 a separate traced pass times the calls into each layer and
// the metrics are the per-layer ones (perLayer). BENCHMARK.json at the
// repository root declares both sets and the workloads.
//
// Run it from the repository root through the wrapper, which builds it
// from source first:
//
//	bash perfbench/run.sh --workload figures-quick --seed 7 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run parses args, measures one workload and prints the result. It
// returns the process exit code: 0 when a result was printed (correct or
// not), 2 on bad usage, 1 when the workload could not be measured.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := fs.Float64("seconds", 10, "how long the measured repetitions run")
	traced := fs.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintf(stderr, "perfbench: -trace must be 0 or 1, got %d\n", *traced)
		return 2
	}
	w, ok := lookupWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (available: %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *traced == 1, root: "."}
	out, err := measure(w, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if err := out.print(stdout, w, cfg); err != nil {
		fmt.Fprintf(stderr, "perfbench: writing result: %v\n", err)
		return 1
	}
	return 0
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object on the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// print writes the human-readable report (provenance, every metric with
// its unit, the output checks) and then the JSON result line.
func (o *outcome) print(w io.Writer, wl *workload, cfg config) error {
	mode := "untraced"
	if cfg.trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "perfbench %s (%s) seed=%d seconds=%g\n", wl.name, mode, cfg.seed, cfg.seconds)
	prov, err := json.Marshal(o.prov)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "provenance %s\n", prov)
	for _, line := range o.notes {
		fmt.Fprintln(w, line)
	}
	names := make([]string, 0, len(o.res.Metrics))
	for n := range o.res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := o.res.Metrics[n]
		fmt.Fprintf(w, "  %-32s %14.6g %s\n", n, m.Value, m.Unit)
	}
	for _, c := range o.checks {
		fmt.Fprintf(w, "check %s\n", c)
	}
	line, err := json.Marshal(o.res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
