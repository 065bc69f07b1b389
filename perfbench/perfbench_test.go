package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"

	"pdq/internal/scenario"
)

// tinyWorkloads are the benchmark's workloads at a scale that runs in
// seconds: three figures (one a search, two with golden tables), and the
// fat-tree one at its benchmark size.
func tinyWorkloads() []*workload {
	return []*workload{
		figuresQuick([]string{"fig3a", "fig9a", "fig9b"}),
		fatTreePacket(8),
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func metricNames(ds []metricDecl) []string {
	var out []string
	for _, d := range ds {
		out = append(out, d.Name)
	}
	sort.Strings(out)
	return out
}

func reportedNames(o *outcome) []string {
	var out []string
	for n := range o.res.Metrics {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func TestEveryWorkloadEmitsEveryDeclaredMetric(t *testing.T) {
	for _, w := range tinyWorkloads() {
		for _, traced := range []bool{false, true} {
			out, err := measure(w, config{seed: 7, trace: traced, root: ".."})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !out.res.Correct {
				t.Errorf("%s traced=%v: output checks failed: %v", w.name, traced, out.checks)
			}
			if out.res.Attempted < 1 || out.res.Failed != 0 {
				t.Errorf("%s traced=%v: attempted %d failed %d", w.name, traced, out.res.Attempted, out.res.Failed)
			}
			if got, want := reportedNames(out), metricNames(declared(traced)); !reflect.DeepEqual(got, want) {
				t.Errorf("%s traced=%v: reported %v, declared %v", w.name, traced, got, want)
			}
		}
	}
}

func TestMetricNamesAndUnits(t *testing.T) {
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDecl(nil), endToEnd...), perLayer()...) {
		if !nameRE.MatchString(d.Name) || seen[d.Name] {
			t.Errorf("metric name %q is malformed or repeated", d.Name)
		}
		seen[d.Name] = true
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q is malformed", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better is %q", d.Name, d.Better)
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	for _, w := range workloads() {
		if !nameRE.MatchString(w.name) {
			t.Errorf("workload name %q is malformed", w.name)
		}
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json declares exactly the
// workloads and metrics this program runs and reports.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDecl `json:"end_to_end"`
		PerLayer []metricDecl `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.Paths, []string{"perfbench"}) || strings.Join(doc.Command, " ") != "bash perfbench/run.sh" {
		t.Errorf("command %v / paths %v do not name this benchmark", doc.Command, doc.Paths)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside [1, 60]", doc.RunSeconds)
	}
	ws := workloads()
	if len(doc.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program runs %d", len(doc.Workloads), len(ws))
	}
	for i, w := range ws {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the program has %q: %q", i, doc.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why is not one line of at most 200 characters", w.name)
		}
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEnd) {
		t.Errorf("end_to_end:\n got %+v\nwant %+v", doc.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayer()) {
		t.Errorf("per_layer:\n got %+v\nwant %+v", doc.PerLayer, perLayer())
	}
}

// TestSeedChangesTablesNotMetricSet runs one workload at two seeds: the
// inputs, and so the tables, differ; the metric set does not.
func TestSeedChangesTablesNotMetricSet(t *testing.T) {
	w := fatTreePacket(8)
	specs, err := w.load()
	if err != nil {
		t.Fatal(err)
	}
	var renders []string
	var names [][]string
	for _, seed := range []int64{1, 2} {
		out, err := measure(w, config{seed: seed, root: ".."})
		if err != nil {
			t.Fatal(err)
		}
		names = append(names, reportedNames(out))
		p, err := runPass(specs, func(s *scenario.Spec) scenario.Opts { return w.opts(s, seed, measuredWorkers) })
		if err != nil {
			t.Fatal(err)
		}
		renders = append(renders, p.render())
	}
	if renders[0] == renders[1] {
		t.Error("seeds 1 and 2 produced identical tables")
	}
	if !reflect.DeepEqual(names[0], names[1]) {
		t.Errorf("metric sets differ across seeds: %v vs %v", names[0], names[1])
	}
}

// TestGoldenMismatchFailsTheRun points the golden check at an altered
// copy of a committed golden table.
func TestGoldenMismatchFailsTheRun(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "internal", "exp", "testdata")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("..", "internal", "exp", "testdata", "fig3a_quick_seed7.golden"))
	if err != nil {
		t.Fatal(err)
	}
	altered := bytes.Replace(want, []byte("100.0"), []byte("100.1"), 1)
	if err := os.WriteFile(filepath.Join(dir, "fig3a_quick_seed7.golden"), altered, 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := measure(figuresQuick([]string{"fig3a"}), config{seed: 7, root: root})
	if err != nil {
		t.Fatal(err)
	}
	if out.res.Correct {
		t.Errorf("run with an altered golden reported correct; checks: %v", out.checks)
	}
}

// TestResultLine checks the printed report ends in the JSON object the
// benchmark contract asks for.
func TestResultLine(t *testing.T) {
	w := fatTreePacket(4)
	out, err := measure(w, config{seed: 3, root: ".."})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := out.print(&buf, w, config{seed: 3}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range last {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if want := []string{"attempted", "correct", "failed", "metrics"}; !reflect.DeepEqual(keys, want) {
		t.Errorf("result keys %v, want %v", keys, want)
	}
	if !strings.Contains(buf.String(), "cell_fail_ratio 0 ratio") {
		t.Errorf("report does not print cell_fail_ratio:\n%s", buf.String())
	}
}

func TestBadUsageExitsNonZeroWithoutResult(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "no-such-workload"},
		{"--workload", "figures-quick", "--trace", "2"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, stdout.String())
		}
	}
}
