package main

import (
	"encoding/json"
	"go/parser"
	"go/token"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestContract holds BENCHMARK.json to the limits it is accepted under.
func TestContract(t *testing.T) {
	blob, err := os.ReadFile(contractFile)
	if err != nil {
		t.Fatal(err)
	}
	if len(blob) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(blob))
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(blob, &keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("missing key %q", k)
		}
		delete(keys, k)
	}
	for k := range keys {
		t.Errorf("unexpected key %q", k)
	}
	c, err := loadContract(contractFile)
	if err != nil {
		t.Fatal(err)
	}
	if c.RunSeconds < 1 || c.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", c.RunSeconds)
	}
	if n := len(c.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(c.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(c.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	seen := make(map[string]bool)
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %s", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range c.Workloads {
		name(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	metric := func(d metricDef) {
		name(d.Name)
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("metric %s: unit %q", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %s: better %q", d.Name, d.Better)
		}
	}
	setup := false
	for _, d := range c.EndToEnd {
		metric(d)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, d := range c.PerLayer {
		metric(d)
		if d.Bound != 0 {
			t.Errorf("per-layer metric %s has a bound", d.Name)
		}
	}
}

// TestSmoke runs every workload at -smoke size through the real
// daemons and checks what comes out against BENCHMARK.json: every
// emitted name is listed there, every end-to-end metric is measured and
// not 0, the outputs are correct, and the trace is written.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations and daemons")
	}
	c, err := loadContract(contractFile)
	if err != nil {
		t.Fatal(err)
	}
	out := t.TempDir()
	build := exec.Command("go", "build", "-o", out+"/", "gpushare/cmd/gserved", "gpushare/cmd/gsched")
	if blob, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building the daemons: %v\n%s", err, blob)
	}
	start := time.Now()
	for _, w := range c.Workloads {
		o := &options{workload: w.Name, seed: 7, seconds: 1, trace: true, smoke: true, out: out}
		got, err := execute(o, c)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if got.failedOps != 0 || got.mismatches != 0 || got.ops == 0 {
			t.Errorf("%s: failed_ops=%d stats_mismatch=%d of %d ops: %v", w.Name, got.failedOps, got.mismatches, got.ops, got.notes)
		}
		for _, traced := range []bool{false, true} {
			res, err := got.render(c, traced)
			if err != nil {
				t.Errorf("%s traced=%v: %v", w.Name, traced, err)
				continue
			}
			want := c.EndToEnd
			if traced {
				want = c.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json lists %d", w.Name, traced, len(res.Metrics), len(want))
			}
			for name, m := range res.Metrics {
				if !nameRE.MatchString(name) {
					t.Errorf("%s: metric name %q", w.Name, name)
				}
				if math.IsNaN(m.Value) || (!traced && m.Value == 0) {
					t.Errorf("%s: %s = %v", w.Name, name, m.Value)
				}
			}
		}
		modesOnly(t, w.Name, got)
		blob, err := os.ReadFile(filepath.Join(out, "trace-"+w.Name+".json"))
		if err != nil {
			t.Errorf("%s: %v", w.Name, err)
			continue
		}
		var trace struct {
			TraceEvents []struct {
				Name string
				Args struct{ Parent int }
			}
		}
		if err := json.Unmarshal(blob, &trace); err != nil || len(trace.TraceEvents) == 0 {
			t.Errorf("%s: trace has %d events: %v", w.Name, len(trace.TraceEvents), err)
		}
		if int(got.values["bench.spans"]) != len(trace.TraceEvents) {
			t.Errorf("%s: bench.spans=%v, trace has %d events", w.Name, got.values["bench.spans"], len(trace.TraceEvents))
		}
		if share := got.values["bench.harness_self_pct"]; share < 0 || share > 5 {
			t.Errorf("%s: the benchmark's own spans hold %.2f%% of the traced time, want under 5", w.Name, share)
		}
	}
	t.Logf("smoke took %s", time.Since(start).Round(time.Millisecond))
	if ents, _ := filepath.Glob(filepath.Join(out, "tmp-*")); len(ents) != 0 {
		t.Errorf("temporary state left behind: %v", ents)
	}
}

// modesOnly checks that the layers only sim_modes exercises read 0
// everywhere else, and that sim_modes measures them.
func modesOnly(t *testing.T, workload string, got *outcome) {
	if workload == "sim_modes" {
		for _, name := range []string{"checkpoint.snapshots", "checkpoint.put_ms", "checkpoint.latest_ms",
			"tenancy.spatial_s", "tenancy.host_ns_per_cycle", "invariant.audit_overhead_pct",
			"gpu.multicore_leg_s", "gpu.multicore_speedup"} {
			if got.values[name] == 0 {
				t.Errorf("sim_modes: %s = 0", name)
			}
		}
		return
	}
	for name, v := range got.values {
		layer, _, _ := strings.Cut(name, ".")
		only := layer == "checkpoint" || layer == "tenancy" || layer == "invariant" || strings.HasPrefix(name, "gpu.multicore_")
		if only && v != 0 {
			t.Errorf("%s: %s = %v", workload, name, v)
		}
	}
}

// TestSurface keeps the benchmark on the surface it is allowed to use:
// a change that claims a gain may not edit the benchmark, so the
// benchmark must not name what the roadmap plans to delete or merge.
func TestSurface(t *testing.T) {
	allowed := map[string]bool{
		"gpushare":                     true,
		"gpushare/internal/checkpoint": true,
		"gpushare/internal/wal":        true,
		"gpushare/internal/client":     true,
		"gpushare/internal/server":     true, // wire types of internal/client only
	}
	forbidden := []string{"SMWorkers", "NoFastForward", "NoSnapshot", "NoSMSleep", "NoMemSleep",
		"server.Options", "fleet.Options", "gpushare/internal/fleet"}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, word := range forbidden {
			if strings.Contains(string(src), word) {
				t.Errorf("%s names %s", file, word)
			}
		}
		f, err := parser.ParseFile(token.NewFileSet(), file, src, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if strings.HasPrefix(path, "gpushare") && !allowed[path] {
				t.Errorf("%s imports %s, which is outside the benchmark surface", file, path)
			}
		}
	}
}

// TestQuartiles pins the A/A spread to Python's
// statistics.quantiles(v, n=4).
func TestQuartiles(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v; want 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q3 != 12 {
		t.Errorf("quartiles of 1,2,4,8,16 = %v, %v; want 1.5, 12", q1, q3)
	}
}

// TestSelfTimes checks the self-time rule: a span's duration minus the
// union of its children, so concurrent children are not counted twice.
func TestSelfTimes(t *testing.T) {
	tr := &tracer{on: true}
	tr.spans = []span{
		{Name: "pass", StartNs: 0, EndNs: 100, Parent: -1},
		{Name: "bench.client", StartNs: 10, EndNs: 90, Parent: 0, lane: 1},
		{Name: "bench.client", StartNs: 10, EndNs: 80, Parent: 0, lane: 2},
		{Name: "client.submit_wait", StartNs: 20, EndNs: 70, Parent: 1, lane: 1},
		{Name: "client.submit_wait", StartNs: 10, EndNs: 80, Parent: 2, lane: 2},
	}
	self := tr.selfTimes()
	if self["pass"] != 20 || self["bench.client"] != 30 || self["client.submit_wait"] != 120 {
		t.Errorf("self times %v", self)
	}
	if got := harnessSharePct(self); math.Abs(got-100*50.0/170) > 1e-9 {
		t.Errorf("harness share %v", got)
	}
}
