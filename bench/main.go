// Command bench is the repository's benchmark: four workloads that go
// from a gsched request down to a simulated cycle, end-to-end metrics
// measured with tracing off, and a traced run that attributes the time
// to the layers. See README.md; run it through run.sh.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// contractFile is where run.sh, which runs the program from bench/,
// leaves the benchmark contract.
const contractFile = "../BENCHMARK.json"

// processStart is as close to process start as the program can read.
var processStart = time.Now()

type options struct {
	workload     string
	seed         uint64
	seconds      float64
	trace        bool
	smoke        bool
	recordGolden bool
	out          string // the gserved and gsched binaries, traces and temporary state
	tmp          string // removed on exit
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	o := &options{}
	trace := 0
	aa := 0
	fs.StringVar(&o.workload, "workload", "", "workload to run (see BENCHMARK.json)")
	fs.Uint64Var(&o.seed, "seed", goldenSeed, "generates the inputs: config seed, job keys, job order")
	fs.Float64Var(&o.seconds, "seconds", 0, "measuring time (default: run_seconds of BENCHMARK.json)")
	fs.IntVar(&trace, "trace", 0, "1: one untraced and one traced pass, print the per-layer metrics")
	fs.BoolVar(&o.smoke, "smoke", false, "tiny job lists, no golden check (bench_test.go)")
	fs.BoolVar(&o.recordGolden, "record-golden", false, "write golden/<workload>.json from this run (seed 1)")
	fs.IntVar(&aa, "aa", 0, "run every workload on this many seeds, twice, and compare the sets against the bounds")
	fs.StringVar(&o.out, "out", "out", "directory for binaries, traces and temporary state")
	if err := fs.Parse(args); err != nil {
		return err
	}
	o.trace = trace != 0
	c, err := loadContract(contractFile)
	if err != nil {
		return err
	}
	if o.seconds <= 0 {
		o.seconds = float64(c.RunSeconds)
	}
	if aa > 0 {
		return runAA(c, o.workload, o.out, aa, o.seconds)
	}
	if o.recordGolden && (o.seed != goldenSeed || o.smoke || o.trace) {
		return fmt.Errorf("-record-golden needs -seed %d and neither -smoke nor -trace", goldenSeed)
	}
	out, err := execute(o, c)
	if err != nil {
		return err
	}
	if o.recordGolden {
		if out.failedOps+out.mismatches > 0 {
			return fmt.Errorf("golden not recorded: %s", strings.Join(out.notes, "; "))
		}
		fmt.Println("recorded", goldenPath(o.workload))
		return nil
	}
	res, err := out.render(c, o.trace)
	if err != nil {
		return err
	}
	report(o, out, res)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%s: stats_mismatch=%d failed_ops=%d of %d", o.workload, out.mismatches, out.failedOps, out.ops)
	}
	return nil
}

// execute runs one workload once and returns what it measured. Its
// temporary state lives under o.out and is gone when it returns.
func execute(o *options, c *contract) (*outcome, error) {
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(o.out, "tmp-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	o.tmp = tmp
	switch {
	case strings.HasPrefix(o.workload, "sim_"):
		return runSim(o)
	case o.workload == "serve_jobs":
		return runServe(o)
	}
	var names []string
	for _, w := range c.Workloads {
		names = append(names, w.Name)
	}
	return nil, fmt.Errorf("-workload must be one of %s", strings.Join(names, ", "))
}

// maxNotes bounds what report prints when many operations fail alike.
const maxNotes = 12

// report prints every metric by name with its unit, then the
// correctness ledger. The result line follows it.
func report(o *options, out *outcome, res *result) {
	fmt.Printf("workload %s seed %d trace %v\n", o.workload, o.seed, o.trace)
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Printf("  %-32s %s %s\n", name, strconv.FormatFloat(m.Value, 'g', 6, 64), m.Unit)
	}
	fmt.Printf("  %-32s %d count\n", "stats_mismatch", out.mismatches)
	fmt.Printf("  %-32s %d count of %d ops\n", "failed_ops", out.failedOps, out.ops)
	for i, n := range out.notes {
		if i == maxNotes {
			fmt.Printf("  ... and %d more\n", len(out.notes)-maxNotes)
			break
		}
		fmt.Println("  " + n)
	}
	if _, ok := out.values["ipc_gain_pct"]; ok {
		fmt.Println("  ipc_gain_pct is a shape reproduction of Fig. 8 (EXPERIMENTS.md); resident-block counts match Tables VI/VIII exactly")
	}
}
