// Command gexp reproduces the paper's evaluation. It runs experiments by
// id (one per table/figure of the paper) and prints the same rows and
// series the paper reports as GitHub-flavoured Markdown tables,
// optionally annotated with the paper's published values (-paper; the
// whole evaluation at -scale 2 -paper is EXPERIMENTS.md below its
// generated marker). Simulations run as descriptor-addressed jobs on a
// concurrent farm (-j) with an optional on-disk result cache
// (-cachedir), so repeated sweeps skip already-simulated
// configurations; parallel runs print tables bit-identical to
// sequential ones.
//
// Usage:
//
//	gexp -exp fig8c                      # one experiment
//	gexp -exp all -scale 2               # the whole evaluation
//	gexp -exp all -j 8 -cachedir ~/.gexp # 8-way parallel, durable cache
//	gexp -list                           # show experiment ids
//	gexp -exp table5 -paper              # include the paper's values
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"

	"gpushare/internal/harness"
	"gpushare/internal/runner"
)

// startCPUProfile begins CPU profiling to path; the returned stop must
// run before exit for the profile to be complete.
func startCPUProfile(path string) func() {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gexp: -cpuprofile: %v\n", err)
		os.Exit(1)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		fmt.Fprintf(os.Stderr, "gexp: -cpuprofile: %v\n", err)
		os.Exit(1)
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}
}

// writeMemProfile dumps the post-GC heap to path.
func writeMemProfile(path string) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gexp: -memprofile: %v\n", err)
		os.Exit(1)
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		fmt.Fprintf(os.Stderr, "gexp: -memprofile: %v\n", err)
		os.Exit(1)
	}
}

func main() {
	var (
		exp      = flag.String("exp", "", "experiment id (fig1a..fig12b, table5..table8, hw, ext-*, ten-*) or 'all'")
		scale    = flag.Int("scale", 2, "workload grid scale")
		list     = flag.Bool("list", false, "list experiment ids and exit")
		verbose  = flag.Bool("v", false, "print per-run progress and cache statistics")
		verify   = flag.Bool("verify", false, "re-check functional outputs after every run")
		paper    = flag.Bool("paper", false, "print the paper's reported values and caveats next to measured ones")
		workers  = flag.Int("j", runtime.GOMAXPROCS(0), "max concurrent simulations (1 = sequential, results identical either way)")
		cacheDir = flag.String("cachedir", "", "on-disk result cache directory, reused across runs ('' disables)")
		invar    = flag.Int64("invariants", 0, "audit simulator invariants every N cycles (0 disables; audited runs cache separately)")
		strict   = flag.Bool("strict", false, "abort on the first failed simulation instead of rendering a zeroed cell with its diagnosis")
		ckDir    = flag.String("checkpoint-dir", "", "mid-simulation checkpoint directory: retried attempts resume from the last snapshot instead of cycle 0; results identical either way ('' disables)")
		ckStride = flag.Int64("checkpoint-stride", 100_000, "cycles between mid-simulation snapshots (with -checkpoint-dir)")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write a post-GC heap profile to this file on exit")
	)
	flag.Parse()

	if *cpuProf != "" {
		stop := startCPUProfile(*cpuProf)
		defer stop()
	}
	if *memProf != "" {
		defer writeMemProfile(*memProf)
	}

	if *list {
		fmt.Println(strings.Join(harness.IDs(), "\n"))
		return
	}
	if *exp == "" {
		fmt.Fprintln(os.Stderr, "gexp: -exp is required (use -list to see ids)")
		os.Exit(2)
	}

	// SIGINT/SIGTERM cancel the session context: in-flight simulations
	// stop within one cancellation stride, completed results stay in the
	// (atomically written) cache, and gexp exits cleanly instead of
	// dying mid-write.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	s := harness.NewSession(*scale)
	s.InvariantStride = *invar
	s.SoftFail = !*strict
	s.Ctx = ctx
	s.Runner = runner.Options{
		Workers:          *workers,
		CacheDir:         *cacheDir,
		Verify:           *verify,
		CheckpointDir:    *ckDir,
		CheckpointStride: *ckStride,
	}
	if *verbose {
		s.Runner.Progress = func(line string) { fmt.Fprintln(os.Stderr, line) }
	}

	ids := []string{*exp}
	if *exp == "all" {
		ids = harness.IDs()
	}

	// With more than one worker, farm out the deduplicated job matrix
	// of all the experiments as one sweep first, so the pool never idles
	// at an experiment boundary; the loop below then assembles tables
	// from pure cache hits. With one worker each experiment runs its own
	// simulations as it is reached.
	if *workers != 1 {
		if err := s.Precompute(ids...); err != nil {
			exitErr(s, "", err)
		}
	}

	for _, id := range ids {
		tab, err := s.Experiment(id)
		if err != nil {
			exitErr(s, id, err)
		}
		var ref harness.PaperRef
		if *paper {
			ref = harness.PaperRefs[id]
		}
		fmt.Print(tab.Markdown(ref))
	}
	if *verbose {
		fmt.Fprintf(os.Stderr, "gexp: %s\n", s.Counters())
	}
}

// exitErr reports a failed or interrupted run. An interrupt exits with
// the conventional 130 after noting that completed work stays cached.
func exitErr(s *harness.Session, id string, err error) {
	prefix := "gexp"
	if id != "" {
		prefix += ": " + id
	}
	if runner.IsCanceled(err) {
		fmt.Fprintf(os.Stderr, "%s: interrupted (%s); completed results remain cached\n", prefix, s.Counters())
		os.Exit(130)
	}
	fmt.Fprintf(os.Stderr, "%s: %v\n", prefix, err)
	os.Exit(1)
}
