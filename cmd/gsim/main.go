// Command gsim runs a single benchmark workload on the simulated GPU and
// prints its statistics report.
//
// Usage:
//
//	gsim -workload hotspot
//	gsim -workload lavaMD -sharing scratchpad -t 0.1 -sched OWF
//	gsim -workload MUM -sharing registers -unroll -dyn -sched OWF -v
//	gsim -workload hotspot -cachedir ~/.gpushare-cache   # rerun = cache hit
//	gsim -list
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"syscall"

	"gpushare/internal/checkpoint"
	"gpushare/internal/config"
	"gpushare/internal/gpu"
	"gpushare/internal/runner"
	"gpushare/internal/simerr"
	"gpushare/internal/workloads"
)

// bisectHang reruns the workload with an in-memory checkpoint trail
// and, if the run fails (hang, invariant violation, divergence),
// binary-searches the trail with gpu.Sim.AuditCheckpoint for the first
// snapshot whose machine state already violates a simulator invariant —
// localizing the corruption to one checkpoint stride instead of one
// whole run.
func bisectHang(ctx context.Context, cfg config.Config, spec *workloads.Spec, scale int) {
	sink := checkpoint.NewMemSink()
	sim, err := gpu.New(cfg)
	fatal(err)
	sim.CheckpointSink = sink
	inst := spec.Build(scale)
	inst.Setup(sim.Mem)
	g, runErr := sim.RunCtx(ctx, inst.Launch)
	if runErr == nil {
		fmt.Printf("run completed cleanly in %d cycles; nothing to bisect\n", g.Cycles)
		return
	}
	if runner.IsCanceled(runErr) {
		fatalSim(runErr)
	}
	cycles := sink.List()
	fmt.Fprintf(os.Stderr, "gsim: run failed: %v\n", runErr)
	if len(cycles) == 0 {
		fmt.Fprintf(os.Stderr, "gsim: no checkpoints were taken before the failure (stride %d)\n", cfg.CheckpointStride)
		os.Exit(1)
	}
	fmt.Printf("bisecting %d checkpoints (cycles %d..%d, stride %d)\n",
		len(cycles), cycles[0], cycles[len(cycles)-1], cfg.CheckpointStride)

	asim, err := gpu.New(cfg)
	fatal(err)
	firstBad, lo, hi := -1, 0, len(cycles)-1
	var badErr error
	for lo <= hi {
		mid := (lo + hi) / 2
		_, aerr := asim.AuditCheckpoint(inst.Launch, sink.Get(cycles[mid]))
		fmt.Printf("  cycle %-12d %s\n", cycles[mid], auditVerdict(aerr))
		if aerr != nil {
			firstBad, badErr = mid, aerr
			hi = mid - 1
		} else {
			lo = mid + 1
		}
	}
	if firstBad < 0 {
		fmt.Printf("every checkpoint audits clean: the failure arises after cycle %d\n", cycles[len(cycles)-1])
		fmt.Printf("rerun with a smaller -checkpoint-stride to narrow it further\n")
		os.Exit(1)
	}
	lastGood := int64(0)
	if firstBad > 0 {
		lastGood = cycles[firstBad-1]
	}
	fmt.Printf("first corrupt checkpoint: cycle %d (last clean: %d)\n", cycles[firstBad], lastGood)
	fmt.Printf("audit: %v\n", badErr)
	os.Exit(1)
}

func auditVerdict(err error) string {
	if err == nil {
		return "clean"
	}
	return "VIOLATION"
}

func main() {
	var (
		name     = flag.String("workload", "", "benchmark name (see -list)")
		list     = flag.Bool("list", false, "list workloads and exit")
		schedS   = flag.String("sched", "LRR", "warp scheduler: LRR, GTO, TwoLevel, OWF")
		shareS   = flag.String("sharing", "none", "sharing mode: none, registers, scratchpad")
		t        = flag.Float64("t", 0.1, "sharing threshold t (sharing %% = (1-t)*100)")
		unroll   = flag.Bool("unroll", false, "enable register declaration unrolling (§IV-B)")
		dyn      = flag.Bool("dyn", false, "enable dynamic warp execution (§IV-C)")
		release  = flag.Bool("earlyrelease", false, "enable early shared-register release (§VIII ext.)")
		l1pol    = flag.String("l1policy", "LRU", "L1 replacement policy: LRU, FIFO, Rand")
		trace    = flag.Int64("trace", 0, "emit a progress snapshot every N cycles")
		invar    = flag.Int64("invariants", 0, "audit simulator invariants every N cycles (0 disables)")
		scale    = flag.Int("scale", 1, "workload grid scale")
		verify   = flag.Bool("verify", true, "check functional outputs after the run")
		showOcc  = flag.Bool("occupancy", false, "print the occupancy plan and exit")
		cacheDir = flag.String("cachedir", "", "on-disk result cache directory: identical runs are served from cache ('' disables; ignored with -trace)")
		verbose  = flag.Bool("v", false, "print the per-partition memory breakdown after the run")
		ckStride = flag.Int64("checkpoint-stride", 0, "write a machine snapshot every N cycles (0 disables; results identical either way)")
		ckDir    = flag.String("checkpoint-dir", "", "directory for checkpoint files (with -checkpoint-stride; keeps the whole trail)")
		restore  = flag.String("restore", "", "resume from this checkpoint file instead of cycle 0 (the run must match the checkpoint's workload and config exactly)")
		bisect   = flag.Bool("bisect-hang", false, "run with in-memory checkpoints and, if the run fails, binary-search the trail for the first snapshot violating a simulator invariant")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write a post-GC heap profile to this file on exit")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		fatal(err)
		fatal(pprof.StartCPUProfile(f))
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			fatal(err)
			defer f.Close()
			runtime.GC()
			fatal(pprof.WriteHeapProfile(f))
		}()
	}

	if *list {
		for _, s := range workloads.All() {
			fmt.Printf("%-10s set-%d %-10s %-32s block=%d regs=%d smem=%d\n",
				s.Name, s.Set, s.Suite, s.Kernel, s.BlockDim, s.RegsPerThread, s.SmemPerBlock)
		}
		return
	}
	if *name == "" {
		fmt.Fprintln(os.Stderr, "gsim: -workload is required (use -list)")
		os.Exit(2)
	}
	spec, err := workloads.ByName(*name)
	fatal(err)

	cfg := config.Default()
	cfg.Sched, err = config.ParsePolicy(*schedS)
	fatal(err)
	cfg.Sharing, err = config.ParseSharing(*shareS)
	fatal(err)
	cfg.T = *t
	cfg.UnrollRegs = *unroll
	cfg.DynWarp = *dyn
	cfg.EarlyRegRelease = *release
	cfg.L1Policy, err = config.ParseCachePolicy(*l1pol)
	fatal(err)
	cfg.TraceInterval = *trace
	cfg.InvariantStride = *invar
	cfg.CheckpointStride = *ckStride
	if *bisect && cfg.CheckpointStride <= 0 {
		cfg.CheckpointStride = 5000
	}

	sim, err := gpu.New(cfg)
	fatal(err)
	if *trace > 0 {
		sim.Trace = os.Stderr
	}
	inst := spec.Build(*scale)

	if *showOcc {
		fmt.Println(sim.Occupancy(inst.Launch.Kernel))
		return
	}

	fmt.Printf("running %s (%s / %s), grid %d x %d threads, %s\n",
		spec.Name, spec.Suite, spec.Kernel, inst.Launch.GridDim, spec.BlockDim, cfg.String())
	fmt.Printf("occupancy: %s\n\n", sim.Occupancy(inst.Launch.Kernel))

	// With a cache directory (and no trace request), route the run
	// through the job runner: an identical earlier run — same workload,
	// configuration, and scale, from this or any previous process — is
	// served from the content-addressed store instead of re-simulated.
	// SIGINT/SIGTERM cancel the run within one cancellation stride
	// instead of letting it die mid-simulation; an interrupted cached
	// run leaves the disk store consistent (entries write atomically).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *bisect {
		bisectHang(ctx, cfg, spec, *scale)
		return
	}

	if *ckDir != "" && cfg.CheckpointStride > 0 {
		sink, err := checkpoint.NewDirSink(*ckDir, 0) // keep the whole trail
		fatal(err)
		sim.CheckpointSink = sink
		fmt.Printf("checkpointing every %d cycles into %s\n", cfg.CheckpointStride, sink.Dir())
	}
	if *restore != "" {
		blob, err := os.ReadFile(*restore)
		fatal(err)
		sim.RestoreFrom = blob
		fmt.Printf("resuming from checkpoint %s\n", *restore)
	}

	if *cacheDir != "" && *trace == 0 && *restore == "" && sim.CheckpointSink == nil {
		r := runner.New(runner.Options{Workers: 1, CacheDir: *cacheDir, Verify: *verify})
		res := r.DoCtx(ctx, runner.Job{Workload: spec.Name, Config: cfg, Scale: *scale})
		fatalSim(res.Err)
		fmt.Print(res.Stats.Report())
		if *verbose {
			fmt.Print(res.Stats.MemReport())
		}
		fmt.Printf("result source: %s\n", res.Tier)
		if *verify && res.Tier == runner.Simulated {
			fmt.Println("functional check: ok")
		}
		return
	}

	inst.Setup(sim.Mem)
	g, err := sim.RunCtx(ctx, inst.Launch)
	fatalSim(err)
	fmt.Print(g.Report())
	if *verbose {
		fmt.Print(g.MemReport())
	}

	if *verify && inst.Check != nil {
		if err := inst.Check(sim.Mem); err != nil {
			fmt.Fprintf(os.Stderr, "gsim: FUNCTIONAL CHECK FAILED: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("functional check: ok")
	}
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "gsim:", err)
		os.Exit(1)
	}
}

// fatalSim is fatal with forensics: a typed simulation error prints its
// full diagnosis (per-warp state, stall reasons, memory queue depths)
// rather than just the one-line header. Interrupts exit 130.
func fatalSim(err error) {
	if err == nil {
		return
	}
	if runner.IsCanceled(err) {
		fmt.Fprintln(os.Stderr, "gsim: interrupted")
		os.Exit(130)
	}
	if se, ok := simerr.As(err); ok && se.Dump != nil {
		fmt.Fprintln(os.Stderr, "gsim:", se.Diagnosis())
		os.Exit(1)
	}
	fatal(err)
}
