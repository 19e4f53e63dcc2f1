package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"gpushare"
	"gpushare/internal/checkpoint"
)

// setupGap is how far apart an untraced run sets up again: once at
// process start and then after the first job that ends this long after
// the previous set-up, outside the timed spans. setup_s is therefore
// sampled over the whole run like wall_s, and a few seconds of host
// noise spoil a few samples, not the metric.
const setupGap = 3 * time.Second

// simSetup is everything before the first timed operation of a sim_*
// workload: load the golden, generate the job list from the seed, make
// every job's simulator and build each distinct kernel's inputs once, so
// that a descriptor that cannot be built fails here and not inside a
// timed pass, and warm the process up with the three small kernels
// serve_jobs also warms its daemons with. The warm-up is most of it: it
// is the same kind of work as the timed passes, so setup_s follows the
// speed of the host the way wall_s does.
func simSetup(o *options) ([]job, *golden, error) {
	var g *golden
	if !o.smoke && !o.recordGolden {
		var err error
		if g, err = loadGolden(o.workload); err != nil {
			return nil, nil, err
		}
	}
	jobs, err := simJobs(o.workload, o.seed, o.smoke)
	if err != nil {
		return nil, nil, err
	}
	built := make(map[string]bool) // kernel at scale
	for i := range jobs {
		sim, err := gpushare.NewSimulator(jobs[i].sim.Config)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", jobs[i].name, err)
		}
		inputs := fmt.Sprint(jobs[i].kernel, "@", jobs[i].sim.Scale)
		if built[inputs] {
			continue
		}
		built[inputs] = true
		if _, err := buildInstances(&jobs[i].sim, sim); err != nil {
			return nil, nil, fmt.Errorf("%s: %w", jobs[i].name, err)
		}
	}
	if _, err := inProcessRefs(o, newTracer()); err != nil {
		return nil, nil, fmt.Errorf("warm-up: %w", err)
	}
	return jobs, g, nil
}

// runSim runs one sim_* workload: a closed loop of one job at a time at
// GOMAXPROCS=1, so that the timed thing is the simulator.
func runSim(o *options) (*outcome, error) {
	runtime.GOMAXPROCS(1)
	jobs, g, err := simSetup(o)
	if err != nil {
		return nil, err
	}
	setups := []float64{time.Since(processStart).Seconds()}

	b := &simBench{tr: newTracer(), nproc: runtime.NumCPU(), tmp: o.tmp,
		sinks: make(map[string]*checkpoint.DirSink)}
	var passes []passResult
	var setupErr error
	if !o.trace { // a traced run does not report setup_s
		last := time.Now()
		b.between = func() {
			if time.Since(last) < setupGap {
				return
			}
			t0 := time.Now()
			if _, _, err := simSetup(o); err != nil && setupErr == nil {
				setupErr = err
			}
			last = time.Now()
			setups = append(setups, last.Sub(t0).Seconds())
		}
	}
	if o.trace {
		if !o.smoke { // a smoke run is one pass; its trace overhead reads 0
			passes = append(passes, b.runPass(jobs))
		}
		b.tr.on = true
		passes = append(passes, b.runPass(jobs))
		b.tr.on = false
	} else {
		err := wholePasses(o.seconds, func() error {
			passes = append(passes, b.runPass(jobs))
			return nil // a job that fails is counted in failed_ops, the pass goes on
		})
		if err != nil {
			return nil, err
		}
		if setupErr != nil {
			return nil, setupErr
		}
	}

	out := newOutcome()
	verifySim(out, o, jobs, g, passes)
	if o.recordGolden {
		if out.failedOps+out.mismatches > 0 {
			return out, nil
		}
		g = &golden{Seed: o.seed, Jobs: make(map[string]goldenEntry)}
		for i := range jobs {
			r := &passes[0].res[i]
			g.Jobs[jobs[i].name] = goldenEntry{SHA256: r.sha, Cycles: r.stats.Cycles, IPC: r.stats.IPC()}
		}
		if err := g.write(o.workload); err != nil {
			return nil, err
		}
	}

	out.set("setup_s", median(setups))
	out.notes = append(out.notes, fmt.Sprintf("setup_s over %d set-ups %.4f s", len(setups), setups))
	timed := passes
	if o.trace {
		timed = passes[:1]
	}
	simEndToEnd(out, jobs, timed)
	if o.trace {
		simPerLayer(out, jobs, passes, b.tr)
		path := filepath.Join(o.out, "trace-"+o.workload+".json")
		if err := b.tr.writeChrome(path); err != nil {
			return nil, err
		}
		out.notes = append(out.notes, "trace written to "+path+" (under bench/)")
	}
	return out, nil
}

// verifySim fills the correctness ledger: every job must run, pass its
// functional check, reproduce the golden, repeat exactly from pass to
// pass, and — for the sim_modes variants — reproduce its plain run.
func verifySim(out *outcome, o *options, jobs []job, g *golden, passes []passResult) {
	byName := make(map[string]int, len(jobs))
	for i := range jobs {
		byName[jobs[i].name] = i
	}
	for pi := range passes {
		for i := range jobs {
			j, r := &jobs[i], &passes[pi].res[i]
			out.ops++
			if r.err != nil {
				out.fail("pass %d %s: %v", pi, j.name, r.err)
				continue
			}
			if pi == 0 && g != nil && (o.seed == goldenSeed || j.seedIndependent()) {
				g.check(out, j.name, r.sha)
			}
			if first := &passes[0].res[i]; pi > 0 && first.err == nil && first.sha != r.sha {
				out.mismatch("%s: pass %d differs from pass 0", j.name, pi)
			}
			if j.sameAs != "" {
				if want := &passes[pi].res[byName[j.sameAs]]; want.err == nil && want.sha != r.sha {
					out.mismatch("pass %d: %s differs from %s", pi, j.name, j.sameAs)
				}
			}
		}
	}
}

// simEndToEnd reports the end-to-end metrics of the timed passes. Host
// times are taken job by job as the median over the passes and then
// summed over the job list, so that a burst of host noise spoils one
// sample of one job and not a whole pass.
func simEndToEnd(out *outcome, jobs []job, passes []passResult) {
	var wall, host float64 // seconds per pass; inside Run, rate jobs only
	var cycles, instrs int64
	var alloc, passWalls []float64
	for i := range jobs {
		var walls, runs []float64
		var s *gpushare.Stats
		for pi := range passes {
			if r := &passes[pi].res[i]; r.err == nil {
				walls = append(walls, r.wall.Seconds())
				runs = append(runs, r.run.Seconds())
				s = r.stats
			}
		}
		if s == nil {
			continue
		}
		wall += median(walls)
		// A restore job's Stats cover cycles it did not step: it counts
		// toward wall_s, not toward the per-second rates.
		if jobs[i].mode != modeRestore {
			cycles += s.Cycles
			instrs += s.TotalWarpInstrs()
			host += median(runs)
		}
	}
	for pi := range passes {
		alloc = append(alloc, passes[pi].allocMB)
		passWalls = append(passWalls, passes[pi].wall.Seconds())
	}
	out.set("wall_s", wall)
	out.set("sim_cycles_per_s", float64(cycles)/host)
	out.set("warp_instrs_per_s", float64(instrs)/host)
	out.set("alloc_mb_per_pass", median(alloc))
	out.set("jobs_per_s", float64(len(jobs))/wall)
	out.notes = append(out.notes, fmt.Sprintf("%d timed passes of %d jobs, pass walls %.3f s", len(passes), len(jobs), passWalls))
}

// simPerLayer reports the per-layer numbers of a traced run. Timed
// layers come from the traced pass's spans; exact ones from the Stats
// the traced pass returned; differentials (one mode against the plain
// run of the same kernel) use both passes of the run.
func simPerLayer(out *outcome, jobs []job, passes []passResult, tr *tracer) {
	untraced, traced := &passes[0], &passes[len(passes)-1]
	self := tr.selfTimes()
	directLayers(out, self, len(jobs))
	out.set("runner.key_us", us(self["runner.key"])/float64(len(jobs)))

	cycles, instrs, host := rateTotals(jobs, traced)
	out.set("gpu.host_ns_per_cycle", float64(host.Nanoseconds())/float64(cycles))
	out.set("gpu.host_ns_per_warp_instr", float64(host.Nanoseconds())/float64(instrs))
	var executed int64
	for i := range traced.res {
		if traced.res[i].err == nil {
			executed += traced.res[i].executed()
		}
	}
	out.set("gpu.mallocs_per_kcycle", float64(traced.mallocs)/(float64(executed)/1e3))

	exactLayers(out, jobs, traced)
	modeLayers(out, jobs, passes)

	out.set("host.peak_rss_mb", peakRSSMB(os.Getpid()))
	out.set("host.gc_pause_ms", ms(traced.gcPause))
	out.set("host.num_gc", float64(traced.numGC))
	out.set("bench.spans", float64(len(tr.spans)))
	out.set("bench.trace_overhead_pct", 100*(traced.wall.Seconds()/untraced.wall.Seconds()-1))
	out.set("bench.harness_self_pct", harnessSharePct(self))
}

// directLayers reports the timed layers of jobs run straight through
// the simulator surface in this process, from their spans' self times.
func directLayers(out *outcome, self map[string]time.Duration, jobs int) {
	n := float64(jobs)
	out.set("workloads.build_ms", ms(self["workloads.build"])/n)
	out.set("workloads.check_ms", ms(self["workloads.check"])/n)
	out.set("gpu.new_ms", ms(self["gpu.new"])/n)
	out.set("gpu.run_s", self["gpu.run"].Seconds())
}

// exactLayers derives the simulated-time metrics from the returned
// Stats. They are in cycles, so causes do not overlap, and they repeat
// exactly for a seed.
func exactLayers(out *outcome, jobs []job, p *passResult) {
	var warpInstrs, stall, idle, scoreboard, unit, mempipe, lockwait, dyngate, xfers float64
	var smCycles, slots, partCycles, busy, cycles float64
	var sharedLaunched, sharedBlocks float64
	var l1Acc, l1Miss, l2Acc, l2Miss, dramReqs, rowHits, rowMisses float64
	baseOf := make(map[string]*gpushare.Stats)
	for i := range jobs {
		if jobs[i].base && p.res[i].err == nil {
			baseOf[jobs[i].kernel] = p.res[i].stats
		}
	}
	logIPC, logTB, pairs := 0.0, 0.0, 0
	for i := range jobs {
		j, r := &jobs[i], &p.res[i]
		if r.err != nil || j.mode == modeRestore {
			continue
		}
		s := r.stats
		for k := range s.SMs {
			c := &s.SMs[k]
			smCycles += float64(c.Cycles)
			slots += float64(c.Cycles) * float64(j.sim.Config.NumSchedulers)
			warpInstrs += float64(c.WarpInstrs)
			stall += float64(c.StallCycles)
			idle += float64(c.IdleCycles)
			scoreboard += float64(c.BlockScoreboard)
			unit += float64(c.BlockUnit)
			mempipe += float64(c.BlockMemPipe)
			lockwait += float64(c.BlockLockWait)
			dyngate += float64(c.BlockDynGate)
			xfers += float64(c.OwnershipXfers)
			if j.sim.Config.Sharing != gpushare.ShareNone {
				sharedLaunched += float64(c.BlocksLaunched)
				sharedBlocks += float64(c.BlocksShared)
			}
		}
		cycles += float64(s.Cycles)
		l1Acc += float64(s.L1.Accesses)
		l1Miss += float64(s.L1.Misses)
		l2Acc += float64(s.L2.Accesses)
		l2Miss += float64(s.L2.Misses)
		dramReqs += float64(s.DRAM.Reads + s.DRAM.Writes)
		rowHits += float64(s.DRAM.RowHits)
		rowMisses += float64(s.DRAM.RowMisses)
		for k := range s.MemParts {
			busy += float64(s.MemParts[k].BusyCycles)
			partCycles += float64(s.Cycles)
		}
		if base := baseOf[j.kernel]; base != nil && !j.base {
			logIPC += math.Log(s.IPC() / base.IPC())
			logTB += math.Log(float64(s.ResidentTB) / float64(base.ResidentTB))
			pairs++
		}
	}
	out.set("smcore.issue_util_pct", pct(warpInstrs, slots))
	out.set("smcore.stall_cycle_pct", pct(stall, smCycles))
	out.set("smcore.idle_cycle_pct", pct(idle, smCycles))
	blocked := scoreboard + unit + mempipe + lockwait + dyngate
	out.set("smcore.block_scoreboard_pct", pct(scoreboard, blocked))
	out.set("smcore.block_unit_pct", pct(unit, blocked))
	out.set("smcore.block_mempipe_pct", pct(mempipe, blocked))
	out.set("smcore.block_lockwait_pct", pct(lockwait, blocked))
	out.set("smcore.block_dyngate_pct", pct(dyngate, blocked))
	out.set("core.blocks_shared_pct", pct(sharedBlocks, sharedLaunched))
	out.set("core.ownership_xfers", xfers)
	if pairs > 0 {
		out.set("ipc_gain_pct", 100*(math.Exp(logIPC/float64(pairs))-1))
		out.set("core.resident_tb_gain", math.Exp(logTB/float64(pairs)))
	}
	out.set("mem.l1_miss_pct", pct(l1Miss, l1Acc))
	out.set("mem.l2_miss_pct", pct(l2Miss, l2Acc))
	out.set("mem.dram_row_hit_pct", pct(rowHits, rowHits+rowMisses))
	out.set("mem.dram_reqs_per_kcycle", dramReqs/(cycles/1e3))
	out.set("mem.partition_busy_pct", pct(busy, partCycles))
}

// modeLayers reports the sim_modes differentials: each mode's host time
// against the plain run of the same kernel, summed over the run's
// passes. On the other workloads no job has a mode and all stay 0.
func modeLayers(out *outcome, jobs []job, passes []passResult) {
	plainRun := make(map[string]time.Duration) // per kernel, summed over passes
	plainCycles := make(map[string]int64)
	var policy [4]time.Duration // by TenancyPolicy
	var tenRun time.Duration
	var tenCycles int64
	var ckRun, ckPlain, putT, latestT, auditRun, auditPlain, multiRun, multiPlain time.Duration
	var snapshots, ckJobs, restores int
	var snapBytes int64
	var restoreOver time.Duration
	for pi := range passes {
		for i := range jobs {
			if r := &passes[pi].res[i]; r.err == nil && jobs[i].mode == modePlain && jobs[i].sim.Tenancy == nil {
				plainRun[jobs[i].kernel] += r.run
				plainCycles[jobs[i].kernel] = r.stats.Cycles
			}
		}
	}
	perPass := func(k string) time.Duration { return plainRun[k] / time.Duration(len(passes)) }
	for pi := range passes {
		for i := range jobs {
			j, r := &jobs[i], &passes[pi].res[i]
			if r.err != nil {
				continue
			}
			if spec := j.sim.Tenancy; spec != nil {
				if pi == len(passes)-1 {
					policy[spec.Policy] += r.run
				}
				tenRun += r.run
				tenCycles += r.stats.Cycles
			}
			switch j.mode {
			case modeCheckpoint:
				ckRun += r.run
				ckPlain += perPass(j.kernel)
				putT += r.putT
				latestT += r.latestT
				snapshots += r.snapshots
				snapBytes += r.snapBytes
				ckJobs++
			case modeRestore:
				remaining := float64(r.executed()) / float64(r.stats.Cycles)
				restoreOver += r.run - time.Duration(float64(perPass(j.kernel))*remaining)
				restores++
			case modeAudit:
				auditRun += r.run
				auditPlain += perPass(j.kernel)
			case modeMulticore:
				multiRun += r.run
				multiPlain += perPass(j.kernel)
			}
		}
	}
	out.set("tenancy.spatial_s", policy[gpushare.TenancySpatial].Seconds())
	out.set("tenancy.cosched_s", policy[gpushare.TenancyCoSched].Seconds())
	out.set("tenancy.timeslice_s", policy[gpushare.TenancyTimeSlice].Seconds())
	if tenCycles > 0 {
		out.set("tenancy.host_ns_per_cycle", float64(tenRun.Nanoseconds())/float64(tenCycles))
	}
	if snapshots > 0 {
		put := ms(putT) / float64(snapshots)
		out.set("checkpoint.snapshots", float64(snapshots)/float64(len(passes)))
		out.set("checkpoint.snapshot_mb", float64(snapBytes)/float64(snapshots)/1e6)
		out.set("checkpoint.put_ms", put)
		out.set("checkpoint.capture_ms", ms(ckRun-ckPlain)/float64(snapshots)-put)
		out.set("checkpoint.latest_ms", ms(latestT)/float64(ckJobs))
	}
	if restores > 0 {
		out.set("checkpoint.restore_overhead_ms", ms(restoreOver)/float64(restores))
	}
	if auditPlain > 0 {
		out.set("invariant.audit_overhead_pct", 100*(auditRun.Seconds()/auditPlain.Seconds()-1))
	}
	if multiRun > 0 {
		out.set("gpu.multicore_leg_s", multiRun.Seconds()/float64(len(passes)))
		out.set("gpu.multicore_speedup", multiPlain.Seconds()/multiRun.Seconds())
	}
}
