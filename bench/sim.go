package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"gpushare"
	"gpushare/internal/checkpoint"
)

// jobResult is what one run of one job produced and what it cost.
type jobResult struct {
	key   string
	stats *gpushare.Stats
	sha   string // SHA-256 of the canonical Stats JSON
	err   error

	wall, keyT, build, newSim, run, check time.Duration

	startCycle int64 // cycle a restore job resumed from
	snapshots  int
	snapBytes  int64
	putT       time.Duration // inside Sink.Put
	latestT    time.Duration // DirSink.Latest after a checkpoint job
}

// executed is the number of simulated cycles this run actually stepped.
func (r *jobResult) executed() int64 { return r.stats.Cycles - r.startCycle }

// statsSHA hashes the canonical encoding of a run's statistics.
func statsSHA(s *gpushare.Stats) (string, error) {
	blob, err := json.Marshal(s)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:]), nil
}

// timedSink times Sink.Put from outside the program: the span sits in
// the benchmark, the layer is measured at its public surface.
type timedSink struct {
	inner  checkpoint.Sink
	tr     *tracer
	parent ref
	job    string
	n      int
	bytes  int64
	total  time.Duration
}

func (s *timedSink) Put(cycle int64, blob []byte) error {
	sp := s.tr.start("checkpoint.put", s.parent, s.job, 0)
	err := s.inner.Put(cycle, blob)
	s.total += sp.end()
	s.n++
	s.bytes += int64(len(blob))
	return err
}

// simBench runs sim_* job lists in this process.
type simBench struct {
	tr    *tracer
	nproc int
	tmp   string                         // checkpoint trails live here
	sinks map[string]*checkpoint.DirSink // by kernel, checkpoint job -> restore job

	// between, if set, runs after every job of a pass. What it costs is
	// taken out of the pass's wall time and counters.
	between func()
}

// runJob runs one job straight through the public simulator surface:
// key, build, new, run, check. Spans nest under one "job" span.
func (b *simBench) runJob(j *job, parent ref) (res jobResult) {
	jsp := b.tr.start("job", parent, "", 0)
	defer func() { res.wall = jsp.end() }()

	ksp := b.tr.start("runner.key", jsp, "", 0)
	key, err := j.sim.Key()
	res.keyT = ksp.end()
	if err != nil {
		res.err = err
		return res
	}
	res.key = key
	b.tr.setJob(jsp, key)
	b.tr.setJob(ksp, key)

	nsp := b.tr.start("gpu.new", jsp, key, 0)
	sim, err := gpushare.NewSimulator(j.sim.Config)
	res.newSim = nsp.end()
	if err != nil {
		res.err = err
		return res
	}

	bsp := b.tr.start("workloads.build", jsp, key, 0)
	insts, err := buildInstances(&j.sim, sim)
	res.build = bsp.end()
	if err != nil {
		res.err = err
		return res
	}

	switch j.mode {
	case modeRestore:
		sink := b.sinks[j.kernel]
		if sink == nil {
			res.err = fmt.Errorf("%s: no checkpoint trail to restore from", j.name)
			return res
		}
		cycles := sink.List()
		if len(cycles) == 0 {
			res.err = fmt.Errorf("%s: checkpoint trail is empty", j.name)
			return res
		}
		res.startCycle = cycles[len(cycles)/2]
		if sim.RestoreFrom, err = sink.Get(res.startCycle); err != nil {
			res.err = err
			return res
		}
	case modeMulticore:
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(b.nproc))
	}

	rsp := b.tr.start("gpu.run", jsp, key, 0)
	var ts *timedSink
	if j.mode == modeCheckpoint {
		dir := filepath.Join(b.tmp, "ck-"+j.kernel)
		if err := os.RemoveAll(dir); err != nil {
			res.err = err
			return res
		}
		sink, err := checkpoint.NewDirSink(dir, 0)
		if err != nil {
			res.err = err
			return res
		}
		b.sinks[j.kernel] = sink
		ts = &timedSink{inner: sink, tr: b.tr, parent: rsp, job: key}
		sim.CheckpointSink = ts
	}
	if j.sim.Tenancy != nil {
		launches := make([]*gpushare.Launch, len(insts))
		for i, inst := range insts {
			launches[i] = inst.Launch
		}
		res.stats, err = sim.RunMulti(j.sim.Tenancy, launches)
	} else {
		res.stats, err = sim.Run(insts[0].Launch)
	}
	res.run = rsp.end()
	if err != nil {
		res.err = err
		return res
	}
	if ts != nil {
		res.snapshots, res.snapBytes, res.putT = ts.n, ts.bytes, ts.total
		lsp := b.tr.start("checkpoint.latest", jsp, key, 0)
		_, _, ok := b.sinks[j.kernel].Latest()
		res.latestT = lsp.end()
		if !ok {
			res.err = fmt.Errorf("%s: Latest found no usable checkpoint", j.name)
			return res
		}
	}

	csp := b.tr.start("workloads.check", jsp, key, 0)
	for _, inst := range insts {
		if inst.Check != nil {
			err = errors.Join(err, inst.Check(sim.Mem))
		}
	}
	res.check = csp.end()
	if err != nil {
		res.err = fmt.Errorf("%s: functional check: %w", j.name, err)
		return res
	}
	res.sha, res.err = statsSHA(res.stats)
	return res
}

// buildInstances builds the job's workload (or each tenant's) and sets
// its inputs up in the simulator's global memory, in tenant order.
func buildInstances(d *gpushare.SimJob, sim *gpushare.Simulator) ([]*gpushare.WorkloadInstance, error) {
	names := []string{d.Workload}
	if d.Tenancy != nil {
		names = names[:0]
		for _, t := range d.Tenancy.Tenants {
			names = append(names, t.Workload)
		}
	}
	insts := make([]*gpushare.WorkloadInstance, len(names))
	for i, name := range names {
		w, err := gpushare.WorkloadByName(name)
		if err != nil {
			return nil, err
		}
		insts[i] = w.Build(d.Scale)
		insts[i].Setup(sim.Mem)
	}
	return insts, nil
}

// passResult is one traversal of the job list.
type passResult struct {
	wall    time.Duration
	res     []jobResult // same order as the job list
	allocMB float64     // MemStats.TotalAlloc delta
	mallocs uint64
	gcPause time.Duration
	numGC   uint32
}

// runPass runs every job once, one at a time.
func (b *simBench) runPass(jobs []job) passResult {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	psp := b.tr.start("pass", noParent, "", 0)
	p := passResult{res: make([]jobResult, len(jobs))}
	var skipWall time.Duration
	for i := range jobs {
		p.res[i] = b.runJob(&jobs[i], psp)
		if b.between != nil {
			// Moving before forward by what the hook did takes it out of
			// the differences below.
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			t0 := time.Now()
			b.between()
			skipWall += time.Since(t0)
			runtime.ReadMemStats(&m1)
			before.TotalAlloc += m1.TotalAlloc - m0.TotalAlloc
			before.Mallocs += m1.Mallocs - m0.Mallocs
			before.PauseTotalNs += m1.PauseTotalNs - m0.PauseTotalNs
			before.NumGC += m1.NumGC - m0.NumGC
		}
	}
	p.wall = psp.end() - skipWall
	runtime.ReadMemStats(&after)
	p.allocMB = float64(after.TotalAlloc-before.TotalAlloc) / 1e6
	p.mallocs = after.Mallocs - before.Mallocs
	p.gcPause = time.Duration(after.PauseTotalNs - before.PauseTotalNs)
	p.numGC = after.NumGC - before.NumGC
	return p
}

// rateTotals sums one pass's simulated work and the host time inside
// Run. A restore job's Stats cover cycles it did not step, so it is
// left out.
func rateTotals(jobs []job, p *passResult) (cycles, warpInstrs int64, host time.Duration) {
	for i := range jobs {
		r := &p.res[i]
		if r.err != nil || jobs[i].mode == modeRestore {
			continue
		}
		cycles += r.stats.Cycles
		warpInstrs += r.stats.TotalWarpInstrs()
		host += r.run
	}
	return cycles, warpInstrs, host
}
