package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"gpushare"
	"gpushare/internal/wal"
)

const (
	getCalls     = 200 // GET /v1/jobs/{key}
	statuszCalls = 20
	runnerPairs  = 12 // direct run against runner.Do, same descriptor
	memHitReps   = 50
	farmJobs     = 8
	walRecords   = 200
)

// perLayer measures the serve_jobs per-layer metrics of a traced run.
// Latency shares come from the two rounds of the run; the rest are
// separate legs, each timed at the layer's public surface.
func (b *serveBench) perLayer(untraced, traced *roundResult) error {
	out := b.out
	pool := func(pick func(*roundResult) *phaseResult) []float64 {
		return append(pick(untraced).latencies(), pick(traced).latencies()...)
	}
	miss := pool(func(r *roundResult) *phaseResult { return &r.miss })
	hit := pool(func(r *roundResult) *phaseResult { return &r.hit })
	fleetMiss := pool(func(r *roundResult) *phaseResult { return &r.fleetMiss })
	fleetHit := pool(func(r *roundResult) *phaseResult { return &r.fleetHit })
	out.set("miss_latency_p95_ms", percentile(miss, 95))
	out.set("hit_latency_p50_ms", median(hit))
	out.set("server.hit_p95_ms", percentile(hit, 95))
	out.set("fleet_latency_p50_ms", median(fleetMiss))
	out.set("fleet.miss_p95_ms", percentile(fleetMiss, 95))
	out.set("fleet.hit_p50_ms", median(fleetHit))
	out.set("fleet.dispatch_overhead_ms", median(fleetMiss)-median(miss))
	out.set("fleet.jobs_per_s", float64(len(traced.fleetMiss.reqs))/traced.fleetMiss.wall.Seconds())
	out.set("runner.key_us", us(traced.keyT)/float64(traced.keys))
	out.notes = append(out.notes, fmt.Sprintf("latency samples: miss %d, hit %d, fleet miss %d, fleet hit %d",
		len(miss), len(hit), len(fleetMiss), len(fleetHit)))

	// Reads of finished jobs and of the daemon's own state.
	legs := b.tr.start("bench.legs", noParent, "", 0)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var gets, statuszs []float64
	for i := 0; i < getCalls && i < 20*len(traced.miss.reqs); i++ {
		q := &traced.miss.reqs[i%len(traced.miss.reqs)]
		sp := b.tr.start("client.get", legs, q.key, 0)
		st, err := b.direct.Get(ctx, q.key)
		gets = append(gets, ms(sp.end()))
		out.ops++
		if err != nil || st.State != "done" {
			out.fail("get %s: %v", q.kernel, err)
		}
	}
	for i := 0; i < statuszCalls; i++ {
		sp := b.tr.start("client.statusz", legs, "", 0)
		st, err := b.direct.Status(ctx)
		statuszs = append(statuszs, ms(sp.end()))
		out.ops++
		if err != nil {
			out.fail("statusz: %v", err)
			continue
		}
		out.set("server.rejected", float64(st.RejectedQueue+st.RejectedDrain+st.RejectedBytes))
	}
	b.calls.Add(int64(len(gets) + len(statuszs)))
	out.set("server.get_p50_ms", median(gets))
	out.set("server.statusz_ms", median(statuszs))

	// Keys gserved has cached and gsched has never seen: the dispatch
	// path with no simulation.
	workerHit := b.phase("worker_hit", b.fleet, traced.miss.reqs, legs)
	b.verify("worker_hit", &workerHit, "")
	out.set("fleet.worker_hit_p50_ms", median(workerHit.latencies()))

	sched, err := b.schedStatus()
	if err != nil {
		return err
	}
	out.set("fleet.requeues", float64(sched.Requeues))
	out.set("server.rss_mb", peakRSSMB(b.gserved.pid()))
	out.set("fleet.rss_mb", peakRSSMB(b.gsched.pid()))

	// SIGTERM, drained, started on the same files and port, ready
	// again; then the same keys come from the disk tier.
	rsp := b.tr.start("bench.restart", legs, "", 0)
	if err := b.gserved.stop(); err != nil {
		return err
	}
	if err := b.gserved.start(b.o); err != nil {
		return err
	}
	if err := b.gserved.waitReady(20 * time.Second); err != nil {
		return err
	}
	out.set("server.restart_s", rsp.end().Seconds())
	diskHit := b.phase("disk_hit", b.direct, traced.miss.reqs, legs)
	b.verify("disk_hit", &diskHit, "disk-cache")
	out.set("server.disk_hit_p50_ms", median(diskHit.latencies()))
	out.set("client.retries", float64(b.transport.n.Load()-b.calls.Load()))

	runnerMiss, err := b.runnerLayers(legs)
	if err != nil {
		return err
	}
	// Kernel by kernel, so that the difference is not one between two
	// mixes: what a fresh job costs over HTTP beyond what it costs
	// through the runner in this process.
	httpMiss := make(map[string][]float64)
	for _, r := range []*roundResult{untraced, traced} {
		for i := range r.miss.replies {
			if rp := &r.miss.replies[i]; rp.err == nil {
				httpMiss[r.miss.reqs[i].kernel] = append(httpMiss[r.miss.reqs[i].kernel], ms(rp.lat))
			}
		}
	}
	var over []float64
	for _, k := range serveKernels {
		over = append(over, median(httpMiss[k])-median(runnerMiss[k]))
	}
	out.set("server.miss_overhead_ms", mean(over))
	if err := b.walLayers(legs); err != nil {
		return err
	}
	legs.end()

	self := b.tr.selfTimes()
	directLayers(out, self, runnerPairs) // the direct side of the runner pairs
	out.set("host.peak_rss_mb", peakRSSMB(os.Getpid()))
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	out.set("host.gc_pause_ms", ms(time.Duration(mem.PauseTotalNs)))
	out.set("host.num_gc", float64(mem.NumGC))
	out.set("bench.spans", float64(len(b.tr.spans)))
	out.set("bench.trace_overhead_pct", 100*(traced.wall.Seconds()/untraced.wall.Seconds()-1))
	out.set("bench.harness_self_pct", harnessSharePct(self))
	return nil
}

// runnerLayers times internal/runner in this process on fresh keys of
// the serve kernels and returns the runner's miss times by kernel. Up
// to the farm leg it runs at GOMAXPROCS=1, which selects the sequential
// engine gserved uses.
func (b *serveBench) runnerLayers(parent ref) (map[string][]float64, error) {
	out := b.out
	procs := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(procs)
	sb := &simBench{tr: b.tr, nproc: b.clients, tmp: b.o.tmp}
	opts := gpushare.RunnerOptions{Workers: b.clients, CacheDir: filepath.Join(b.o.tmp, "rcache"), Verify: true}
	r := gpushare.NewRunner(opts)
	do := func(r *gpushare.SimRunner, q *request, tier fmt.Stringer) time.Duration {
		sp := b.tr.start("runner.do", parent, q.key, 0)
		res := r.Do(q.desc)
		d := sp.end()
		out.ops++
		if res.Err != nil {
			out.fail("runner %s: %v", q.kernel, res.Err)
			return d
		}
		if res.Tier.String() != tier.String() {
			out.mismatch("runner %s: tier %s, want %s", q.kernel, res.Tier, tier)
		}
		if sha, err := statsSHA(res.Stats); err != nil || sha != b.refs[q.kernel] {
			out.mismatch("runner %s: Stats differ from the direct run", q.kernel)
		}
		return d
	}
	direct := func(q *request) time.Duration {
		j := job{name: q.kernel, kernel: q.kernel, sim: q.desc}
		res := sb.runJob(&j, parent)
		out.ops++
		if res.err != nil {
			out.fail("direct %s: %v", q.kernel, res.err)
		} else if res.sha != b.refs[q.kernel] {
			out.mismatch("direct %s: Stats differ from golden", q.kernel)
		}
		return res.wall
	}

	pairs, _, err := b.fresh(runnerPairs)
	if err != nil {
		return nil, err
	}
	var overhead []float64
	missT := make(map[string][]float64)
	for i := range pairs {
		// Alternate which side runs first, so that neither always
		// inherits the other's warm caches.
		var td, tr time.Duration
		if i%2 == 0 {
			td = direct(&pairs[i])
			tr = do(r, &pairs[i], gpushare.ResultSimulated)
		} else {
			tr = do(r, &pairs[i], gpushare.ResultSimulated)
			td = direct(&pairs[i])
		}
		overhead = append(overhead, ms(tr-td))
		missT[pairs[i].kernel] = append(missT[pairs[i].kernel], ms(tr))
	}
	out.set("runner.miss_overhead_ms", median(overhead))

	var memHit time.Duration
	for rep := 0; rep < memHitReps; rep++ {
		for i := range pairs {
			memHit += do(r, &pairs[i], gpushare.ResultFromMemory)
		}
	}
	out.set("runner.mem_hit_us", us(memHit)/float64(memHitReps*len(pairs)))

	var diskHit []float64
	cold := gpushare.NewRunner(opts)
	for i := range pairs {
		diskHit = append(diskHit, ms(do(cold, &pairs[i], gpushare.ResultFromDisk)))
	}
	out.set("runner.disk_hit_ms", median(diskHit))

	// The farm: the same mix of fresh jobs on one worker and on nproc,
	// at GOMAXPROCS=nproc.
	runtime.GOMAXPROCS(procs)
	farm := func(workers int) (time.Duration, error) {
		reqs, _, err := b.fresh(farmJobs)
		if err != nil {
			return 0, err
		}
		jobs := make([]gpushare.SimJob, len(reqs))
		for i := range reqs {
			jobs[i] = reqs[i].desc
		}
		sp := b.tr.start("runner.run_all", parent, "", 0)
		results := gpushare.NewRunner(gpushare.RunnerOptions{Workers: workers, Verify: true}).RunAll(jobs)
		d := sp.end()
		for i := range results {
			out.ops++
			if results[i].Err != nil {
				out.fail("farm %s: %v", reqs[i].kernel, results[i].Err)
			}
		}
		return d, nil
	}
	one, err := farm(1)
	if err != nil {
		return nil, err
	}
	many, err := farm(b.clients)
	if err != nil {
		return nil, err
	}
	out.set("runner.farm_speedup", one.Seconds()/many.Seconds())
	return missT, nil
}

// walLayers times internal/wal on a file of its own, fsync included.
func (b *serveBench) walLayers(parent ref) error {
	log, _, err := wal.Open(filepath.Join(b.o.tmp, "bench.wal"))
	if err != nil {
		return err
	}
	defer log.Close()
	reqs, _, err := b.fresh(walRecords)
	if err != nil {
		return err
	}
	var accept, done time.Duration
	for i := range reqs {
		sp := b.tr.start("wal.accept", parent, reqs[i].key, 0)
		err := log.Accept(reqs[i].key, reqs[i].req)
		accept += sp.end()
		if err != nil {
			return err
		}
	}
	for i := range reqs {
		sp := b.tr.start("wal.done", parent, reqs[i].key, 0)
		err := log.Done(reqs[i].key)
		done += sp.end()
		if err != nil {
			return err
		}
	}
	b.out.ops += 2 * len(reqs)
	b.out.set("wal.accept_us", us(accept)/float64(len(reqs)))
	b.out.set("wal.done_us", us(done)/float64(len(reqs)))
	return nil
}
