package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"gpushare"
	"gpushare/internal/client"
	"gpushare/internal/server"
)

// Phase sizes of one serve_jobs round.
type serveSizes struct{ miss, hit, fleetMiss, fleetHit int }

var (
	fullSizes  = serveSizes{miss: 120, hit: 4000, fleetMiss: 60, fleetHit: 2000}
	smokeSizes = serveSizes{miss: 6, hit: 20, fleetMiss: 4, fleetHit: 10}
)

// serveSetupReps is how many times in a row a run sets both daemons up:
// at process start, between the timed rounds and after the last one. All
// but the last pair are drained at once; the last one serves the next
// round. setup_s is the median, so it is sampled over the whole run like
// wall_s and a few seconds of host noise spoil a few samples, not the
// metric.
const serveSetupReps = 3

// request is one generated submission. key is computed on the client
// side, so that every span of the request carries it and the key the
// daemon answers with can be checked.
type request struct {
	kernel string
	key    string
	desc   gpushare.SimJob
	req    server.SubmitRequest
}

// reply is what came back and how long it took.
type reply struct {
	lat time.Duration
	st  *server.JobStatus
	err error
}

type phaseResult struct {
	wall    time.Duration
	reqs    []request
	replies []reply
}

func (p *phaseResult) latencies() []float64 {
	out := make([]float64, 0, len(p.replies))
	for i := range p.replies {
		if p.replies[i].err == nil {
			out = append(out, ms(p.replies[i].lat))
		}
	}
	return out
}

// countingTransport counts HTTP exchanges, so that the client's silent
// retries show as exchanges beyond the calls made.
type countingTransport struct {
	base http.RoundTripper
	n    atomic.Int64
}

func (t *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	t.n.Add(1)
	return t.base.RoundTrip(r)
}

// serveBench drives the real daemons from one load-generating process:
// a closed loop of nproc clients, each sending its next request only
// after the previous reply.
type serveBench struct {
	o       *options
	tr      *tracer
	clients int
	sizes   serveSizes
	refs    map[string]string // kernel -> Stats SHA-256 every result must have
	out     *outcome

	setups, servedReady, schedReady []float64 // seconds, one per set-up

	gserved, gsched *daemon
	direct, fleet   *client.Client
	transport       *countingTransport
	calls           atomic.Int64
	nonce           uint64
}

// startDaemons executes gserved and gsched on fresh ports over the
// run's cache and journal files and waits until both answer /readyz
// with "ready" — for gsched that means a probe has marked the worker
// alive. It returns how long each took.
func (b *serveBench) startDaemons() (served, sched time.Duration, err error) {
	b.gserved, err = newDaemon(b.o, "gserved", "-cachedir", filepath.Join(b.o.tmp, "cache"),
		"-journal", filepath.Join(b.o.tmp, "gserved.journal"))
	if err != nil {
		return 0, 0, err
	}
	t0 := time.Now()
	if err = b.gserved.start(b.o); err != nil {
		return 0, 0, err
	}
	if err = b.gserved.waitReady(20 * time.Second); err != nil {
		return 0, 0, err
	}
	served = time.Since(t0)
	b.gsched, err = newDaemon(b.o, "gsched", "-worker", b.gserved.url,
		"-slots", fmt.Sprint(b.clients), "-journal", filepath.Join(b.o.tmp, "gsched.journal"))
	if err != nil {
		return 0, 0, err
	}
	t1 := time.Now()
	if err = b.gsched.start(b.o); err != nil {
		return 0, 0, err
	}
	if err = b.gsched.waitReady(20 * time.Second); err != nil {
		return 0, 0, err
	}
	b.calls.Store(0)
	b.transport = &countingTransport{base: &http.Transport{MaxIdleConnsPerHost: b.clients}}
	b.direct, b.fleet = client.New(b.gserved.url), client.New(b.gsched.url)
	b.direct.HTTPClient = &http.Client{Transport: b.transport, Timeout: 2 * time.Minute}
	b.fleet.HTTPClient = b.direct.HTTPClient
	return served, time.Since(t1), nil
}

// stopDaemons drains both; on a failure path it kills them.
func (b *serveBench) stopDaemons(failed bool) error {
	var firstErr error
	for _, d := range []*daemon{b.gsched, b.gserved} {
		if d == nil {
			continue
		}
		if failed {
			d.kill()
		} else if err := d.stop(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if b.transport != nil {
		b.transport.base.(*http.Transport).CloseIdleConnections()
	}
	return firstErr
}

// fresh generates n submissions no daemon or runner has seen: the
// kernels rotate, so two lists of one length have the same mix, and
// each config carries a seed derived from -seed and a counter, which
// makes the key new without changing the simulation.
func (b *serveBench) fresh(n int) ([]request, time.Duration, error) {
	reqs := make([]request, n)
	var keyT time.Duration
	for i := range reqs {
		b.nonce++
		kernel := serveKernels[i%len(serveKernels)]
		cfg := baseConfig(b.o.seed*1_000_003 + b.nonce)
		desc := gpushare.SimJob{Workload: kernel, Config: cfg, Scale: 1}
		t0 := time.Now()
		key, err := desc.Key()
		keyT += time.Since(t0)
		if err != nil {
			return nil, 0, err
		}
		reqs[i] = request{kernel: kernel, key: key, desc: desc,
			req: server.SubmitRequest{Workload: kernel, Scale: 1, Config: &cfg}}
	}
	return reqs, keyT, nil
}

// repeat cycles through already-submitted requests n times over.
func repeat(seen []request, n int) []request {
	out := make([]request, n)
	for i := range out {
		out[i] = seen[i%len(seen)]
	}
	return out
}

// phase sends the requests through one daemon from the closed loop of
// clients and returns every reply with its latency.
func (b *serveBench) phase(name string, cl *client.Client, reqs []request, parent ref) phaseResult {
	p := phaseResult{reqs: reqs, replies: make([]reply, len(reqs))}
	psp := b.tr.start("bench.phase."+name, parent, "", 0)
	var next atomic.Int64
	var wg sync.WaitGroup
	for lane := 1; lane <= b.clients; lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			lsp := b.tr.start("bench.client", psp, "", lane)
			defer lsp.end()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
				sp := b.tr.start("client.submit_wait", lsp, reqs[i].key, lane)
				st, err := cl.SubmitWait(ctx, reqs[i].req)
				p.replies[i] = reply{lat: sp.end(), st: st, err: err}
				cancel()
			}
		}(lane)
	}
	wg.Wait()
	p.wall = psp.end()
	b.calls.Add(int64(len(reqs)))
	return p
}

// verify fills the correctness ledger for one phase: the call
// succeeded, the job is done, the daemon computed the same key, the
// result came from the expected tier, and its Stats are the ones an
// in-process run of the descriptor produces.
func (b *serveBench) verify(name string, p *phaseResult, tier string) {
	for i := range p.replies {
		r, q := &p.replies[i], &p.reqs[i]
		b.out.ops++
		switch {
		case r.err != nil:
			b.out.fail("%s %s: %v", name, q.kernel, r.err)
			continue
		case r.st.State != server.StateDone || r.st.Stats == nil:
			b.out.fail("%s %s: state %q: %s", name, q.kernel, r.st.State, r.st.Error)
			continue
		}
		if r.st.Key != q.key {
			b.out.mismatch("%s %s: daemon key %.12s, client key %.12s", name, q.kernel, r.st.Key, q.key)
		}
		if tier != "" && r.st.Tier != tier {
			b.out.mismatch("%s %s: tier %q, want %q", name, q.kernel, r.st.Tier, tier)
		}
		sha, err := statsSHA(r.st.Stats)
		if err != nil || sha != b.refs[q.kernel] {
			b.out.mismatch("%s %s: Stats over HTTP differ from the in-process run", name, q.kernel)
		}
	}
}

// roundResult is one traversal of the four phases.
type roundResult struct {
	wall                           time.Duration // the four phases, verification excluded
	miss, hit, fleetMiss, fleetHit phaseResult
	allocMB                        float64
	keyT                           time.Duration
	keys                           int
}

// round runs miss, hit, fleet_miss and fleet_hit with fresh keys.
func (b *serveBench) round(parent ref) (*roundResult, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r := &roundResult{}
	rsp := b.tr.start("pass", parent, "", 0)
	defer rsp.end()

	missReqs, keyT, err := b.fresh(b.sizes.miss)
	if err != nil {
		return nil, err
	}
	fleetReqs, keyT2, err := b.fresh(b.sizes.fleetMiss)
	if err != nil {
		return nil, err
	}
	r.keyT, r.keys = keyT+keyT2, len(missReqs)+len(fleetReqs)

	r.miss = b.phase("miss", b.direct, missReqs, rsp)
	b.verify("miss", &r.miss, "simulated")
	r.hit = b.phase("hit", b.direct, repeat(missReqs, b.sizes.hit), rsp)
	b.verify("hit", &r.hit, "") // a deduplicated job keeps the tier it was first answered from
	r.fleetMiss = b.phase("fleet_miss", b.fleet, fleetReqs, rsp)
	b.verify("fleet_miss", &r.fleetMiss, "")
	r.fleetHit = b.phase("fleet_hit", b.fleet, repeat(fleetReqs, b.sizes.fleetHit), rsp)
	b.verify("fleet_hit", &r.fleetHit, "")
	r.wall = r.miss.wall + r.hit.wall + r.fleetMiss.wall + r.fleetHit.wall

	runtime.ReadMemStats(&after)
	r.allocMB = float64(after.TotalAlloc-before.TotalAlloc) / 1e6
	return r, nil
}

// inProcessRefs runs each serve kernel once in this process and returns
// the Stats hash every HTTP result of that kernel must reproduce.
func inProcessRefs(o *options, tr *tracer) (map[string]*jobResult, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	sb := &simBench{tr: tr, nproc: runtime.NumCPU(), tmp: o.tmp}
	refs := make(map[string]*jobResult)
	for _, k := range serveKernels {
		j := job{name: k, kernel: k, sim: gpushare.SimJob{Workload: k, Config: baseConfig(o.seed), Scale: 1}}
		r := sb.runJob(&j, noParent)
		if r.err != nil {
			return nil, fmt.Errorf("%s: %w", k, r.err)
		}
		refs[k] = &r
	}
	return refs, nil
}

// runServe runs the serve_jobs workload.
func runServe(o *options) (*outcome, error) {
	b := &serveBench{o: o, tr: newTracer(), clients: runtime.NumCPU(), sizes: fullSizes,
		refs: make(map[string]string), out: newOutcome()}
	if o.smoke {
		b.sizes = smokeSizes
	}
	if o.smoke || o.recordGolden {
		refs, err := inProcessRefs(o, b.tr)
		if err != nil {
			return nil, err
		}
		g := &golden{Seed: o.seed, Jobs: make(map[string]goldenEntry)}
		for k, r := range refs {
			b.refs[k] = r.sha
			g.Jobs[k] = goldenEntry{SHA256: r.sha, Cycles: r.stats.Cycles, IPC: r.stats.IPC()}
		}
		if o.recordGolden {
			b.out.ops = len(refs)
			return b.out, g.write(o.workload)
		}
	}

	if err := b.setUps(); err != nil {
		_ = b.stopDaemons(true)
		return nil, err
	}
	err := b.measure()
	if stopErr := b.stopDaemons(err != nil); err == nil {
		err = stopErr
	}
	if err != nil {
		return nil, err
	}
	b.out.set("setup_s", median(b.setups))
	b.out.set("server.ready_s", median(b.servedReady))
	b.out.set("fleet.ready_s", median(b.schedReady))
	b.out.notes = append(b.out.notes, fmt.Sprintf("setup_s over %d set-ups %.4f s", len(b.setups), b.setups))
	return b.out, nil
}

// setUps sets up serveSetupReps times: golden, both daemons up and
// ready, one job per kernel through each so that lazy set-up is over. A
// pair that is up is drained first; the last pair stays up. The run's
// first set-up is timed from process start.
func (b *serveBench) setUps() error {
	for i := 0; i < serveSetupReps; i++ {
		if err := b.stopDaemons(false); err != nil {
			return err
		}
		t0 := time.Now()
		if len(b.setups) == 0 {
			t0 = processStart
		}
		served, sched, err := b.setup()
		if err != nil {
			return err
		}
		b.setups = append(b.setups, time.Since(t0).Seconds())
		b.servedReady = append(b.servedReady, served.Seconds())
		b.schedReady = append(b.schedReady, sched.Seconds())
	}
	return nil
}

// setup is everything before the first timed request.
func (b *serveBench) setup() (served, sched time.Duration, err error) {
	if !b.o.smoke {
		g, err := loadGolden(b.o.workload)
		if err != nil {
			return 0, 0, err
		}
		for k, e := range g.Jobs {
			b.refs[k] = e.SHA256
		}
	}
	if served, sched, err = b.startDaemons(); err != nil {
		return 0, 0, err
	}
	warm, _, err := b.fresh(len(serveKernels))
	if err != nil {
		return 0, 0, err
	}
	for _, cl := range []*client.Client{b.direct, b.fleet} {
		p := b.phase("warmup", cl, warm, noParent)
		b.verify("warmup", &p, "")
	}
	return served, sched, nil
}

// measure runs the timed rounds and, on a traced run, the per-layer
// legs. The daemons are up and warm when it is called.
func (b *serveBench) measure() error {
	var rounds []*roundResult
	if b.o.trace {
		b.tr.on = b.o.smoke // a smoke run is one round; its trace overhead reads 0
		r, err := b.round(noParent)
		if err != nil {
			return err
		}
		rounds = append(rounds, r)
		traced := r
		if !b.o.smoke {
			b.tr.on = true
			if traced, err = b.round(noParent); err != nil {
				return err
			}
		}
		if err := b.perLayer(r, traced); err != nil {
			return err
		}
		b.tr.on = false
		path := filepath.Join(b.o.out, "trace-"+b.o.workload+".json")
		if err := b.tr.writeChrome(path); err != nil {
			return err
		}
		b.out.notes = append(b.out.notes, "trace written to "+path+" (under bench/)")
	} else {
		err := wholePasses(b.o.seconds, func() error {
			r, err := b.round(noParent)
			rounds = append(rounds, r)
			if err != nil {
				return err
			}
			return b.setUps()
		})
		if err != nil {
			return err
		}
	}
	b.endToEnd(rounds)
	return nil
}

// endToEnd reports the medians over the timed rounds; latencies pool
// the samples of every round.
func (b *serveBench) endToEnd(rounds []*roundResult) {
	var wall, cps, wps, alloc, jps, lat []float64
	for _, r := range rounds {
		var cycles, instrs int64
		for i := range r.miss.replies {
			if rp := &r.miss.replies[i]; rp.err == nil && rp.st.Stats != nil {
				cycles += rp.st.Stats.Cycles
				instrs += rp.st.Stats.TotalWarpInstrs()
			}
		}
		wall = append(wall, r.wall.Seconds())
		cps = append(cps, float64(cycles)/r.miss.wall.Seconds())
		wps = append(wps, float64(instrs)/r.miss.wall.Seconds())
		alloc = append(alloc, r.allocMB)
		jps = append(jps, float64(len(r.miss.reqs))/r.miss.wall.Seconds())
		lat = append(lat, r.miss.latencies()...)
	}
	b.out.set("wall_s", median(wall))
	b.out.set("sim_cycles_per_s", median(cps))
	b.out.set("warp_instrs_per_s", median(wps))
	b.out.set("alloc_mb_per_pass", median(alloc))
	b.out.set("jobs_per_s", median(jps))
	b.out.set("miss_latency_p50_ms", median(lat))
	last := rounds[len(rounds)-1]
	b.out.notes = append(b.out.notes, fmt.Sprintf(
		"%d timed rounds, closed loop of %d clients; miss_latency_p50_ms over %d samples", len(rounds), b.clients, len(lat)),
		fmt.Sprintf("last round: miss %.2fs, hit %.2fs, fleet_miss %.2fs, fleet_hit %.2fs",
			last.miss.wall.Seconds(), last.hit.wall.Seconds(), last.fleetMiss.wall.Seconds(), last.fleetHit.wall.Seconds()))
}

// schedStatusz is the part of gsched's /statusz the benchmark reads.
type schedStatusz struct {
	Requeues     int64 `json:"requeues"`
	RejectedFull int64 `json:"rejected_full"`
}

func (b *serveBench) schedStatus() (*schedStatusz, error) {
	b.calls.Add(1)
	resp, err := b.fleet.HTTPClient.Get(b.gsched.url + "/statusz")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	st := &schedStatusz{}
	if err := json.NewDecoder(resp.Body).Decode(st); err != nil {
		return nil, fmt.Errorf("gsched /statusz: %w", err)
	}
	return st, nil
}
