// Package fleet implements gsched: a fault-tolerant coordinator that
// shards simulation work across a fleet of gserved workers. It is the
// layer the ROADMAP's "heavy traffic" north star calls for — a single
// admission point with per-tenant weighted fair-share queues and
// priorities, dispatching to however many workers are alive right now —
// and robustness is its headline:
//
//   - Failure detection: workers hold a lease renewed by probes of
//     their /readyz (and by push heartbeats). A worker whose lease
//     expires is marked dead and its in-flight jobs are requeued. A
//     partitioned worker that is alive but unreachable looks identical
//     to a dead one — and that is safe, because dispatch is
//     at-least-once while *results* are at-most-once: jobs are
//     content-addressed, the first terminal result recorded wins, and a
//     duplicate execution produces byte-identical statistics by
//     simulator determinism.
//   - Preemption: a higher-priority arrival may preempt a running
//     lower-priority job. The coordinator cancels it on the worker
//     (which leaves the job's checkpoint trail intact — cancellation
//     means "stop computing here", not "forget the work"), requeues it,
//     and a later dispatch to any worker sharing the checkpoint
//     directory resumes from the trail instead of cycle 0.
//   - Crash tolerance: admissions are fsync'd to the same write-ahead
//     log machinery gserved uses (internal/wal) before they are
//     queueable. kill -9 of the coordinator replays every accepted,
//     unfinished job on restart; kill -9 of a worker is just a lease
//     expiry. Dispatch state is deliberately not journaled — on replay
//     everything pending is re-dispatched, and worker-side dedup by
//     content key makes the second dispatch either join the in-flight
//     run or return the cached result.
//   - Degraded mode: with no live workers the coordinator keeps
//     accepting (the journal makes that promise durable) and reports an
//     honest Retry-After instead of erroring.
//
// The job lifecycle — registry, admission, journal and replay, the
// terminal publish, drain, the job/sweep/health handlers — is
// server.Core, the same one gserved runs; the Coordinator is its remote
// Backend: the fair queue, the scheduler, leases, preemption, requeue
// and the /v1/workers routes.
package fleet

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gpushare/internal/client"
	"gpushare/internal/fault"
	"gpushare/internal/runner"
	"gpushare/internal/server"
)

// Options configures a Coordinator. The zero value is usable: 3s
// leases probed every second, a 1024-deep queue, preemption on.
type Options struct {
	// CoreOptions are the lifecycle settings shared with gserved.
	// QueueDepth here bounds admitted-but-unfinished jobs (0 = 1024).
	server.CoreOptions
	// LeaseTTL is how long a worker stays trusted after its last
	// successful probe or heartbeat (0 = 3s). Expiry marks it dead and
	// requeues its jobs.
	LeaseTTL time.Duration
	// ProbeInterval is the failure-detector sweep period (0 =
	// LeaseTTL/3). Each sweep probes every worker's /readyz.
	ProbeInterval time.Duration
	// NoPreemption disables checkpoint-based preemption: higher-priority
	// jobs then only jump the queue, never displace a running job.
	NoPreemption bool
	// Workers is the static worker set registered at startup, as gserved
	// base URLs. More can register at runtime via POST /v1/workers.
	Workers []string
	// Slots is the per-worker concurrent-dispatch cap for the static
	// Workers set (0 = 1).
	Slots int
	// Faults arms fleet crash points (durability tests only):
	// CrashAfterDispatch hard-stops the coordinator between a worker
	// accepting a job and the ack being recorded; HeartbeatBlackhole
	// makes one worker's probes vanish while it stays alive.
	Faults *fault.Plan
	// NewClient builds the per-worker client (tests tune retries and
	// timeouts). nil = client.New with snappy probe-friendly settings.
	NewClient func(baseURL string) *client.Client
}

// fjob is the scheduling state the coordinator keeps beside one
// registry entry (server.Job.Ext points back at it). Mutations are
// guarded by the core's lock.
type fjob struct {
	*server.Job
	tenant   string
	weight   int
	priority int

	worker string // current / last worker id

	requeues    int
	preemptions int
	// preempting marks an in-flight dispatch the coordinator is
	// deliberately cancelling to make room for higher priority.
	preempting bool
	// notBefore delays re-dispatch after a dispatch-path failure so a
	// flapping worker cannot spin the scheduler.
	notBefore time.Time

	cancelDispatch context.CancelFunc
}

// worker is one registry entry. Mutations are guarded by the core's
// lock.
type worker struct {
	id    string
	url   string
	state string
	slots int
	cl    *client.Client

	leaseExpiry time.Time
	inflight    map[string]*fjob
	// blackholed emulates a partition (HeartbeatBlackhole): the worker
	// answers probes, but the coordinator never sees them.
	blackholed bool
	// pinnedDrain marks an operator drain (POST /v1/workers/{id}/drain):
	// the probe loop must not promote the worker back to alive just
	// because it answers ready. Re-registering clears the pin.
	pinnedDrain bool

	dispatched int64
	completed  int64
	deaths     int64
}

// Coordinator is the gsched daemon: the lifecycle Core over a fair
// queue and a scheduler that runs jobs on remote gserved workers. Build
// with New, mount Handler, stop with Drain (graceful) or Kill (crash
// emulation).
type Coordinator struct {
	*server.Core
	opts Options

	// workers and q are guarded by the core's lock, Mu.
	workers map[string]*worker
	q       *fairQueue

	kick chan struct{}
	wg   sync.WaitGroup

	requeues     atomic.Int64
	preemptions  atomic.Int64
	workerDeaths atomic.Int64
}

// New builds the coordinator, registers the static worker set, starts
// the scheduler and failure-detector loops, and replays the journal.
func New(opts Options) (*Coordinator, error) { return newCoordinator(opts, server.HoldBound) }

// newCoordinator is New with the ?wait= hold bound as an argument, so
// tests can watch a hold expire without waiting server.HoldBound.
func newCoordinator(opts Options, holdBound time.Duration) (*Coordinator, error) {
	if opts.LeaseTTL <= 0 {
		opts.LeaseTTL = 3 * time.Second
	}
	if opts.ProbeInterval <= 0 {
		opts.ProbeInterval = opts.LeaseTTL / 3
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 1024
	}
	if opts.Slots <= 0 {
		opts.Slots = 1
	}
	if opts.NewClient == nil {
		opts.NewClient = func(baseURL string) *client.Client {
			c := client.New(baseURL)
			// The dispatcher runs its own requeue logic; client-level
			// retries would fight it (and could resubmit a job the
			// coordinator just preempted).
			c.MaxRetries = 0
			c.HTTPClient = &http.Client{Timeout: 30 * time.Second}
			return c
		}
	}

	c := &Coordinator{
		opts:    opts,
		workers: make(map[string]*worker),
		q:       newFairQueue(),
		kick:    make(chan struct{}, 1),
	}
	core, err := server.NewCore("gsched", JobDispatched, opts.CoreOptions, c, holdBound)
	if err != nil {
		return nil, err
	}
	c.Core = core
	c.routes()

	for _, url := range opts.Workers {
		c.addWorker(RegisterRequest{URL: url, Slots: opts.Slots})
	}
	c.wg.Add(2)
	go c.schedulerLoop()
	go c.probeLoop()
	c.Replay()
	return c, nil
}

// Build makes *SubmitRequest gsched's server.Request: the gserved
// submission's own validation plus the envelope's.
func (r *SubmitRequest) Build() (runner.Job, string, error) {
	if r.Priority < 0 || r.Priority > maxPriority {
		return runner.Job{}, "", fmt.Errorf("priority %d out of range [0, %d]", r.Priority, maxPriority)
	}
	if r.Weight < 0 {
		return runner.Job{}, "", fmt.Errorf("weight %d must be >= 0", r.Weight)
	}
	return server.BuildJob(&r.SubmitRequest)
}

// NewRequest, Lookup, Load, Enqueue, Wire, Statusz and Wait make the
// Coordinator the Core's remote Backend.
func (c *Coordinator) NewRequest() server.Request { return new(SubmitRequest) }

// Lookup: the coordinator keeps no result cache of its own; a finished
// key it has forgotten is the workers' to serve.
func (c *Coordinator) Lookup(string) (server.JobStatus, bool) { return server.JobStatus{}, false }

// Load: every accepted, unfinished job counts against the bound —
// dispatched ones too, a worker slot is not a queue slot — and with no
// live worker the coordinator is degraded: the honest hint is one lease
// TTL, the time for a worker to register or come back.
func (c *Coordinator) Load() server.Load {
	ld := server.Load{Queued: c.q.len(), Bounded: c.LiveLocked()}
	for _, w := range c.workers {
		if w.state == WorkerAlive {
			ld.Parallel += w.slots
		}
	}
	if ld.Parallel == 0 {
		ld.Degraded = int(c.opts.LeaseTTL/time.Second) + 1
	}
	return ld
}

// Enqueue puts a queued job (fresh, replayed or requeued) on the fair
// queue under its tenant and priority.
func (c *Coordinator) Enqueue(j *server.Job) {
	f, ok := j.Ext.(*fjob)
	if !ok {
		req := j.Req.(*SubmitRequest)
		f = &fjob{Job: j, tenant: req.Tenant, weight: req.Weight, priority: req.Priority}
		if f.tenant == "" {
			f.tenant = "default"
		}
		j.Ext = f
	}
	c.q.push(f)
	c.kickScheduler()
}

// Wire adds the fleet envelope to a status snapshot.
func (c *Coordinator) Wire(j *server.Job, st server.JobStatus) any {
	f := j.Ext.(*fjob)
	if st.State == JobQueued {
		st.RetryAfterSec = c.Load().Degraded
	}
	return JobStatus{JobStatus: st, Tenant: f.tenant, Priority: f.priority,
		Worker: f.worker, Requeues: f.requeues, Preemptions: f.preemptions}
}

// Wait waits for the scheduler and probe loops, which exit when the
// core's context is canceled.
func (c *Coordinator) Wait() { c.wg.Wait() }

// kickScheduler nudges the scheduler loop without blocking.
func (c *Coordinator) kickScheduler() {
	select {
	case c.kick <- struct{}{}:
	default:
	}
}

// defaultWorkerID derives a path-safe worker id from a base URL: the
// host:port, with the scheme and any trailing slash stripped.
func defaultWorkerID(url string) string {
	id := url
	if i := strings.Index(id, "://"); i >= 0 {
		id = id[i+3:]
	}
	return strings.TrimSuffix(id, "/")
}

// addWorker registers (or updates) a worker entry.
func (c *Coordinator) addWorker(req RegisterRequest) *worker {
	id := req.ID
	if id == "" {
		id = defaultWorkerID(req.URL)
	}
	slots := req.Slots
	if slots <= 0 {
		slots = 1
	}
	c.Mu.Lock()
	w, ok := c.workers[id]
	if !ok {
		w = &worker{id: id, inflight: make(map[string]*fjob)}
		c.workers[id] = w
	}
	w.url = req.URL
	w.slots = slots
	w.state = WorkerAlive
	w.pinnedDrain = false
	w.cl = c.opts.NewClient(req.URL)
	// A fresh registration gets a grace lease; the first probe sweep
	// confirms or expires it.
	w.leaseExpiry = time.Now().Add(c.opts.LeaseTTL)
	c.Mu.Unlock()
	c.kickScheduler()
	return w
}

// workerStatusLocked snapshots one registry entry.
func (c *Coordinator) workerStatusLocked(w *worker) WorkerStatus {
	return WorkerStatus{
		ID: w.id, URL: w.url, State: w.state, Slots: w.slots,
		InFlight:    len(w.inflight),
		LeaseMillis: time.Until(w.leaseExpiry).Milliseconds(),
		Dispatched:  w.dispatched, Completed: w.completed, Deaths: w.deaths,
	}
}

// Statusz renders gsched's GET /statusz.
func (c *Coordinator) Statusz(cs server.CoreStatus) any {
	st := Statusz{
		State: cs.State, Build: cs.Build, Journal: cs.Journal, UptimeSec: cs.UptimeSec,
		Queued: cs.QueueDepth, Dispatched: cs.JobStates[JobDispatched],
		Accepted: cs.Accepted, Deduped: cs.Deduped, Completed: cs.Completed, Failed: cs.Failed,
		Requeues: c.requeues.Load(), Preemptions: c.preemptions.Load(),
		WorkerDeaths: c.workerDeaths.Load(), Replayed: cs.Replayed,
		RejectedFull: cs.RejectedQueue, Panics: cs.Panics,
	}
	c.Mu.Lock()
	if st.State == "serving" && c.Load().Degraded > 0 {
		st.State = "degraded"
	}
	st.Tenants = c.q.snapshot()
	for _, name := range sortedKeys(c.workers) {
		st.Workers = append(st.Workers, c.workerStatusLocked(c.workers[name]))
	}
	c.Mu.Unlock()
	return st
}

// sortedKeys returns m's keys (worker ids, tenant names) in order, for
// deterministic iteration.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for key := range m {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	return keys
}
