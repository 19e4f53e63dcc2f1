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
package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gpushare/internal/client"
	"gpushare/internal/fault"
	"gpushare/internal/server"
	"gpushare/internal/wal"
)

// Options configures a Coordinator. The zero value is usable: 3s
// leases probed every second, a 1024-deep queue, preemption on.
type Options struct {
	// LeaseTTL is how long a worker stays trusted after its last
	// successful probe or heartbeat (0 = 3s). Expiry marks it dead and
	// requeues its jobs.
	LeaseTTL time.Duration
	// ProbeInterval is the failure-detector sweep period (0 =
	// LeaseTTL/3). Each sweep probes every worker's /readyz.
	ProbeInterval time.Duration
	// QueueDepth bounds admitted-but-unfinished jobs (0 = 1024); beyond
	// it submissions are shed with 429.
	QueueDepth int
	// MaxDeadline caps client-requested job deadlines (0 = 10m).
	MaxDeadline time.Duration
	// NoPreemption disables checkpoint-based preemption: higher-priority
	// jobs then only jump the queue, never displace a running job.
	NoPreemption bool
	// Workers is the static worker set registered at startup, as gserved
	// base URLs. More can register at runtime via POST /v1/workers.
	Workers []string
	// Slots is the per-worker concurrent-dispatch cap for the static
	// Workers set (0 = 1).
	Slots int
	// JournalPath enables the write-ahead queue journal ("" disables):
	// admissions are fsync'd before dispatch, and a coordinator killed
	// outright replays unfinished jobs on the next start.
	JournalPath string
	// JournalFaults arms torn-append crash injection on the journal
	// (durability tests only).
	JournalFaults *fault.Plan
	// Faults arms fleet crash points (durability tests only):
	// CrashAfterDispatch hard-stops the coordinator between a worker
	// accepting a job and the ack being recorded; HeartbeatBlackhole
	// makes one worker's probes vanish while it stays alive.
	Faults *fault.Plan
	// NewClient builds the per-worker client (tests tune retries and
	// timeouts). nil = client.New with snappy probe-friendly settings.
	NewClient func(baseURL string) *client.Client
}

// fjob is one fleet job's coordinator-side state. Mutations are guarded
// by Coordinator.mu; done closes exactly once, when the job reaches a
// terminal state.
type fjob struct {
	key      string
	req      SubmitRequest
	tenant   string
	weight   int
	priority int
	seq      int64

	state  string
	worker string // current / last worker id
	res    server.JobStatus

	requeues    int
	preemptions int
	// preempting marks an in-flight dispatch the coordinator is
	// deliberately cancelling to make room for higher priority.
	preempting bool
	// notBefore delays re-dispatch after a dispatch-path failure so a
	// flapping worker cannot spin the scheduler.
	notBefore time.Time

	cancelDispatch context.CancelFunc
	done           chan struct{}
}

// worker is one registry entry. Mutations are guarded by
// Coordinator.mu.
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

// Coordinator is the gsched daemon core. Build with New, mount
// Handler, stop with Drain (graceful) or HardStop (crash emulation).
type Coordinator struct {
	opts Options
	mux  *http.ServeMux

	baseCtx context.Context
	cancel  context.CancelFunc

	mu       sync.Mutex
	workers  map[string]*worker
	jobs     map[string]*fjob
	q        *fairQueue
	seq      int64
	draining bool
	crashed  bool

	jl *wal.Log

	kick chan struct{}
	// settled is signaled (never blocking) whenever a job turns terminal;
	// Drain waits on it.
	settled chan struct{}
	wg      sync.WaitGroup

	// holdBound caps one ?wait= hold (server.HoldBound outside tests).
	holdBound time.Duration

	start time.Time

	accepted     atomic.Int64
	deduped      atomic.Int64
	completed    atomic.Int64
	failed       atomic.Int64
	requeues     atomic.Int64
	preemptions  atomic.Int64
	workerDeaths atomic.Int64
	replayed     atomic.Int64
	rejFull      atomic.Int64
}

// New builds the coordinator, registers the static worker set, replays
// the journal, and starts the scheduler and failure-detector loops.
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
	if opts.MaxDeadline <= 0 {
		opts.MaxDeadline = 10 * time.Minute
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

	ctx, cancel := context.WithCancel(context.Background())
	c := &Coordinator{
		opts:    opts,
		baseCtx: ctx,
		cancel:  cancel,
		workers: make(map[string]*worker),
		jobs:    make(map[string]*fjob),
		q:       newFairQueue(),
		kick:    make(chan struct{}, 1),
		settled: make(chan struct{}, 1),
		start:   time.Now(),

		holdBound: holdBound,
	}
	c.routes()

	for _, url := range opts.Workers {
		c.addWorker(RegisterRequest{URL: url, Slots: opts.Slots})
	}

	var replay []wal.Record
	if opts.JournalPath != "" {
		jl, pending, err := wal.Open(opts.JournalPath)
		if err != nil {
			return nil, fmt.Errorf("fleet: journal: %w", err)
		}
		jl.Faults = opts.JournalFaults
		c.jl = jl
		replay = pending
	}

	c.wg.Add(2)
	go c.schedulerLoop()
	go c.probeLoop()

	for _, rec := range replay {
		var req SubmitRequest
		if err := json.Unmarshal(rec.Req, &req); err != nil {
			// The journaled submission no longer decodes: it can never
			// run, retire it.
			c.jl.Done(rec.Key)
			continue
		}
		if _, _, err := c.submit(&req, true); err != nil {
			// No longer validates (e.g. a workload was removed): retire.
			c.jl.Done(rec.Key)
			continue
		}
		c.replayed.Add(1)
	}
	return c, nil
}

// validateEnvelope checks the fleet scheduling fields.
func validateEnvelope(req *SubmitRequest) error {
	if req.Priority < 0 || req.Priority > maxPriority {
		return fmt.Errorf("priority %d out of range [0, %d]", req.Priority, maxPriority)
	}
	if req.Weight < 0 {
		return fmt.Errorf("weight %d must be >= 0", req.Weight)
	}
	return nil
}

// submit runs the admission state machine for one submission. replayed
// marks journal replay (already durable; skip the accept append).
// Returns the job, an HTTP status (200 dedup, 202 admitted, 429 shed),
// and an error for invalid submissions.
func (c *Coordinator) submit(req *SubmitRequest, replayed bool) (*fjob, int, error) {
	if err := validateEnvelope(req); err != nil {
		return nil, http.StatusBadRequest, err
	}
	_, key, err := server.BuildJob(&req.SubmitRequest)
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	tenant := req.Tenant
	if tenant == "" {
		tenant = "default"
	}

	c.mu.Lock()
	if j, ok := c.jobs[key]; ok {
		c.mu.Unlock()
		c.deduped.Add(1)
		return j, http.StatusOK, nil
	}
	if c.draining {
		c.mu.Unlock()
		return nil, http.StatusServiceUnavailable, fmt.Errorf("coordinator is draining; not admitting jobs")
	}
	if c.outstandingLocked() >= c.opts.QueueDepth {
		c.mu.Unlock()
		c.rejFull.Add(1)
		return nil, http.StatusTooManyRequests, fmt.Errorf("admission queue is full")
	}
	c.seq++
	j := &fjob{
		key: key, req: *req, tenant: tenant, weight: req.Weight,
		priority: req.Priority, seq: c.seq,
		state: JobQueued, done: make(chan struct{}),
	}
	// The write-ahead rule: the admission is fsync'd before the job is
	// visible to the scheduler, so a crash between here and completion
	// always leaves a replayable record. A journal write failure only
	// degrades durability — the job is admitted regardless.
	if c.jl != nil && !replayed && !c.crashed {
		_ = c.jl.Accept(key, req)
	}
	c.jobs[key] = j
	c.q.push(j)
	c.mu.Unlock()
	c.accepted.Add(1)
	c.kickScheduler()
	return j, http.StatusAccepted, nil
}

// outstandingLocked counts non-terminal jobs (queued + dispatched).
func (c *Coordinator) outstandingLocked() int {
	n := 0
	for _, j := range c.jobs {
		if j.state == JobQueued || j.state == JobDispatched {
			n++
		}
	}
	return n
}

// kickScheduler nudges the scheduler loop without blocking.
func (c *Coordinator) kickScheduler() {
	select {
	case c.kick <- struct{}{}:
	default:
	}
}

// signalSettled tells a waiting Drain that a job just turned terminal.
func (c *Coordinator) signalSettled() {
	select {
	case c.settled <- struct{}{}:
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
	c.mu.Lock()
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
	c.mu.Unlock()
	c.kickScheduler()
	return w
}

// liveWorkersLocked counts workers currently eligible for dispatch.
func (c *Coordinator) liveWorkersLocked() int {
	n := 0
	for _, w := range c.workers {
		if w.state == WorkerAlive {
			n++
		}
	}
	return n
}

// status snapshots one job.
func (c *Coordinator) status(j *fjob) JobStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.statusLocked(j)
}

func (c *Coordinator) statusLocked(j *fjob) JobStatus {
	st := JobStatus{
		JobStatus: server.JobStatus{Key: j.key, State: j.state,
			Workload: j.req.Workload, Scale: j.req.Scale},
		Tenant: j.tenant, Priority: j.priority, Worker: j.worker,
		Requeues: j.requeues, Preemptions: j.preemptions,
	}
	switch j.state {
	case JobDone, JobFailed:
		st.JobStatus = j.res
		st.State = j.state
	case JobQueued:
		if c.liveWorkersLocked() == 0 {
			// Degraded mode: queued with no one to run it. The honest
			// hint is one lease TTL — the time for a worker to register
			// or come back.
			st.RetryAfterSec = int(c.opts.LeaseTTL/time.Second) + 1
		}
	}
	return st
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

// Draining reports whether the coordinator stopped admitting.
func (c *Coordinator) Draining() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.draining
}

// Drain stops admission, waits for dispatched and queued jobs to reach
// terminal states (up to timeout), then stops the loops. Queued jobs
// that never ran stay pending in the journal for the next start.
func (c *Coordinator) Drain(timeout time.Duration) error {
	c.mu.Lock()
	c.draining = true
	c.mu.Unlock()

	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
wait:
	for {
		c.mu.Lock()
		n := c.outstandingLocked()
		c.mu.Unlock()
		if n == 0 {
			break
		}
		select {
		case <-c.settled:
		case <-deadline.C:
			break wait
		}
	}
	c.cancel()
	done := make(chan struct{})
	go func() { c.wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		return fmt.Errorf("fleet: drain: loops still running after cancellation")
	}
	if c.jl != nil {
		c.jl.Close()
	}
	c.mu.Lock()
	n := c.outstandingLocked()
	c.mu.Unlock()
	if n > 0 {
		return fmt.Errorf("fleet: drain: %d job(s) still outstanding (journaled for the next start)", n)
	}
	return nil
}

// HardStop is the kill -9 analog for crash tests: it abandons
// everything mid-flight. No journal records are retired, dispatch
// goroutines are cut off, and nothing is waited for — exactly the state
// a real crash leaves. A new Coordinator on the same journal replays
// every accepted, unfinished job.
func (c *Coordinator) HardStop() {
	c.mu.Lock()
	if c.crashed {
		c.mu.Unlock()
		return
	}
	c.crashed = true
	c.draining = true
	c.mu.Unlock()
	c.cancel()
	if c.jl != nil {
		c.jl.Close()
	}
}

// statusz snapshots the whole coordinator.
func (c *Coordinator) statusz() Statusz {
	c.mu.Lock()
	st := Statusz{
		State:     "serving",
		UptimeSec: time.Since(c.start).Seconds(),
		Tenants:   c.q.snapshot(),
		Queued:    c.q.len(),
	}
	switch {
	case c.crashed:
		st.State = "dead"
	case c.draining:
		st.State = "draining"
	case c.liveWorkersLocked() == 0:
		st.State = "degraded"
	}
	for _, j := range c.jobs {
		if j.state == JobDispatched {
			st.Dispatched++
		}
	}
	for _, name := range workerNames(c.workers) {
		st.Workers = append(st.Workers, c.workerStatusLocked(c.workers[name]))
	}
	c.mu.Unlock()

	st.Build = server.Build()
	if c.jl != nil {
		js := c.jl.Stats()
		st.Journal = &server.JournalStatus{
			Path: c.jl.Path(), Appended: js.Appended, Pending: js.Pending,
			Replayed: c.replayed.Load(), TornLines: js.TornLines,
			Errors: js.Errors, Compactions: js.Compactions,
		}
	}
	st.Accepted = c.accepted.Load()
	st.Deduped = c.deduped.Load()
	st.Completed = c.completed.Load()
	st.Failed = c.failed.Load()
	st.Requeues = c.requeues.Load()
	st.Preemptions = c.preemptions.Load()
	st.WorkerDeaths = c.workerDeaths.Load()
	st.Replayed = c.replayed.Load()
	st.RejectedFull = c.rejFull.Load()
	return st
}

// workerNames returns ids sorted for deterministic iteration.
func workerNames(ws map[string]*worker) []string {
	names := make([]string, 0, len(ws))
	for name := range ws {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
