// Package server implements gserved: a long-lived HTTP/JSON daemon that
// exposes the internal/runner simulation farm to many concurrent
// clients and is engineered to degrade gracefully rather than fall
// over. The robustness machinery:
//
//   - Admission control: a bounded queue between the HTTP handlers and
//     the simulation workers. When the queue is full the server sheds
//     load with 429 + Retry-After instead of buffering unboundedly;
//     while draining it rejects with 503. Request bodies are capped per
//     request and in aggregate.
//   - Deadline propagation: a client's deadline_ms becomes a real
//     context.Context deadline threaded through runner.DoCtx into the
//     simulator's cycle loop, so a timed-out job stops within one
//     cancellation stride instead of running to MaxCycles.
//   - Idempotent resubmission: jobs are addressed by the runner's
//     content-addressed SHA-256 key; resubmitting an in-flight or
//     finished key returns the existing job instead of a duplicate.
//   - Crash isolation: handlers run under a recover middleware, and a
//     failed simulation's simerr.SimError is converted into a
//     structured body carrying kind, cycle, SM, warp, and the forensic
//     dump — the daemon itself never dies of one bad job.
//   - Graceful drain: Drain stops admission, lets queued and in-flight
//     jobs finish (their results persist in the shared disk cache),
//     and cancels whatever is still running at the drain deadline. A
//     restarted daemon serves drained keys from the disk store.
package server

import (
	"context"
	"fmt"
	"log"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"gpushare/internal/config"
	"gpushare/internal/fault"
	"gpushare/internal/runner"
	"gpushare/internal/simerr"
	"gpushare/internal/workloads"
)

// Options configures a Server. The zero value is usable: GOMAXPROCS
// workers, a 64-deep queue, 1MB bodies, and a memory-only cache.
type Options struct {
	// Workers bounds concurrent simulations (0 = GOMAXPROCS).
	Workers int
	// QueueDepth bounds admitted-but-unstarted jobs (0 = 64).
	// Submissions beyond it are shed with 429 + Retry-After.
	QueueDepth int
	// MaxBodyBytes caps one request body (0 = 1MB).
	MaxBodyBytes int64
	// MaxInFlightBytes caps the aggregate request-body bytes being
	// parsed or queued across all connections (0 = 64MB). Beyond it
	// submissions are shed with 429.
	MaxInFlightBytes int64
	// MaxDeadline caps client-requested job deadlines (0 = 10m).
	MaxDeadline time.Duration
	// Runner configures the underlying simulation farm (cache
	// directory, per-attempt timeout, retries, verification, and —
	// via its CheckpointDir/CheckpointStride — crash-tolerant
	// mid-simulation checkpoints). Its Workers field is overridden by
	// Options.Workers.
	Runner runner.Options
	// JournalPath enables the write-ahead job journal ("" disables):
	// every admission is fsync'd to this JSON-lines file before the job
	// is queued, and a daemon killed outright (kill -9) re-admits its
	// unfinished jobs on the next start.
	JournalPath string
	// JournalFaults, when non-nil, arms crash-point injection on the
	// journal's append path (durability tests only).
	JournalFaults *fault.Plan
	// CrashFaults, when non-nil, arms fleet crash-point injection on the
	// job execution path (fleet durability tests only): a
	// WorkerCrashMidJob plan makes the daemon Kill itself — an in-process
	// kill -9 analog — while the Nth dispatched job is running.
	CrashFaults *fault.Plan
}

// job is one submission's server-side state. Transitions are guarded by
// Server.mu; done is closed exactly once when the job reaches a
// terminal state.
type job struct {
	key      string
	rjob     runner.Job
	deadline time.Time // zero = no client deadline

	state string
	res   runner.Result // valid once state is terminal
	done  chan struct{}
	// cancel aborts a running job's context (set while state is
	// StateRunning, under Server.mu). A canceled job keeps its journal
	// accept and checkpoint trail: its work is still owed somewhere.
	cancel context.CancelFunc
}

// Server is the gserved daemon core: admission, job registry, worker
// pool, and drain state machine. Build one with New, mount Handler on
// an http.Server, and call Drain on shutdown.
type Server struct {
	opts Options
	r    *runner.Runner
	mux  *http.ServeMux

	baseCtx context.Context // canceled at the drain deadline
	cancel  context.CancelFunc

	mu       sync.Mutex
	jobs     map[string]*job
	queue    chan *job
	draining bool
	killed   bool
	// space (on mu) is broadcast when a worker takes a job off the queue
	// and when admission closes; journal replay waits on it while the
	// queue is full.
	space *sync.Cond
	// memAgg folds the per-partition memory counters of every job this
	// process simulated to completion (guarded by mu); /statusz serves
	// it once the first contribution lands.
	memAgg MemStatus

	wg    sync.WaitGroup
	start time.Time

	// holdBound caps one ?wait= hold (HoldBound outside tests).
	holdBound time.Duration

	// jl is the write-ahead job journal (nil when disabled).
	jl       *journal
	replayed atomic.Int64

	inFlightBytes atomic.Int64
	accepted      atomic.Int64
	deduped       atomic.Int64
	rejQueue      atomic.Int64
	rejDrain      atomic.Int64
	rejBytes      atomic.Int64
	panics        atomic.Int64
}

// New builds the daemon core and starts its worker pool.
func New(opts Options) *Server { return newServer(opts, HoldBound) }

// newServer is New with the ?wait= hold bound as an argument, so tests
// can watch a hold expire without waiting HoldBound.
func newServer(opts Options, holdBound time.Duration) *Server {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 64
	}
	if opts.MaxBodyBytes <= 0 {
		opts.MaxBodyBytes = 1 << 20
	}
	if opts.MaxInFlightBytes <= 0 {
		opts.MaxInFlightBytes = 64 << 20
	}
	if opts.MaxDeadline <= 0 {
		opts.MaxDeadline = 10 * time.Minute
	}
	opts.Runner.Workers = opts.Workers

	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		opts:    opts,
		r:       runner.New(opts.Runner),
		baseCtx: ctx,
		cancel:  cancel,
		jobs:    make(map[string]*job),
		queue:   make(chan *job, opts.QueueDepth),
		start:   time.Now(),

		holdBound: holdBound,
	}
	s.space = sync.NewCond(&s.mu)
	s.routes()

	// Open and replay the job journal before serving: whatever a
	// previous process accepted but never finished is owed again.
	var replay []journalRecord
	if opts.JournalPath != "" {
		jl, pending, err := openJournal(opts.JournalPath, opts.JournalFaults)
		if err != nil {
			// A broken journal degrades to journal-less operation: the
			// daemon must come up and serve even if its WAL is lost.
			log.Printf("gserved: journal disabled: %v", err)
		} else {
			s.jl = jl
			replay = pending
		}
	}

	for w := 0; w < opts.Workers; w++ {
		s.wg.Add(1)
		go s.worker()
	}
	if len(replay) > 0 {
		go s.readmit(replay)
	}
	return s
}

// readmit re-admits journal-replayed jobs into the queue. It runs in the
// background after the worker pool is up: a replay larger than the queue
// blocks until a worker makes room, and a drain that starts meanwhile
// abandons the rest (they stay pending in the journal for the next
// start).
func (s *Server) readmit(pending []journalRecord) {
	for _, rec := range pending {
		rjob, key, err := BuildJob(rec.Req)
		if err != nil {
			// The journaled submission no longer validates (e.g. a
			// workload was removed): it can never run, retire it.
			log.Printf("gserved: journal: dropping unreplayable job %s: %v", rec.Key, err)
			s.jl.done(rec.Key)
			continue
		}
		s.mu.Lock()
		for !s.draining && s.jobs[key] == nil && len(s.queue) >= cap(s.queue) {
			s.space.Wait()
		}
		if s.draining {
			s.mu.Unlock()
			return
		}
		// A key already in the registry was resubmitted by a client since
		// restart; that admission owns it.
		if s.jobs[key] == nil {
			jb := &job{key: key, rjob: rjob, state: StateQueued, done: make(chan struct{})}
			s.queue <- jb // cannot block: every producer holds mu
			s.jobs[key] = jb
			s.accepted.Add(1)
			s.replayed.Add(1)
		}
		s.mu.Unlock()
	}
}

// Runner exposes the underlying farm (tests compare against direct
// sequential runs through it).
func (s *Server) Runner() *runner.Runner { return s.r }

// worker executes admitted jobs until the queue is closed by Drain.
func (s *Server) worker() {
	defer s.wg.Done()
	for jb := range s.queue {
		s.runJob(jb)
	}
}

// runJob executes one admitted job under the server context plus the
// job's own deadline, then publishes the terminal state.
func (s *Server) runJob(jb *job) {
	s.mu.Lock()
	s.space.Broadcast() // jb just left the queue
	if jb.state == StateCanceled {
		// Canceled while still queued (preemption or client cancel):
		// never run. cancelJob already published the terminal state.
		s.mu.Unlock()
		return
	}
	ctx := s.baseCtx
	var cancel context.CancelFunc
	if !jb.deadline.IsZero() {
		ctx, cancel = context.WithDeadline(ctx, jb.deadline)
	} else {
		ctx, cancel = context.WithCancel(ctx)
	}
	jb.state = StateRunning
	jb.cancel = cancel
	s.mu.Unlock()

	// Fleet crash point: the worker dies abruptly (kill -9 analog) while
	// this job is running — its journal accept stays pending, its
	// checkpoint trail survives, and the coordinator must requeue it.
	if s.opts.CrashFaults.Trip(fault.WorkerCrashMidJob, -1, -1, -1,
		"worker killed mid-job "+jb.key) {
		s.Kill()
	}

	res := s.r.DoCtx(ctx, jb.rjob)
	cancel()

	state := StateDone
	if res.Err != nil {
		if runner.IsCanceled(res.Err) {
			state = StateCanceled
		} else {
			state = StateFailed
		}
	}
	s.mu.Lock()
	jb.res = res
	jb.state = state
	if state == StateDone && res.Stats != nil && res.Tier == runner.Simulated {
		s.memAgg.add(res.Stats.MemParts)
	}
	s.mu.Unlock()
	if s.jl != nil && state != StateCanceled {
		// Canceled jobs stay pending in the journal on purpose: their
		// work is still owed, and the next start replays them (the
		// runner's caches make an already-finished replay free).
		s.jl.done(jb.key)
	}
	close(jb.done)
}

// BuildJob validates a submission, normalizes it (scale default 1,
// config default Table I) and materializes the runner job with its
// content-addressed key. gsched calls the same function, so the key the
// coordinator journals is the key the worker registers — which is what
// makes at-least-once dispatch safe. Daemon-side knobs are not part of it.
func BuildJob(req *SubmitRequest) (runner.Job, string, error) {
	switch {
	case req.Tenancy != nil:
		if req.Workload != "" {
			return runner.Job{}, "", fmt.Errorf("workload and tenancy are mutually exclusive; name workloads inside the tenancy spec")
		}
		if err := req.Tenancy.Validate(); err != nil {
			return runner.Job{}, "", fmt.Errorf("invalid tenancy spec: %w", err)
		}
	case req.Workload == "":
		return runner.Job{}, "", fmt.Errorf("workload is required")
	default:
		if _, err := workloads.ByName(req.Workload); err != nil {
			return runner.Job{}, "", err
		}
	}
	scale := req.Scale
	if scale <= 0 {
		scale = 1
	}
	cfg := config.Default()
	if req.Config != nil {
		cfg = *req.Config
	}
	if err := cfg.Validate(); err != nil {
		return runner.Job{}, "", fmt.Errorf("invalid config: %w", err)
	}
	rjob := runner.Job{Workload: req.Workload, Config: cfg, Scale: scale, Tenancy: req.Tenancy}
	key, err := rjob.Key()
	if err != nil {
		return runner.Job{}, "", err
	}
	return rjob, key, nil
}

// submitOutcome is one admission decision.
type submitOutcome struct {
	jb         *job
	httpStatus int    // 200 dedup/cached, 202 admitted, 429/503 shed
	rejected   string // "queue-full" | "draining" for shed submissions
	retryAfter int
}

// submit runs the admission state machine for one validated job: dedup
// against the registry, then against the result cache, then try to
// enqueue within the bounded queue. All registry decisions happen under
// one lock acquisition so a key can never be admitted twice.
func (s *Server) submit(req *SubmitRequest, rjob runner.Job, key string) submitOutcome {
	// Cache probe before taking the lock: a disk or memory hit makes
	// the job instantly terminal without occupying a queue slot.
	g, tier, cached := s.r.Lookup(key)

	s.mu.Lock()
	defer s.mu.Unlock()
	if jb, ok := s.jobs[key]; ok && jb.state != StateCanceled {
		s.deduped.Add(1)
		return submitOutcome{jb: jb, httpStatus: http.StatusOK}
	}
	// A canceled entry (deadline or drain abort) is transient, exactly
	// like the runner's no-negative-cache rule: fall through and
	// re-admit, replacing the registry entry on success.
	if cached {
		jb := &job{key: key, rjob: rjob, state: StateDone,
			res:  runner.Result{Job: rjob, Key: key, Stats: g, Tier: tier},
			done: make(chan struct{})}
		close(jb.done)
		s.jobs[key] = jb
		s.accepted.Add(1)
		return submitOutcome{jb: jb, httpStatus: http.StatusOK}
	}
	if s.draining {
		s.rejDrain.Add(1)
		return submitOutcome{httpStatus: http.StatusServiceUnavailable,
			rejected: "draining", retryAfter: s.retryAfterLocked()}
	}
	jb := &job{key: key, rjob: rjob, state: StateQueued, done: make(chan struct{})}
	if req.DeadlineMillis > 0 {
		d := time.Duration(req.DeadlineMillis) * time.Millisecond
		if d > s.opts.MaxDeadline {
			d = s.opts.MaxDeadline
		}
		jb.deadline = time.Now().Add(d)
	}
	if len(s.queue) >= cap(s.queue) {
		s.rejQueue.Add(1)
		return submitOutcome{httpStatus: http.StatusTooManyRequests,
			rejected: "queue-full", retryAfter: s.retryAfterLocked()}
	}
	// The write-ahead rule: the admission is fsync'd to the journal
	// before the job is visible to any worker, so a crash between here
	// and completion always leaves a replayable record. Every producer
	// holds mu, so the capacity check above guarantees the send cannot
	// block. A journal write failure only degrades durability — the job
	// is admitted regardless.
	if s.jl != nil {
		if err := s.jl.accept(key, req); err != nil {
			log.Printf("gserved: journal: %v", err)
		}
	}
	s.queue <- jb
	s.jobs[key] = jb
	s.accepted.Add(1)
	return submitOutcome{jb: jb, httpStatus: http.StatusAccepted}
}

// retryAfterLocked estimates how long a shed client should back off:
// roughly one queue drain at one job-second per worker, clamped to
// [1s, 60s]. Called with mu held.
func (s *Server) retryAfterLocked() int {
	est := 1 + len(s.queue)/s.opts.Workers
	if est > 60 {
		est = 60
	}
	return est
}

// lookupJob returns the registry entry for key, falling back to the
// result cache so a restarted daemon still serves keys drained to disk
// by a previous process.
func (s *Server) lookupJob(key string) (*job, bool) {
	s.mu.Lock()
	if jb, ok := s.jobs[key]; ok {
		s.mu.Unlock()
		return jb, true
	}
	s.mu.Unlock()

	g, tier, ok := s.r.Lookup(key)
	if !ok {
		return nil, false
	}
	jb := &job{key: key, state: StateDone,
		res:  runner.Result{Key: key, Stats: g, Tier: tier},
		done: make(chan struct{})}
	close(jb.done)
	s.mu.Lock()
	if existing, ok := s.jobs[key]; ok { // lost the race; keep the first
		jb = existing
	} else {
		s.jobs[key] = jb
	}
	s.mu.Unlock()
	return jb, true
}

// cancelJob aborts one job by key: a queued job flips straight to
// canceled without ever running, a running job's context is canceled so
// it stops within one cancellation stride, and a terminal job is left
// untouched. The job's journal accept and checkpoint trail deliberately
// survive — cancellation means "stop computing here", not "the work is
// no longer owed" — which is exactly what the fleet coordinator's
// preemption needs: the preempted job resumes from its trail on any
// worker sharing the checkpoint directory. The second return is false
// when the key is unknown.
func (s *Server) cancelJob(key string) (*job, bool) {
	s.mu.Lock()
	jb, ok := s.jobs[key]
	if !ok {
		s.mu.Unlock()
		return nil, false
	}
	switch jb.state {
	case StateQueued:
		jb.state = StateCanceled
		jb.res = runner.Result{Job: jb.rjob, Key: key,
			Err: fmt.Errorf("job %s: %w", jb.rjob, context.Canceled)}
		s.mu.Unlock()
		close(jb.done)
		return jb, true
	case StateRunning:
		cancel := jb.cancel
		s.mu.Unlock()
		if cancel != nil {
			cancel()
		}
		return jb, true
	}
	s.mu.Unlock()
	return jb, true
}

// Kill is the abrupt-stop used by fleet crash tests: a kill -9 analog
// that stays in-process. Admission stops, the base context is canceled
// so in-flight jobs abort within one cancellation stride *without*
// retiring their journal accepts, and the journal file handle drops.
// Everything durable — journal, result cache, checkpoint trails — is
// left exactly as a real kill -9 would leave it; the HTTP listener
// (owned by the caller) keeps answering so probes see an explicit
// "dead" readiness state instead of a timeout.
func (s *Server) Kill() {
	s.mu.Lock()
	if s.killed {
		s.mu.Unlock()
		return
	}
	s.killed = true
	s.stopAdmissionLocked()
	s.mu.Unlock()
	s.cancel()
	if s.jl != nil {
		s.jl.close()
	}
}

// stopAdmissionLocked closes admission once: submissions are refused,
// workers run the queue dry and exit, and a journal replay still waiting
// for queue space gives up.
func (s *Server) stopAdmissionLocked() {
	if s.draining {
		return
	}
	s.draining = true
	close(s.queue)
	s.space.Broadcast()
}

// jobLabel renders a job's workload field for status responses: the
// workload name for single-kernel jobs, "policy(tenant+tenant)" for
// multi-tenant ones.
func jobLabel(j runner.Job) string {
	if j.Tenancy == nil {
		return j.Workload
	}
	names := ""
	for i := range j.Tenancy.Tenants {
		if i > 0 {
			names += "+"
		}
		names += j.Tenancy.TenantName(i)
	}
	return fmt.Sprintf("%s(%s)", j.Tenancy.Policy, names)
}

// status snapshots one job's externally visible state.
func (s *Server) status(jb *job) JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := JobStatus{
		Key:      jb.key,
		Workload: jobLabel(jb.rjob),
		Scale:    jb.rjob.Scale,
		State:    jb.state,
	}
	switch jb.state {
	case StateDone:
		st.Stats = jb.res.Stats
		st.Tier = jb.res.Tier.String()
		st.Attempts = jb.res.Attempts
	case StateFailed, StateCanceled:
		st.Attempts = jb.res.Attempts
		if err := jb.res.Err; err != nil {
			st.Error = err.Error()
			if se, ok := simerr.As(err); ok {
				st.ErrorKind = se.Kind.String()
				if se.Dump != nil {
					st.Diagnosis = se.Diagnosis()
				}
			}
		}
	}
	return st
}

// Draining reports whether the server has stopped admitting jobs.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drain executes the shutdown state machine:
//
//	serving -> draining   admission closed: submissions get 503, the
//	                      queue is closed, workers finish what is
//	                      queued and in flight (results land in the
//	                      shared disk cache as they complete)
//	draining -> canceling at the drain deadline the base context is
//	                      canceled; in-flight simulations stop within
//	                      one cancellation stride and report canceled
//	canceling -> drained  workers have exited
//
// Drain returns nil when every worker exited before the deadline plus a
// short cancellation grace, and is idempotent.
func (s *Server) Drain(timeout time.Duration) error {
	s.mu.Lock()
	s.stopAdmissionLocked()
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		if s.jl != nil {
			s.jl.close()
		}
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-time.After(timeout):
	}
	// Deadline passed: abort whatever is still running and give it a
	// short grace to observe the cancellation.
	s.cancel()
	select {
	case <-done:
		return nil
	case <-time.After(10 * time.Second):
		return fmt.Errorf("server: drain: workers still running %s after cancellation", timeout)
	}
}

// statusz snapshots the whole daemon for GET /statusz.
func (s *Server) statusz() Statusz {
	s.mu.Lock()
	states := make(map[string]int)
	for _, jb := range s.jobs {
		states[jb.state]++
	}
	state := "serving"
	if s.draining {
		state = "draining"
	}
	if s.killed {
		state = "dead"
	}
	depth := len(s.queue)
	var mem *MemStatus
	if s.memAgg.Jobs > 0 {
		m := s.memAgg
		mem = &m
	}
	s.mu.Unlock()

	var jl *JournalStatus
	if s.jl != nil {
		jl = s.jl.snapshot(s.replayed.Load())
	}
	return Statusz{
		State:            state,
		Build:            Build(),
		Journal:          jl,
		UptimeSec:        time.Since(s.start).Seconds(),
		Workers:          s.opts.Workers,
		QueueDepth:       depth,
		QueueCap:         s.opts.QueueDepth,
		InFlight:         s.r.InFlight(),
		InFlightBytes:    s.inFlightBytes.Load(),
		MaxInFlightBytes: s.opts.MaxInFlightBytes,
		Accepted:         s.accepted.Load(),
		Deduped:          s.deduped.Load(),
		RejectedQueue:    s.rejQueue.Load(),
		RejectedDrain:    s.rejDrain.Load(),
		RejectedBytes:    s.rejBytes.Load(),
		Panics:           s.panics.Load(),
		JobStates:        states,
		Runner:           s.r.Counters(),
		Mem:              mem,
	}
}
