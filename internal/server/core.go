package server

import (
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"gpushare/internal/fault"
	"gpushare/internal/runner"
	"gpushare/internal/wal"
)

// CoreOptions are the settings both daemons share. The zero value is
// usable; QueueDepth's default is the backend's (64 for gserved, 1024
// for gsched).
type CoreOptions struct {
	// QueueDepth bounds admission; which jobs count against it is the
	// backend's Load().Bounded. Submissions beyond it are shed with 429 +
	// Retry-After. Journal replay is not admission and bypasses it.
	QueueDepth int
	// MaxDeadline caps client-requested job deadlines (0 = 10m).
	MaxDeadline time.Duration
	// MaxBodyBytes caps one request body (0 = 1MB).
	MaxBodyBytes int64
	// MaxInFlightBytes caps the aggregate request-body bytes being
	// parsed across all connections (0 = 64MB). Beyond it submissions
	// are shed with 429.
	MaxInFlightBytes int64
	// JournalPath enables the write-ahead job journal ("" disables):
	// every admission is written, fsync'd, as a record in this directory
	// before the job is visible to any executor, and a daemon killed
	// outright (kill -9) re-admits its unfinished jobs on the next start.
	JournalPath string
	// Faults, when non-nil, arms one crash point (durability tests
	// only). A plan arms one kind and each site trips only its own, so
	// the one field serves every site of both daemons: TornJournal on
	// the journal's accept path, WorkerCrashMidJob on gserved's job
	// execution path (the daemon Kills itself, an in-process kill -9
	// analog, while the Nth dispatched job runs), and gsched's
	// CrashAfterDispatch (a hard stop between a worker accepting a job
	// and the ack being recorded) and HeartbeatBlackhole (one worker's
	// probes vanish while it stays alive).
	Faults *fault.Plan
}

// Request is one decoded submission: gserved's SubmitRequest, or
// gsched's, which wraps it in the scheduling envelope. It is what the
// journal stores, so a replay decodes into the same type.
type Request interface {
	// Base is the gserved submission inside the request.
	Base() *SubmitRequest
	// Build validates the whole request and materializes the runner job
	// with its content-addressed key.
	Build() (runner.Job, string, error)
}

// Job is one registry entry. State is written only by the Core, under
// Mu; done closes exactly once, when the job turns terminal.
type Job struct {
	Key string
	Req Request
	Run runner.Job
	// Seq numbers registry entries in the order they were entered
	// (1, 2, ... per process): admissions, replays and cache hits alike.
	// Queues order by it and GET /v1/sweeps lists by it.
	Seq int64
	// Deadline is stamped once, at admission (zero = none). Replayed
	// jobs carry none: the client that set it is gone, the work is owed.
	Deadline time.Time
	State    string
	// Ext is the backend's per-job state (set in Enqueue).
	Ext any

	res  JobStatus // valid once State is terminal
	err  error     // the typed failure, when this process holds it
	done chan struct{}

	// body is the terminal job's full view as the 200 reply writes it,
	// encoded once, on first use (Core.reply).
	bodyOnce sync.Once
	body     []byte
}

// Done is closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Load is the backend's view of its executor, read with Mu held.
type Load struct {
	Queued   int // jobs waiting for an executor (readyz/statusz queue_depth)
	Bounded  int // jobs that count against QueueDepth
	Parallel int // jobs the executor can run at once (Retry-After estimate)
	// Degraded > 0 means admitting with nothing to execute on (gsched
	// with no live worker); the value is the honest retry hint in seconds.
	Degraded int
}

// retryAfter estimates how long a shed client should back off: roughly
// one queue drain at one job-second per executor slot, clamped to
// [1s, 60s].
func (l Load) retryAfter() int {
	if l.Parallel <= 0 {
		return max(l.Degraded, 1)
	}
	return min(1+l.Queued/l.Parallel, 60)
}

// Backend is the executor behind a Core. There are two: gserved's
// worker pool over the local runner (Server) and gsched's scheduler over
// remote workers (fleet.Coordinator). Load, Enqueue and Wire are called
// with Core.Mu held; backends guard their own state with the same lock.
type Backend interface {
	// NewRequest returns the decode target for one submission.
	NewRequest() Request
	// Lookup probes a result cache for a finished key (admission and
	// GET); a backend without one reports false.
	Lookup(key string) (JobStatus, bool)
	Load() Load
	// Enqueue hands a queued job to the executor: at admission, at
	// replay, and again on every requeue.
	Enqueue(j *Job)
	// Wire turns a status snapshot into the daemon's wire form (gsched
	// adds its envelope fields).
	Wire(j *Job, st JobStatus) any
	// Statusz renders GET /statusz from the core's half of it.
	Statusz(CoreStatus) any
	// Wait blocks until the backend's goroutines have exited; it is
	// called once the context is canceled and admission is closed.
	Wait()
}

// Core is the job lifecycle both daemons share: the registry keyed by
// content key, admission, the write-ahead journal and its replay, the
// one terminal publish, drain and kill, and the HTTP handler set. It
// starts no goroutine and reads no clock of its own — the backend and
// the handlers drive it — so a test can step it event by event.
type Core struct {
	// Mu guards the registry and every Job's State, and the backend's
	// state with them.
	Mu sync.Mutex

	name   string // log prefix and shed messages: "gserved" | "gsched"
	active string // the backend's name for an executing job
	opts   CoreOptions
	be     Backend
	mux    *http.ServeMux

	ctx    context.Context // canceled at the drain deadline and by Kill
	cancel context.CancelFunc

	jobs     map[string]*Job
	states   map[string]int // jobs per State; zero entries are deleted
	seq      int64
	draining bool
	killed   bool

	jl     *wal.Log     // nil when disabled
	replay []wal.Record // pending accepts read at open, until Replay
	// settled is signaled (never blocking) whenever a job turns
	// terminal; Drain waits on it.
	settled chan struct{}

	holdBound time.Duration
	start     time.Time

	inFlightBytes atomic.Int64
	accepted      atomic.Int64
	deduped       atomic.Int64
	completed     atomic.Int64
	failed        atomic.Int64
	replayed      atomic.Int64
	rejQueue      atomic.Int64
	rejDrain      atomic.Int64
	rejBytes      atomic.Int64
	panics        atomic.Int64
}

// NewCore builds the lifecycle core over be and opens the journal. A
// journal that will not open is an error on both daemons: an operator
// who asked for durability must not silently run without it (undecodable
// records are not errors; wal.Open drops and counts them).
// active names the executing state ("running" | "dispatched"). The
// caller starts its executor, then calls Replay.
func NewCore(name, active string, opts CoreOptions, be Backend, holdBound time.Duration) (*Core, error) {
	if opts.MaxBodyBytes <= 0 {
		opts.MaxBodyBytes = 1 << 20
	}
	if opts.MaxInFlightBytes <= 0 {
		opts.MaxInFlightBytes = 64 << 20
	}
	if opts.MaxDeadline <= 0 {
		opts.MaxDeadline = 10 * time.Minute
	}
	c := &Core{
		name: name, active: active, opts: opts, be: be,
		jobs: make(map[string]*Job), states: make(map[string]int),
		settled: make(chan struct{}, 1), holdBound: holdBound, start: time.Now(),
	}
	c.ctx, c.cancel = context.WithCancel(context.Background())
	c.routes()
	if opts.JournalPath != "" {
		jl, pending, err := wal.Open(opts.JournalPath)
		if err != nil {
			return nil, fmt.Errorf("%s: journal: %w", name, err)
		}
		jl.Faults = opts.Faults
		c.jl, c.replay = jl, pending
	}
	return c, nil
}

// Context is canceled when in-flight work must stop: at the drain
// deadline and by Kill.
func (c *Core) Context() context.Context { return c.ctx }

// setState is the one place a Job's State changes.
func (c *Core) setState(j *Job, state string) {
	c.forget(j)
	j.State = state
	c.states[state]++
}

// forget takes j out of the per-state census.
func (c *Core) forget(j *Job) {
	if j.State == "" {
		return // not yet counted
	}
	if c.states[j.State]--; c.states[j.State] == 0 {
		delete(c.states, j.State)
	}
}

// LiveLocked is the number of non-terminal jobs, kept as transitions
// happen rather than counted over the registry.
func (c *Core) LiveLocked() int { return c.states[StateQueued] + c.states[c.active] }

// Outcome is one admission decision. Job is nil when the submission was
// refused; Rejected then says why and Code is the HTTP status.
type Outcome struct {
	Job        *Job
	Key        string
	Code       int    // 200 joined or cached, 202 admitted, 400, 429, 503
	Rejected   string // "bad-request" | "queue-full" | "draining"
	RetryAfter int
	Err        error // the validation failure behind "bad-request"
}

// Submit runs the admission state machine for one submission: validate,
// dedup against the registry, then against the backend's result cache,
// then admit within the bound. All registry decisions happen under one
// lock acquisition so a key can never be admitted twice.
func (c *Core) Submit(req Request, now time.Time) Outcome {
	run, key, err := req.Build()
	if err != nil {
		return Outcome{Code: http.StatusBadRequest, Rejected: "bad-request", Err: err}
	}
	c.Mu.Lock()
	out, joined := c.joinLocked(key)
	c.Mu.Unlock()
	if joined {
		return out
	}
	// Cache probe outside the lock, and only for a key the registry does
	// not hold: a disk hit reads and hashes a file, and it makes the job
	// instantly terminal without occupying a queue slot.
	cached, hit := c.be.Lookup(key)

	c.Mu.Lock()
	defer c.Mu.Unlock()
	if out, joined := c.joinLocked(key); joined {
		return out // a concurrent submission entered it meanwhile
	}
	j := &Job{Key: key, Req: req, Run: run, done: make(chan struct{})}
	if hit {
		j = c.register(j, cached)
		c.accepted.Add(1)
		return Outcome{Job: j, Key: key, Code: http.StatusOK}
	}
	switch ld := c.be.Load(); {
	case c.draining:
		c.rejDrain.Add(1)
		return Outcome{Key: key, Code: http.StatusServiceUnavailable, Rejected: "draining", RetryAfter: ld.retryAfter()}
	case ld.Bounded >= c.opts.QueueDepth:
		c.rejQueue.Add(1)
		return Outcome{Key: key, Code: http.StatusTooManyRequests, Rejected: "queue-full", RetryAfter: ld.retryAfter()}
	}
	if ms := req.Base().DeadlineMillis; ms > 0 {
		j.Deadline = now.Add(min(time.Duration(ms)*time.Millisecond, c.opts.MaxDeadline))
	}
	// The write-ahead rule: the admission is fsync'd to the journal
	// before the job is visible to any executor, so a crash between here
	// and completion always leaves a replayable record. A journal write
	// failure only degrades durability — the job is admitted regardless.
	if c.jl != nil {
		if err := c.jl.Accept(key, req); err != nil {
			log.Printf("%s: journal: %v", c.name, err)
		}
	}
	c.admit(j)
	return Outcome{Job: j, Key: key, Code: http.StatusAccepted}
}

// joinLocked deduplicates a submission against the registry. A
// canceled entry (deadline or drain abort) is transient, exactly like
// the runner's no-negative-cache rule: it does not join, and the
// submission goes on to re-admit, replacing the entry on success.
func (c *Core) joinLocked(key string) (Outcome, bool) {
	j, ok := c.jobs[key]
	if !ok || j.State == StateCanceled {
		return Outcome{}, false
	}
	c.deduped.Add(1)
	return Outcome{Job: j, Key: key, Code: http.StatusOK}, true
}

// admit registers a queued job and hands it to the executor: the tail
// shared by admission and replay. Called with Mu held.
func (c *Core) admit(j *Job) {
	c.enter(j, StateQueued)
	c.accepted.Add(1)
	c.be.Enqueue(j)
}

// register enters an already-finished job (a cache hit) into the
// registry, keeping an entry that got there first. Called with Mu held.
func (c *Core) register(j *Job, res JobStatus) *Job {
	if old := c.jobs[j.Key]; old != nil && old.State != StateCanceled {
		return old
	}
	j.res = c.stamp(j, res)
	c.enter(j, res.State)
	close(j.done)
	return j
}

// enter puts j in the registry in the given state, over the canceled
// entry it replaces, if any.
func (c *Core) enter(j *Job, state string) {
	if old := c.jobs[j.Key]; old != nil {
		c.forget(old)
	}
	c.seq++
	j.Seq = c.seq
	c.jobs[j.Key] = j
	c.setState(j, state)
}

// stamp fills a status's identifying fields from the job (all empty for
// a disk hit fetched by key alone: no submission came with it).
func (c *Core) stamp(j *Job, res JobStatus) JobStatus {
	res.Key, res.Workload, res.Scale = j.Key, j.Run.Label(), j.Run.Scale
	return res
}

// Replay re-admits what a previous process journaled but never
// finished. It is the one re-admit path of both daemons: already
// durable, so no second accept record (unless its key changed: then it
// is re-journaled under the new key and the old record retired);
// already promised, so the admission bound does not apply; and a record
// that no longer decodes or validates (it can never run) is retired. A
// drain that has begun leaves the rest pending for the next start.
func (c *Core) Replay() {
	recs := c.replay
	c.replay = nil
	for _, rec := range recs {
		req := c.be.NewRequest()
		err := json.Unmarshal(rec.Req, req)
		var run runner.Job
		var key string
		if err == nil {
			run, key, err = req.Build()
		}
		if err != nil {
			log.Printf("%s: journal: dropping unreplayable job %s: %v", c.name, rec.Key, err)
			_ = c.jl.Done(rec.Key) // a failed removal is counted in journal.errors
			continue
		}
		c.Mu.Lock()
		if c.draining {
			c.Mu.Unlock()
			return
		}
		if c.jobs[key] == nil {
			// A record journaled under a key this build no longer computes
			// (a fingerprint change across an upgrade) is owed under the
			// new key: journal that before the job is visible, as Submit
			// does, and only then retire the old record below — a crash
			// between the two replays the job twice, never zero times.
			if key != rec.Key {
				if err := c.jl.Accept(key, req); err != nil {
					log.Printf("%s: journal: %v", c.name, err)
				}
			}
			c.admit(&Job{Key: key, Req: req, Run: run, done: make(chan struct{})})
			c.replayed.Add(1)
		}
		c.Mu.Unlock()
		if key != rec.Key {
			_ = c.jl.Done(rec.Key) // a failed removal is counted in journal.errors
		}
	}
}

// StartLocked marks a queued job as executing.
func (c *Core) StartLocked(j *Job) { c.setState(j, c.active) }

// RequeueLocked returns an executing job to the queue (gsched:
// preemption, worker drain, lease expiry, a failed dispatch).
func (c *Core) RequeueLocked(j *Job) {
	c.setState(j, StateQueued)
	c.be.Enqueue(j)
}

// Publish records a job's terminal result; res.State says which. The
// first terminal result wins: duplicate executions (gsched dispatch is
// at-least-once) are byte-identical by simulator determinism, every
// later arrival is dropped here, and that is what makes results
// at-most-once. err is the typed failure when this process holds it.
// The journal record is retired after the state flips and before done
// closes — except for a canceled job, whose work is still owed: its
// accept stays pending and replays on the next start (the runner's
// caches make an already-finished replay free). Call without Mu.
func (c *Core) Publish(j *Job, res JobStatus, err error) bool {
	c.Mu.Lock()
	if Terminal(j.State) {
		c.Mu.Unlock()
		return false
	}
	j.res, j.err = c.stamp(j, res), err
	c.setState(j, res.State)
	// Counted before done closes: whoever is released by it may read
	// /statusz next.
	switch res.State {
	case StateDone:
		c.completed.Add(1)
	case StateFailed:
		c.failed.Add(1)
	}
	retire := c.jl != nil && !c.killed && res.State != StateCanceled
	c.Mu.Unlock()
	if retire {
		// A failed removal costs a replay of finished work (free: the result
		// is cached), never the result; it is counted in journal.errors.
		_ = c.jl.Done(j.Key)
	}
	close(j.done)
	select {
	case c.settled <- struct{}{}:
	default:
	}
	return true
}

// Lookup returns the registry entry for key, falling back to the
// backend's result cache so a restarted daemon still serves keys
// drained to disk by a previous process.
func (c *Core) Lookup(key string) (*Job, bool) {
	c.Mu.Lock()
	j, ok := c.jobs[key]
	c.Mu.Unlock()
	if ok {
		return j, true
	}
	res, ok := c.be.Lookup(key)
	if !ok {
		return nil, false
	}
	c.Mu.Lock()
	defer c.Mu.Unlock()
	return c.register(&Job{Key: key, done: make(chan struct{})}, res), true
}

// Jobs snapshots the registry, oldest entry first.
func (c *Core) Jobs() []*Job {
	c.Mu.Lock()
	defer c.Mu.Unlock()
	jobs := make([]*Job, 0, len(c.jobs))
	for _, j := range c.jobs {
		jobs = append(jobs, j)
	}
	slices.SortFunc(jobs, func(a, b *Job) int { return cmp.Compare(a.Seq, b.Seq) })
	return jobs
}

// StopAdmission closes admission: submissions are refused with 503 and
// a replay still running gives up. Idempotent.
func (c *Core) StopAdmission() {
	c.Mu.Lock()
	c.draining = true
	c.Mu.Unlock()
}

// Draining reports whether the daemon has stopped admitting jobs.
func (c *Core) Draining() bool {
	c.Mu.Lock()
	defer c.Mu.Unlock()
	return c.draining
}

// Kill is the abrupt stop used by crash tests: a kill -9 analog that
// stays in-process. Admission stops, the context is canceled so
// in-flight work aborts *without* retiring its journal accepts, and the
// journal is closed to this process. Everything durable — journal, result
// cache, checkpoint trails — is left exactly as a real kill -9 would
// leave it; the HTTP listener (owned by the caller) keeps answering so
// probes see an explicit "dead" readiness state instead of a timeout.
func (c *Core) Kill() {
	c.Mu.Lock()
	c.killed, c.draining = true, true
	c.Mu.Unlock()
	c.cancel()
	if c.jl != nil {
		c.jl.Close()
	}
}

// Drain executes the shutdown state machine:
//
//	serving -> draining   admission closed: submissions get 503; queued
//	                      and executing jobs go on to their terminal
//	                      states
//	draining -> canceling every job is terminal, or the timeout passed:
//	                      the context is canceled, in-flight work stops
//	                      within one cancellation stride, held waits
//	                      are released
//	canceling -> drained  the backend's goroutines have exited
//
// It returns an error when they do not exit within a short grace, or
// when jobs are still non-terminal at the end (their accepts stay
// pending in the journal for the next start). Idempotent.
func (c *Core) Drain(timeout time.Duration) error {
	c.StopAdmission()
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
wait:
	for c.live() > 0 {
		select {
		case <-c.settled:
		case <-deadline.C:
			break wait
		}
	}
	c.cancel()
	exited := make(chan struct{})
	go func() { c.be.Wait(); close(exited) }()
	select {
	case <-exited:
	case <-time.After(10 * time.Second):
		return fmt.Errorf("%s: drain: still running %s after cancellation", c.name, timeout)
	}
	if c.jl != nil {
		c.jl.Close()
	}
	if n := c.live(); n > 0 {
		return fmt.Errorf("%s: drain: %d job(s) still outstanding (journaled for the next start)", c.name, n)
	}
	return nil
}

func (c *Core) live() int {
	c.Mu.Lock()
	defer c.Mu.Unlock()
	return c.LiveLocked()
}

// statusLocked snapshots one job's externally visible state.
func (c *Core) statusLocked(j *Job) JobStatus {
	if Terminal(j.State) {
		return j.res
	}
	return c.stamp(j, JobStatus{State: j.State})
}

// view renders one job for the wire. held marks a hold that ran out
// (only a non-terminal answer carries it); brief drops the statistics
// and the forensic dump, for the sweep endpoints.
func (c *Core) view(j *Job, held, brief bool) any {
	c.Mu.Lock()
	defer c.Mu.Unlock()
	st := c.statusLocked(j)
	st.Held = held && !Terminal(st.State)
	if brief {
		st.Stats, st.Diagnosis = nil, ""
	}
	return c.be.Wire(j, st)
}

// reply returns a terminal job's full view as its 200 reply writes it,
// or nil while the job is live. A terminal job's view never changes —
// its result is published once, and gsched's envelope (worker, requeues,
// preemptions) moves only while the job is queued or dispatched — so the
// bytes are encoded once and need no invalidation.
func (c *Core) reply(j *Job) []byte {
	select {
	case <-j.done:
	default:
		return nil
	}
	j.bodyOnce.Do(func() {
		if b, err := json.Marshal(c.view(j, false, false)); err == nil {
			j.body = append(b, '\n')
		}
	})
	return j.body
}

// statusz snapshots the lifecycle core.
func (c *Core) statusz() CoreStatus {
	c.Mu.Lock()
	st := CoreStatus{State: "serving", QueueDepth: c.be.Load().Queued, JobStates: make(map[string]int, len(c.states))}
	for state, n := range c.states {
		st.JobStates[state] = n
	}
	switch {
	case c.killed:
		st.State = "dead"
	case c.draining:
		st.State = "draining"
	}
	c.Mu.Unlock()

	st.Build = Build()
	st.UptimeSec = time.Since(c.start).Seconds()
	st.QueueCap = c.opts.QueueDepth
	st.Replayed = c.replayed.Load()
	if c.jl != nil {
		js := c.jl.Stats()
		st.Journal = &JournalStatus{
			Path: c.jl.Path(), Appended: js.Appended, Pending: js.Pending,
			Replayed: st.Replayed, Corrupt: js.Corrupt, Errors: js.Errors,
		}
	}
	st.InFlightBytes, st.MaxInFlightBytes = c.inFlightBytes.Load(), c.opts.MaxInFlightBytes
	st.Accepted, st.Deduped = c.accepted.Load(), c.deduped.Load()
	st.Completed, st.Failed = c.completed.Load(), c.failed.Load()
	st.RejectedQueue, st.RejectedDrain = c.rejQueue.Load(), c.rejDrain.Load()
	st.RejectedBytes, st.Panics = c.rejBytes.Load(), c.panics.Load()
	return st
}
