package fleet

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"gpushare/internal/client"
	"gpushare/internal/fault"
	"gpushare/internal/server"
)

// schedulerLoop drains the fair queue onto free worker slots. It wakes
// only on kicks: admission, completion, requeue, registration, a probe
// sweep, and the expiry of a dispatch hold-down (dispatchFailed). An
// idle coordinator does not wake at all.
func (c *Coordinator) schedulerLoop() {
	defer c.wg.Done()
	for {
		select {
		case <-c.Context().Done():
			return
		case <-c.kick:
		}
		c.scheduleOnce()
	}
}

// scheduleOnce makes one pass: dispatch queued jobs onto free slots,
// then — when the queue still holds something that outranks a running
// job and no slot is free — initiate one preemption.
func (c *Coordinator) scheduleOnce() {
	now := time.Now()
	due := func(j *fjob) bool { return !now.Before(j.notBefore) }

	c.Mu.Lock()
	defer c.Mu.Unlock()
	for {
		w := c.freeWorkerLocked()
		if w == nil {
			break
		}
		j := c.q.pop(due)
		if j == nil {
			break
		}
		if j.State != JobQueued {
			// A terminal result arrived (e.g. from a partitioned worker
			// that finished the job after it was requeued) while the
			// entry sat in the queue; nothing left to run.
			continue
		}
		ctx, cancel := context.WithCancel(c.Context())
		c.bindLocked(j, w, cancel)
		go c.runDispatch(ctx, j, w)
	}
	if c.opts.NoPreemption {
		return
	}
	p := c.q.peekPriority(func(j *fjob) bool { return j.State == JobQueued && due(j) })
	victim := c.preemptVictimLocked(p)
	if victim == nil {
		return
	}
	victim.preempting = true
	c.preemptions.Add(1)
	// Cancel on the worker outside the lock; the dispatch goroutine
	// observes the canceled terminal state and requeues. The checkpoint
	// trail survives cancellation, so the preempted job resumes from its
	// last checkpoint, not cycle 0.
	key, cl := victim.Key, c.workers[victim.worker].cl
	go func() {
		ctx, cancel := context.WithTimeout(c.Context(), 10*time.Second)
		defer cancel()
		_, _ = cl.Cancel(ctx, key)
	}()
}

// freeWorkerLocked picks the alive worker with the most spare slots
// (ties by id, so placement is deterministic), or nil when every slot
// is busy.
func (c *Coordinator) freeWorkerLocked() *worker {
	var best *worker
	for _, id := range sortedKeys(c.workers) {
		w := c.workers[id]
		if w.state != WorkerAlive || len(w.inflight) >= w.slots {
			continue
		}
		if best == nil || w.slots-len(w.inflight) > best.slots-len(best.inflight) {
			best = w
		}
	}
	return best
}

// preemptVictimLocked returns the running job most worth displacing for
// a queued job of priority p: the lowest-priority dispatched job
// strictly below p that is not already being preempted. Among equals,
// the most recently admitted yields first (LIFO — the oldest work keeps
// its progress).
func (c *Coordinator) preemptVictimLocked(p int) *fjob {
	var victim *fjob
	for _, w := range c.workers {
		if w.state != WorkerAlive {
			continue
		}
		for _, j := range w.inflight {
			if j.preempting || j.State != JobDispatched || j.priority >= p {
				continue
			}
			if victim == nil || j.priority < victim.priority ||
				(j.priority == victim.priority && j.Seq > victim.Seq) {
				victim = j
			}
		}
	}
	return victim
}

// bindLocked binds a job to a worker slot: the bookkeeping half of a
// dispatch, runDispatch being the other.
func (c *Coordinator) bindLocked(j *fjob, w *worker, cancel context.CancelFunc) {
	c.StartLocked(j.Job)
	j.worker = w.id
	j.cancelDispatch = cancel
	w.inflight[j.Key] = j
	w.dispatched++
}

// runDispatch drives one dispatch attempt end to end: submit, crash
// point, held wait to terminal, record. The wait is the worker's GET
// ?wait= (client.Wait): it returns one round trip after the worker
// finishes, cancels, or drains the job, and cancelDispatch (lease
// expiry, requeue) aborts it mid-hold. Dispatch is at-least-once — the
// worker deduplicates by content key, so re-sending a job it already
// holds (after a coordinator restart, or a requeue race) joins the
// existing run or returns the cached result.
func (c *Coordinator) runDispatch(ctx context.Context, j *fjob, w *worker) {
	// The deadline was stamped once, at admission; each dispatch forwards
	// what is left of it, so requeues cannot extend the budget.
	req := j.Req.(*SubmitRequest).SubmitRequest
	if !j.Deadline.IsZero() {
		left := time.Until(j.Deadline)
		if left <= 0 {
			c.expire(j, w, fmt.Sprintf("job %s: deadline passed before dispatch", j.Run))
			return
		}
		// Rounded up: a worker that ran out a truncated budget would
		// report canceled before j.Deadline, and settle would requeue the
		// job instead of expiring it.
		req.DeadlineMillis = max((left + time.Millisecond - 1).Milliseconds(), 1)
	}
	st, err := w.cl.Submit(ctx, req)
	if err != nil {
		c.dispatchFailed(j, w, err)
		return
	}

	// Crash point: the coordinator dies after the worker durably
	// accepted the job but before this process records anything about
	// it. On restart the journal replays the admission, the job is
	// re-dispatched, and the worker's dedup makes the second submit
	// harmless — this is the at-least-once half of the
	// exactly-once-results argument, exercised directly.
	if c.opts.Faults.Trip(fault.CrashAfterDispatch, 0, -1, -1, "dispatch of "+j.Key+" to "+w.id) {
		c.Kill()
		return
	}

	if !server.Terminal(st.State) {
		st, err = w.cl.Wait(ctx, j.Key, 0)
		if err != nil {
			c.dispatchFailed(j, w, err)
			return
		}
	}
	c.settle(j, w, st, time.Now())
}

// settle acts on the state a worker reported for a dispatch.
func (c *Coordinator) settle(j *fjob, w *worker, st *server.JobStatus, now time.Time) {
	switch {
	case st.State == server.StateDone || st.State == server.StateFailed:
		c.finish(j, w, *st)
	case st.State != server.StateCanceled:
		c.dispatchFailed(j, w, fmt.Errorf("fleet: worker %s returned non-terminal state %q", w.id, st.State))
	case !j.Deadline.IsZero() && !now.Before(j.Deadline):
		// The worker ran the job's own budget out. Requeueing it would
		// only run it out again.
		c.expire(j, w, st.Error)
	default:
		// Preemption or worker drain: the work is still owed. The
		// checkpoint trail survives on disk, so the next dispatch resumes
		// rather than restarts.
		c.Mu.Lock()
		if c.releaseLocked(j, w) {
			c.requeueLocked(j, j.preempting)
		}
		c.Mu.Unlock()
	}
}

// releaseLocked takes a dispatch off its worker and reports whether the job
// is still that dispatch's to settle (markDead or a competing path may
// have moved it already).
func (c *Coordinator) releaseLocked(j *fjob, w *worker) bool {
	if w.inflight[j.Key] == j { // not a resubmission of a canceled key: that is another job
		delete(w.inflight, j.Key)
	}
	return j.State == JobDispatched && j.worker == w.id
}

// finish publishes a worker's terminal result (server.Core.Publish: the
// first one wins) and frees the slot.
func (c *Coordinator) finish(j *fjob, w *worker, st server.JobStatus) {
	c.Mu.Lock()
	c.releaseLocked(j, w)
	if !server.Terminal(j.State) {
		w.completed++ // counted before done closes: a released waiter may read /v1/workers next
	}
	j.preempting, j.cancelDispatch = false, nil
	c.Mu.Unlock()
	c.Publish(j.Job, st, nil)
	c.kickScheduler()
}

// expire ends a job whose deadline passed as terminal canceled, under
// gserved's rule: POST ?wait=1 answers 503 canceled, the entry is
// transient (a resubmission re-admits) and the journal accept stays
// pending.
func (c *Coordinator) expire(j *fjob, w *worker, msg string) {
	c.Mu.Lock()
	mine := c.releaseLocked(j, w)
	c.Mu.Unlock()
	if mine {
		c.Publish(j.Job, server.JobStatus{State: server.StateCanceled, Error: msg}, nil)
		c.kickScheduler()
	}
}

// dispatchFailed handles a dispatch attempt that never produced a
// terminal state: transport failure, worker shed, a held wait that
// broke. The job goes back to the queue with a short hold-down so a
// flapping worker cannot spin the scheduler.
func (c *Coordinator) dispatchFailed(j *fjob, w *worker, err error) {
	if c.Context().Err() != nil {
		return // coordinator stopping; journal owns the job now
	}
	c.Mu.Lock()
	if !c.releaseLocked(j, w) {
		c.Mu.Unlock()
		return
	}
	var apiErr *client.APIError
	if errors.As(err, &apiErr) && !apiErr.Retryable() {
		// The worker deterministically rejected the submission (4xx).
		// The coordinator validated it identically at admission, so this
		// is a version skew or operator error, not transience: fail the
		// job honestly instead of requeuing forever.
		j.preempting, j.cancelDispatch = false, nil
		c.Mu.Unlock()
		c.Publish(j.Job, server.JobStatus{State: server.StateFailed,
			Error: fmt.Sprintf("worker %s rejected job: %v", w.id, err)}, nil)
		return
	}
	j.notBefore = time.Now().Add(c.opts.ProbeInterval)
	c.requeueLocked(j, false)
	c.Mu.Unlock()
	// The kick inside requeueLocked finds the job held down; this one
	// lands when the hold-down is over.
	time.AfterFunc(c.opts.ProbeInterval, c.kickScheduler)
}

// requeueLocked returns a job to the fair queue. preempted marks a
// requeue caused by deliberate preemption (counted separately).
func (c *Coordinator) requeueLocked(j *fjob, preempted bool) {
	j.worker = ""
	j.requeues++
	c.requeues.Add(1)
	if preempted {
		j.preemptions++
	}
	j.preempting = false
	if j.cancelDispatch != nil {
		j.cancelDispatch()
		j.cancelDispatch = nil
	}
	c.RequeueLocked(j.Job)
}

// probeLoop is the failure detector: every ProbeInterval it probes each
// registered worker's /readyz and applies the lease rules.
func (c *Coordinator) probeLoop() {
	defer c.wg.Done()
	tick := time.NewTicker(c.opts.ProbeInterval)
	defer tick.Stop()
	for {
		select {
		case <-c.Context().Done():
			return
		case <-tick.C:
		}
		c.probeAll()
	}
}

// probeAll probes every worker concurrently and waits for the sweep.
func (c *Coordinator) probeAll() {
	c.Mu.Lock()
	ws := make([]*worker, 0, len(c.workers))
	for _, id := range sortedKeys(c.workers) {
		ws = append(ws, c.workers[id])
	}
	c.Mu.Unlock()

	var wg sync.WaitGroup
	for _, w := range ws {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			c.probe(w)
		}(w)
	}
	wg.Wait()
	c.kickScheduler()
}

// probe runs one heartbeat probe against one worker and applies the
// lease state machine.
func (c *Coordinator) probe(w *worker) {
	// Crash point: a partition. The worker stays alive and keeps
	// computing, but from this probe on the coordinator never hears from
	// it — the flag is sticky, emulating a cut cable rather than one
	// dropped packet.
	if c.opts.Faults.Trip(fault.HeartbeatBlackhole, 0, -1, -1, "probe of "+w.id) {
		c.Mu.Lock()
		w.blackholed = true
		c.Mu.Unlock()
	}
	c.Mu.Lock()
	blackholed := w.blackholed
	cl := w.cl
	c.Mu.Unlock()

	var st *server.ReadyzStatus
	var err error
	if blackholed {
		err = fmt.Errorf("fleet: probe blackholed (injected partition)")
	} else {
		ctx, cancel := context.WithTimeout(c.Context(), c.opts.ProbeInterval)
		st, err = cl.Ready(ctx)
		cancel()
	}

	c.Mu.Lock()
	defer c.Mu.Unlock()
	if err != nil {
		// Missed heartbeat. One miss is not death — the lease is. Only
		// when no probe has landed for a full TTL does the worker flip to
		// dead and its jobs requeue.
		if time.Now().After(w.leaseExpiry) {
			c.markDeadLocked(w)
		}
		return
	}
	// Any parsed readyz body renews the lease — the process answered —
	// except the "dead" state, which is the worker itself reporting that
	// its executor is gone (in-process kill): its jobs will never
	// finish, so treat it exactly like a silent death.
	switch st.State {
	case server.ReadyDead:
		c.markDeadLocked(w)
	case server.ReadyDraining:
		w.leaseExpiry = time.Now().Add(c.opts.LeaseTTL)
		if w.state == WorkerAlive {
			w.state = WorkerDraining
		}
	default:
		// ready or queue-full: alive and worth dispatching to (a full
		// queue sheds with Retry-After; the dispatch path backs off).
		w.leaseExpiry = time.Now().Add(c.opts.LeaseTTL)
		switch {
		case w.pinnedDrain:
			// An operator drained this worker on the coordinator; a
			// healthy probe must not quietly undo that decision.
			if w.state != WorkerDraining {
				w.state = WorkerDraining
			}
		case w.state != WorkerAlive:
			// Revival: a dead or draining worker is answering ready
			// again (restart, healed partition, drain abandoned). It
			// rejoins with a fresh lease; any jobs it finished while
			// written off are deduplicated by content key.
			w.state = WorkerAlive
		}
	}
}

// markDeadLocked declares a worker dead and requeues everything it
// held. Requeue, not fail: dispatch is at-least-once, and the jobs'
// checkpoint trails (on the shared checkpoint directory) let any other
// worker resume them from the last checkpoint.
func (c *Coordinator) markDeadLocked(w *worker) {
	if w.state == WorkerDead {
		return
	}
	w.state = WorkerDead
	w.deaths++
	c.workerDeaths.Add(1)
	for _, j := range w.inflight {
		if c.releaseLocked(j, w) {
			c.requeueLocked(j, j.preempting)
		}
	}
}

// drainWorker marks a worker draining: its lease stays honored but no
// new jobs are placed on it. In-flight jobs are left to finish.
func (c *Coordinator) drainWorker(id string) (*worker, bool) {
	c.Mu.Lock()
	defer c.Mu.Unlock()
	w, ok := c.workers[id]
	if !ok {
		return nil, false
	}
	w.pinnedDrain = true
	if w.state == WorkerAlive {
		w.state = WorkerDraining
	}
	return w, true
}
