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
		case <-c.baseCtx.Done():
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
	eligible := func(j *fjob) bool {
		return j.state == JobQueued && !now.Before(j.notBefore)
	}

	c.mu.Lock()
	for {
		w := c.freeWorkerLocked()
		if w == nil {
			break
		}
		j := c.q.pop(eligible)
		if j == nil {
			break
		}
		if j.state != JobQueued {
			// A terminal result arrived (e.g. from a partitioned worker
			// that finished the job after it was requeued) while the
			// entry sat in the queue; nothing left to run.
			continue
		}
		c.startDispatchLocked(j, w)
	}

	var preempt *fjob
	var preemptCl *client.Client
	if !c.opts.NoPreemption {
		if p := c.q.peekPriority(eligible); p >= 0 {
			if victim := c.preemptVictimLocked(p); victim != nil {
				victim.preempting = true
				c.preemptions.Add(1)
				preempt = victim
				preemptCl = c.workers[victim.worker].cl
			}
		}
	}
	c.mu.Unlock()

	if preempt != nil {
		// Cancel on the worker outside the lock; the dispatch goroutine
		// observes the canceled terminal state and requeues. The
		// checkpoint trail survives cancellation, so the preempted job
		// resumes from its last checkpoint, not cycle 0.
		key := preempt.key
		cl := preemptCl
		go func() {
			ctx, cancel := context.WithTimeout(c.baseCtx, 10*time.Second)
			defer cancel()
			_, _ = cl.Cancel(ctx, key)
		}()
	}
}

// freeWorkerLocked picks the alive worker with the most spare slots
// (ties by id, so placement is deterministic), or nil when every slot
// is busy.
func (c *Coordinator) freeWorkerLocked() *worker {
	var best *worker
	for _, id := range workerNames(c.workers) {
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
			if j.preempting || j.state != JobDispatched || j.priority >= p {
				continue
			}
			if victim == nil || j.priority < victim.priority ||
				(j.priority == victim.priority && j.seq > victim.seq) {
				victim = j
			}
		}
	}
	return victim
}

// startDispatchLocked binds a job to a worker slot and launches the
// dispatch goroutine.
func (c *Coordinator) startDispatchLocked(j *fjob, w *worker) {
	ctx, cancel := context.WithCancel(c.baseCtx)
	j.state = JobDispatched
	j.worker = w.id
	j.cancelDispatch = cancel
	w.inflight[j.key] = j
	w.dispatched++
	go c.runDispatch(ctx, j, w)
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
	st, err := w.cl.Submit(ctx, j.req.SubmitRequest)
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
	if c.opts.Faults.Trip(fault.CrashAfterDispatch, 0, -1, -1, "dispatch of "+j.key+" to "+w.id) {
		c.HardStop()
		return
	}

	if !server.Terminal(st.State) {
		st, err = w.cl.Wait(ctx, j.key, 0)
		if err != nil {
			c.dispatchFailed(j, w, err)
			return
		}
	}
	switch st.State {
	case server.StateDone, server.StateFailed:
		c.finish(j, w, st)
	case server.StateCanceled:
		// Preemption, worker drain, or worker-side deadline: the work is
		// still owed. The checkpoint trail survives on disk, so the next
		// dispatch resumes rather than restarts.
		c.requeueFromWorker(j, w)
	default:
		c.dispatchFailed(j, w, fmt.Errorf("fleet: worker %s returned non-terminal state %q", w.id, st.State))
	}
}

// finish records a terminal result. The first terminal result wins:
// duplicate executions (a requeued job that a partitioned worker also
// finished) are byte-identical by simulator determinism, and every
// later arrival is dropped here, which is what makes results
// at-most-once even though dispatch is at-least-once.
func (c *Coordinator) finish(j *fjob, w *worker, st *server.JobStatus) {
	c.mu.Lock()
	if j.state == JobDone || j.state == JobFailed {
		c.mu.Unlock()
		return
	}
	delete(w.inflight, j.key)
	j.res = *st
	j.state = st.State
	j.preempting = false
	j.cancelDispatch = nil
	w.completed++
	// Counted before done closes: whoever is released by it may read
	// /statusz next.
	if st.State == server.StateDone {
		c.completed.Add(1)
	} else {
		c.failed.Add(1)
	}
	close(j.done)
	crashed := c.crashed
	c.mu.Unlock()

	if c.jl != nil && !crashed {
		_ = c.jl.Done(j.key)
	}
	c.signalSettled()
	c.kickScheduler()
}

// requeueFromWorker returns a dispatched job to the queue after the
// worker reported it canceled.
func (c *Coordinator) requeueFromWorker(j *fjob, w *worker) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(w.inflight, j.key)
	if j.state != JobDispatched || j.worker != w.id {
		return // markDead or a competing path already moved it
	}
	c.requeueLocked(j, j.preempting)
}

// dispatchFailed handles a dispatch attempt that never produced a
// terminal state: transport failure, worker shed, a held wait that
// broke. The job goes back to the queue with a short hold-down so a
// flapping worker cannot spin the scheduler.
func (c *Coordinator) dispatchFailed(j *fjob, w *worker, err error) {
	if c.baseCtx.Err() != nil {
		return // coordinator stopping; journal owns the job now
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(w.inflight, j.key)
	if j.state != JobDispatched || j.worker != w.id {
		return
	}
	var apiErr *client.APIError
	if errors.As(err, &apiErr) && !apiErr.Retryable() {
		// The worker deterministically rejected the submission (4xx).
		// The coordinator validated it identically at admission, so this
		// is a version skew or operator error, not transience: fail the
		// job honestly instead of requeuing forever.
		j.res = server.JobStatus{Key: j.key, State: server.StateFailed,
			Workload: j.req.Workload, Scale: j.req.Scale,
			Error: fmt.Sprintf("worker %s rejected job: %v", w.id, err)}
		j.state = JobFailed
		j.preempting = false
		j.cancelDispatch = nil
		c.failed.Add(1)
		close(j.done)
		if c.jl != nil && !c.crashed {
			_ = c.jl.Done(j.key)
		}
		c.signalSettled()
		return
	}
	j.notBefore = time.Now().Add(c.opts.ProbeInterval)
	c.requeueLocked(j, false)
	// The kick inside requeueLocked finds the job held down; this one
	// lands when the hold-down is over.
	time.AfterFunc(c.opts.ProbeInterval, c.kickScheduler)
}

// requeueLocked returns a job to the fair queue. preempted marks a
// requeue caused by deliberate preemption (counted separately).
func (c *Coordinator) requeueLocked(j *fjob, preempted bool) {
	j.state = JobQueued
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
	c.q.push(j)
	c.kickScheduler()
}

// probeLoop is the failure detector: every ProbeInterval it probes each
// registered worker's /readyz and applies the lease rules.
func (c *Coordinator) probeLoop() {
	defer c.wg.Done()
	tick := time.NewTicker(c.opts.ProbeInterval)
	defer tick.Stop()
	for {
		select {
		case <-c.baseCtx.Done():
			return
		case <-tick.C:
		}
		c.probeAll()
	}
}

// probeAll probes every worker concurrently and waits for the sweep.
func (c *Coordinator) probeAll() {
	c.mu.Lock()
	ws := make([]*worker, 0, len(c.workers))
	for _, id := range workerNames(c.workers) {
		ws = append(ws, c.workers[id])
	}
	c.mu.Unlock()

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
		c.mu.Lock()
		w.blackholed = true
		c.mu.Unlock()
	}
	c.mu.Lock()
	blackholed := w.blackholed
	cl := w.cl
	c.mu.Unlock()

	var st *server.ReadyzStatus
	var err error
	if blackholed {
		err = fmt.Errorf("fleet: probe blackholed (injected partition)")
	} else {
		ctx, cancel := context.WithTimeout(c.baseCtx, c.opts.ProbeInterval)
		st, err = cl.Ready(ctx)
		cancel()
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if err != nil {
		// Missed heartbeat. One miss is not death — the lease is. Only
		// when no probe or push heartbeat has landed for a full TTL does
		// the worker flip to dead and its jobs requeue.
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
	for key, j := range w.inflight {
		delete(w.inflight, key)
		if j.state != JobDispatched || j.worker != w.id {
			continue
		}
		c.requeueLocked(j, j.preempting)
	}
}

// heartbeat is the push half of failure detection: POST
// /v1/workers/{id}/heartbeat renews the lease without waiting for the
// next probe sweep, and revives a dead entry (the worker is plainly
// alive — it just called us).
func (c *Coordinator) heartbeat(id string) (*worker, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w, ok := c.workers[id]
	if !ok {
		return nil, false
	}
	w.leaseExpiry = time.Now().Add(c.opts.LeaseTTL)
	if w.state == WorkerDead {
		if w.pinnedDrain {
			w.state = WorkerDraining
		} else {
			w.state = WorkerAlive
		}
	}
	return w, true
}

// drainWorker marks a worker draining: its lease stays honored but no
// new jobs are placed on it. In-flight jobs are left to finish.
func (c *Coordinator) drainWorker(id string) (*worker, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
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
