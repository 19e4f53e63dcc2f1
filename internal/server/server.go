// Package server implements gserved: a long-lived HTTP/JSON daemon that
// exposes the internal/runner simulation farm to many concurrent
// clients and is engineered to degrade gracefully rather than fall
// over. The job lifecycle itself — registry, admission, journal, drain,
// the HTTP handlers — is Core (core.go, handlers.go), which gsched
// (internal/fleet) runs too, over a different Backend; this file is the
// local backend: a worker pool over the runner. The robustness
// machinery:
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
	"net/http"
	"runtime"
	"slices"
	"sync"
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
	// CoreOptions are the lifecycle settings shared with gsched.
	// QueueDepth here bounds admitted-but-unstarted jobs (0 = 64).
	CoreOptions
	// Workers bounds concurrent simulations (0 = GOMAXPROCS).
	Workers int
	// Runner configures the underlying simulation farm (cache
	// directory, per-attempt timeout, retries, verification, and —
	// via its CheckpointDir/CheckpointStride — crash-tolerant
	// mid-simulation checkpoints). Its Workers field is overridden by
	// Options.Workers.
	Runner runner.Options
	// CrashFaults, when non-nil, arms fleet crash-point injection on the
	// job execution path (fleet durability tests only): a
	// WorkerCrashMidJob plan makes the daemon Kill itself — an in-process
	// kill -9 analog — while the Nth dispatched job is running.
	CrashFaults *fault.Plan
}

// Server is the gserved daemon: the lifecycle Core over a FIFO queue
// and a worker pool that runs jobs on the local runner. Build one with
// New, mount Handler on an http.Server, and call Drain on shutdown.
type Server struct {
	*Core
	opts Options
	r    *runner.Runner

	// queue holds admitted-but-unstarted jobs in admission order (guarded
	// by Mu); work is signaled on every push and when admission closes.
	queue []*Job
	work  *sync.Cond
	// memAgg folds the per-partition memory counters of every job this
	// process simulated to completion (guarded by Mu); /statusz serves
	// it once the first contribution lands.
	memAgg MemStatus
	wg     sync.WaitGroup
}

// New builds the daemon, starts its worker pool and replays the journal.
func New(opts Options) (*Server, error) { return newServer(opts, HoldBound) }

// newServer is New with the ?wait= hold bound as an argument, so tests
// can watch a hold expire without waiting HoldBound.
func newServer(opts Options, holdBound time.Duration) (*Server, error) {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 64
	}
	opts.Runner.Workers = opts.Workers
	s := &Server{opts: opts, r: runner.New(opts.Runner)}
	core, err := NewCore("gserved", StateRunning, opts.CoreOptions, s, holdBound)
	if err != nil {
		return nil, err
	}
	s.Core = core
	s.work = sync.NewCond(&s.Mu)
	s.Handle("POST /v1/jobs/{key}/cancel", s.handleCancel)
	for w := 0; w < opts.Workers; w++ {
		s.wg.Add(1)
		go s.worker()
	}
	// Whatever a previous process accepted but never finished is owed
	// again.
	s.Replay()
	return s, nil
}

// Runner exposes the underlying farm (tests compare against direct
// sequential runs through it).
func (s *Server) Runner() *runner.Runner { return s.r }

// NewRequest, Lookup, Load, Enqueue, Wire, Statusz and Wait make Server
// the Core's local Backend.
func (s *Server) NewRequest() Request { return new(SubmitRequest) }

// Lookup probes the runner's memory and disk caches.
func (s *Server) Lookup(key string) (JobStatus, bool) {
	g, tier, ok := s.r.Lookup(key)
	return JobStatus{State: StateDone, Stats: g, Tier: tier.String()}, ok
}

// Load: only unstarted jobs wait and only they count against the bound;
// a running job already has its worker.
func (s *Server) Load() Load {
	return Load{Queued: len(s.queue), Bounded: len(s.queue), Parallel: s.opts.Workers}
}

func (s *Server) Enqueue(j *Job) {
	s.queue = append(s.queue, j)
	s.work.Signal()
}

func (s *Server) Wire(_ *Job, st JobStatus) any { return st }

// Wait wakes idle workers — admission is closed, so they run the queue
// dry and exit — and waits for them.
func (s *Server) Wait() {
	s.work.Broadcast()
	s.wg.Wait()
}

// Kill is Core.Kill plus the wake-up that lets the worker pool exit.
func (s *Server) Kill() {
	s.Core.Kill()
	s.work.Broadcast()
}

// worker executes queued jobs until admission is closed and the queue
// is empty.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		s.Mu.Lock()
		for len(s.queue) == 0 && !s.draining {
			s.work.Wait()
		}
		if len(s.queue) == 0 {
			s.Mu.Unlock()
			return
		}
		j := s.queue[0]
		s.queue = s.queue[1:]
		// The context is the daemon's plus the job's own deadline.
		var ctx context.Context
		var cancel context.CancelFunc
		if j.Deadline.IsZero() {
			ctx, cancel = context.WithCancel(s.Context())
		} else {
			ctx, cancel = context.WithDeadline(s.Context(), j.Deadline)
		}
		j.Ext = cancel // for cancelJob
		s.StartLocked(j)
		s.Mu.Unlock()
		s.runJob(ctx, j)
		cancel()
	}
}

// runJob executes one started job and publishes the terminal state.
func (s *Server) runJob(ctx context.Context, j *Job) {
	// Fleet crash point: the worker dies abruptly (kill -9 analog) while
	// this job is running — its journal accept stays pending, its
	// checkpoint trail survives, and the coordinator must requeue it.
	if s.opts.CrashFaults.Trip(fault.WorkerCrashMidJob, -1, -1, -1,
		"worker killed mid-job "+j.Key) {
		s.Kill()
	}

	res := s.r.DoCtx(ctx, j.Run)

	st := JobStatus{State: StateDone, Attempts: res.Attempts}
	switch {
	case res.Err == nil:
		st.Stats, st.Tier = res.Stats, res.Tier.String()
	case runner.IsCanceled(res.Err):
		st.State = StateCanceled
	default:
		st.State = StateFailed
	}
	if err := res.Err; err != nil {
		st.Error = err.Error()
		if se, ok := simerr.As(err); ok {
			st.ErrorKind = se.Kind.String()
			if se.Dump != nil {
				st.Diagnosis = se.Diagnosis()
			}
		}
	}
	s.Mu.Lock()
	if st.State == StateDone && res.Stats != nil && res.Tier == runner.Simulated {
		s.memAgg.add(res.Stats.MemParts)
	}
	s.Mu.Unlock()
	s.Publish(j, st, res.Err)
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

// Base and Build make *SubmitRequest gserved's Request.
func (r *SubmitRequest) Base() *SubmitRequest               { return r }
func (r *SubmitRequest) Build() (runner.Job, string, error) { return BuildJob(r) }

// cancelJob aborts one job by key: a queued job leaves the queue and
// turns canceled without ever running, a running job's context is
// canceled so it stops within one cancellation stride, and a terminal
// job is left untouched. The job's journal accept and checkpoint trail
// deliberately survive — cancellation means "stop computing here", not
// "the work is no longer owed" — which is exactly what the fleet
// coordinator's preemption needs: the preempted job resumes from its
// trail on any worker sharing the checkpoint directory. The second
// return is false when the key is unknown.
func (s *Server) cancelJob(key string) (*Job, bool) {
	s.Mu.Lock()
	j, ok := s.jobs[key]
	if !ok {
		s.Mu.Unlock()
		return nil, false
	}
	cancel, running := j.Ext.(context.CancelFunc)
	queued := j.State == StateQueued
	if queued {
		s.queue = slices.DeleteFunc(s.queue, func(q *Job) bool { return q == j })
	}
	s.Mu.Unlock()
	switch {
	case queued:
		s.Publish(j, JobStatus{State: StateCanceled,
			Error: fmt.Sprintf("job %s: %v", j.Run, context.Canceled)}, context.Canceled)
	case running:
		cancel()
	}
	return j, true
}

// handleCancel is POST /v1/jobs/{key}/cancel: abort a queued or running
// job. The response reports the job's state at the moment of the call —
// a running job stops within one cancellation stride, so callers wait
// (GET ?wait=) until it reads canceled. Cancellation keeps the job's journal accept
// and checkpoint trail: it means "stop computing here", and the fleet
// coordinator uses it to preempt, requeue, and later resume jobs.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.cancelJob(r.PathValue("key"))
	if !ok {
		NotFound(w, "job key", r.PathValue("key"))
		return
	}
	s.writeView(w, http.StatusOK, j, false)
}

// Statusz renders gserved's GET /statusz.
func (s *Server) Statusz(cs CoreStatus) any {
	st := Statusz{CoreStatus: cs, Workers: s.opts.Workers, InFlight: s.r.InFlight(), Runner: s.r.Counters()}
	s.Mu.Lock()
	if mem := s.memAgg; mem.Jobs > 0 {
		st.Mem = &mem
	}
	s.Mu.Unlock()
	return st
}
