package runner

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"gpushare/internal/checkpoint"
	"gpushare/internal/fault"
	"gpushare/internal/simerr"
	"gpushare/internal/stats"
)

// checkpointKeep is how many of a job's newest checkpoints the runner
// retains on disk: enough that a torn or corrupt newest snapshot still
// leaves valid fallbacks, without storing the whole trail.
const checkpointKeep = 3

// Options configures a Runner. The zero value is usable: GOMAXPROCS
// workers, memory cache only, no timeout, one retry for panics and
// timeouts.
type Options struct {
	// Workers bounds concurrent simulations in RunAll; 0 means
	// runtime.GOMAXPROCS(0), 1 executes strictly sequentially.
	Workers int
	// CacheDir enables the on-disk result store ("" disables it). The
	// directory is created on first write and is safe to share between
	// concurrent processes.
	CacheDir string
	// Timeout aborts a single simulation attempt after this long
	// (0 = no timeout). The attempt's context is canceled, so the
	// simulation itself stops within one cancellation stride of the
	// cycle loop; the discarded attempt does not keep a goroutine
	// running to MaxCycles.
	Timeout time.Duration
	// Retries is how many extra attempts a job that panicked or timed
	// out gets before being reported failed. Plain simulation errors
	// are deterministic and never retried. 0 means the default (1);
	// negative disables retries.
	Retries int
	// Verify re-checks functional outputs after fresh simulations.
	// Cached results were verified when first produced.
	Verify bool
	// Fingerprint overrides the simulator code fingerprint, used by
	// tests to model stale caches ("" = Fingerprint()).
	Fingerprint string
	// Progress, when non-nil, receives sweep progress lines from
	// RunAll: jobs done/total, cache hit rate, aggregate simulated
	// cycles per wall second, and an ETA.
	Progress func(string)
	// ProgressInterval is the reporting period (0 = 2s).
	ProgressInterval time.Duration
	// CheckpointDir enables crash-tolerant execution ("" disables):
	// each simulating job writes machine snapshots under
	// CheckpointDir/<key>/ every CheckpointStride cycles, a retried
	// attempt (panic or timeout) resumes from the newest valid snapshot
	// instead of cycle 0, and a successful job clears its snapshots.
	CheckpointDir string
	// CheckpointStride is the snapshot cadence in simulated cycles. It
	// overrides the per-job Config.CheckpointStride when positive; when
	// both are 0, jobs run without checkpoints even if CheckpointDir is
	// set.
	CheckpointStride int64
	// CheckpointFaults, when non-nil, arms crash-point fault injection
	// on every checkpoint sink the runner creates (durability tests
	// only): torn files and crashes between write and commit.
	CheckpointFaults *fault.Plan
}

// simOpts carries per-attempt execution knobs into the simulation entry
// point: functional verification, the checkpoint sink, the snapshot to
// resume from (nil = cycle 0), and the checkpoint stride override.
type simOpts struct {
	verify  bool
	sink    checkpoint.Sink
	restore []byte
	stride  int64
}

// Result is one job's outcome.
type Result struct {
	Job      Job
	Key      string
	Stats    *stats.GPU // nil when Err is set
	Tier     CacheTier  // where the result came from
	Attempts int        // simulation attempts (0 on a cache hit)
	Err      error
}

// Runner executes jobs through the two-tier cache with a worker pool.
// All methods are safe for concurrent use.
type Runner struct {
	opts  Options
	cache *store
	// simFn is the simulation entry point; tests substitute failing or
	// panicking implementations.
	simFn func(context.Context, Job, simOpts) (*stats.GPU, error)

	mu       sync.Mutex
	inflight map[string]*call
	failed   map[string]error // memory-only negative cache

	// Cumulative counters (atomics).
	done       int64
	memHits    int64
	diskHits   int64
	simulated  int64
	failures   int64
	canceled   int64
	simCycles  int64
	ckSaved    int64
	ckRestored int64

	progressMu sync.Mutex
	start      time.Time
}

// call is one in-flight execution, deduplicating concurrent requests
// for the same key (singleflight).
type call struct {
	doneCh chan struct{}
	res    Result
}

// New builds a runner.
func New(o Options) *Runner {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Retries == 0 {
		o.Retries = 1
	} else if o.Retries < 0 {
		o.Retries = 0
	}
	if o.Fingerprint == "" {
		o.Fingerprint = Fingerprint()
	}
	if o.ProgressInterval <= 0 {
		o.ProgressInterval = 2 * time.Second
	}
	return &Runner{
		opts:     o,
		cache:    newStore(o.CacheDir, o.Fingerprint),
		simFn:    simulate,
		inflight: make(map[string]*call),
		failed:   make(map[string]error),
		start:    time.Now(),
	}
}

// IsCanceled reports whether a job failure is a cancellation outcome —
// the caller's context ended or the simulation was aborted mid-run —
// rather than a real simulator failure. Cancellations are transient:
// they are never negative-cached, so resubmitting the same job after
// the pressure clears re-simulates it.
func IsCanceled(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return true
	}
	if se, ok := simerr.As(err); ok {
		return se.Kind == simerr.KindCanceled
	}
	return false
}

// RunJob executes one job (cached) and returns its statistics.
func (r *Runner) RunJob(j Job) (*stats.GPU, error) {
	res := r.Do(j)
	return res.Stats, res.Err
}

// Do executes one job through the cache and reports its provenance.
// Concurrent Do calls for the same job key share a single execution.
func (r *Runner) Do(j Job) Result { return r.DoCtx(context.Background(), j) }

// DoCtx is Do under a context: the context is propagated into the
// simulation's cycle loop, so cancellation or an expired deadline stops
// the attempt within one cancellation stride instead of letting it run
// to MaxCycles. A canceled job is not negative-cached and may be
// resubmitted. When a second caller joins an in-flight execution and
// its own context ends first, only the wait is abandoned — the leader's
// simulation continues under the leader's context.
func (r *Runner) DoCtx(ctx context.Context, j Job) Result {
	key, err := j.Key()
	if err != nil {
		return Result{Job: j, Err: err}
	}

	r.mu.Lock()
	if err, ok := r.failed[key]; ok {
		r.mu.Unlock()
		return Result{Job: j, Key: key, Err: err}
	}
	if c, ok := r.inflight[key]; ok {
		r.mu.Unlock()
		select {
		case <-c.doneCh:
			res := c.res
			res.Job = j
			return res
		case <-ctx.Done():
			return Result{Job: j, Key: key,
				Err: fmt.Errorf("job %s: %w", j, context.Cause(ctx))}
		}
	}
	c := &call{doneCh: make(chan struct{})}
	r.inflight[key] = c
	r.mu.Unlock()

	c.res = r.execute(ctx, j, key)
	close(c.doneCh)

	r.mu.Lock()
	delete(r.inflight, key)
	if c.res.Err != nil && !IsCanceled(c.res.Err) {
		r.failed[key] = c.res.Err
	}
	r.mu.Unlock()
	return c.res
}

// InFlight reports how many distinct job keys are currently executing.
// It is the queue-introspection hook gserved's status endpoints read.
func (r *Runner) InFlight() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.inflight)
}

// Lookup probes the two-tier cache for an already-computed result by
// key, without ever simulating. It lets a restarted daemon serve
// results produced by an earlier process from the shared disk store.
func (r *Runner) Lookup(key string) (*stats.GPU, CacheTier, bool) {
	g, tier := r.cache.get(key)
	if g == nil {
		return nil, Simulated, false
	}
	return g, tier, true
}

// RunAll executes every job through the worker pool, deduplicating by
// key, and returns one Result per input job in input order. Individual
// job failures are reported in their Result, not as an aggregate error:
// one diverging simulation cannot kill the sweep.
func (r *Runner) RunAll(jobs []Job) []Result {
	return r.RunAllCtx(context.Background(), jobs)
}

// RunAllCtx is RunAll under a context. Cancellation stops feeding the
// worker pool and aborts in-flight simulations within one cancellation
// stride; jobs that already completed keep their results (the sweep's
// partial output stays valid and cached), and jobs that never ran
// report the context's cancellation cause as their error.
func (r *Runner) RunAllCtx(ctx context.Context, jobs []Job) []Result {
	results := make([]Result, len(jobs))

	// Deduplicate so each distinct simulation is queued once; duplicate
	// indices are filled from the leader's result afterwards.
	leader := make(map[string]int, len(jobs))
	var queue []int
	for i, j := range jobs {
		key, err := j.Key()
		if err != nil {
			results[i] = Result{Job: j, Err: err}
			continue
		}
		results[i].Key = key
		if _, ok := leader[key]; !ok {
			leader[key] = i
			queue = append(queue, i)
		}
	}

	workers := r.opts.Workers
	if workers > len(queue) {
		workers = len(queue)
	}
	var completed int64
	stop := r.startReporter(int64(len(queue)), &completed)

	ch := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ch {
				results[i] = r.DoCtx(ctx, jobs[i])
				atomic.AddInt64(&completed, 1)
			}
		}()
	}
feed:
	for _, i := range queue {
		select {
		case ch <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(ch)
	wg.Wait()
	stop()

	// Leaders that were never dequeued after a cancellation report the
	// cause instead of silently returning an empty Result.
	for _, i := range queue {
		if results[i].Stats == nil && results[i].Err == nil {
			results[i].Err = fmt.Errorf("job %s: %w", jobs[i], context.Cause(ctx))
		}
	}

	for i := range jobs {
		if results[i].Stats != nil || results[i].Err != nil {
			continue
		}
		li := leader[results[i].Key]
		if li == i {
			continue
		}
		res := results[li]
		res.Job = jobs[i]
		results[i] = res
	}
	return results
}

// execute resolves one job: cache lookup, then simulation with panic
// capture, cancellation, timeout, and bounded retry.
func (r *Runner) execute(ctx context.Context, j Job, key string) Result {
	if g, tier := r.cache.get(key); g != nil {
		switch tier {
		case FromMemory:
			atomic.AddInt64(&r.memHits, 1)
		case FromDisk:
			atomic.AddInt64(&r.diskHits, 1)
		}
		atomic.AddInt64(&r.done, 1)
		return Result{Job: j, Key: key, Stats: g, Tier: tier}
	}

	sink, stride := r.checkpointSink(j, key)

	var lastErr error
	attempts := 0
	for attempts <= r.opts.Retries {
		if err := context.Cause(ctx); err != nil {
			if lastErr == nil {
				lastErr = err
			}
			break
		}
		attempts++
		so := simOpts{verify: r.opts.Verify, stride: stride}
		if sink != nil {
			so.sink = countingSink{s: sink, n: &r.ckSaved}
			// Resume from the newest valid snapshot whenever one exists —
			// on a retry after a crashed attempt, and on the very first
			// attempt when a previous *process* died mid-job (success
			// would have cleared the trail). A missing or fully corrupt
			// trail falls back to cycle 0.
			if _, blob, ok := sink.Latest(); ok {
				so.restore = blob
				atomic.AddInt64(&r.ckRestored, 1)
			}
		}
		g, err, retryable := r.attempt(ctx, j, so)
		if err == nil {
			if sink != nil {
				sink.Clear()
			}
			if cerr := r.cache.put(key, g); cerr != nil {
				// A failed cache write degrades to cache-miss behaviour;
				// the result itself is still good.
				lastErr = cerr
			}
			atomic.AddInt64(&r.simulated, 1)
			atomic.AddInt64(&r.simCycles, g.Cycles)
			atomic.AddInt64(&r.done, 1)
			return Result{Job: j, Key: key, Stats: g, Tier: Simulated, Attempts: attempts}
		}
		lastErr = err
		if so.restore != nil {
			if se, ok := simerr.As(err); ok && se.Kind == simerr.KindCheckpoint {
				// The snapshot we resumed from was unusable (e.g. stale
				// after a config change, or corrupt in a way Latest could
				// not detect). Drop the trail and retry cold from cycle 0
				// rather than fail the job — a checkpoint may never make an
				// outcome worse than not having one — and refund the
				// attempt: it was rejected at decode time, nothing ran.
				// This cannot loop: after Clear the next attempt resumes
				// nothing, so its failures are judged on their own terms.
				sink.Clear()
				retryable = true
				attempts--
			}
		}
		if !retryable {
			break
		}
	}
	if IsCanceled(lastErr) {
		atomic.AddInt64(&r.canceled, 1)
	} else {
		atomic.AddInt64(&r.failures, 1)
	}
	atomic.AddInt64(&r.done, 1)
	return Result{Job: j, Key: key, Attempts: attempts,
		Err: fmt.Errorf("job %s (%d attempt(s)): %w", j, attempts, lastErr)}
}

// checkpointSink builds the per-job checkpoint sink (nil when
// checkpointing is disabled) and resolves the effective stride: the
// runner-wide override when set, else the job's own configuration. A
// sink that cannot be created degrades to checkpoint-less execution —
// crash tolerance is an optimization, never a new failure mode.
func (r *Runner) checkpointSink(j Job, key string) (*checkpoint.DirSink, int64) {
	stride := r.opts.CheckpointStride
	if stride <= 0 {
		stride = j.Config.CheckpointStride
	}
	if r.opts.CheckpointDir == "" || stride <= 0 {
		return nil, stride
	}
	sink, err := checkpoint.NewDirSink(filepath.Join(r.opts.CheckpointDir, key), checkpointKeep)
	if err != nil {
		return nil, stride
	}
	sink.Faults = r.opts.CheckpointFaults
	return sink, stride
}

// countingSink counts durable snapshot writes for the runner's
// counters while delegating to the real sink.
type countingSink struct {
	s checkpoint.Sink
	n *int64
}

func (c countingSink) Put(cycle int64, blob []byte) error {
	if err := c.s.Put(cycle, blob); err != nil {
		return err
	}
	atomic.AddInt64(c.n, 1)
	return nil
}

// attempt runs one simulation attempt in its own goroutine, converting
// panics into errors and enforcing the per-attempt timeout through a
// derived context, so an abandoned attempt stops within one
// cancellation stride instead of simulating on. Only panics and
// timeouts are retryable; simulator errors and caller cancellations are
// not.
func (r *Runner) attempt(ctx context.Context, j Job, so simOpts) (g *stats.GPU, err error, retryable bool) {
	var cancel context.CancelFunc
	var actx context.Context
	if r.opts.Timeout > 0 {
		actx, cancel = context.WithTimeout(ctx, r.opts.Timeout)
	} else {
		actx, cancel = context.WithCancel(ctx)
	}
	defer cancel()

	type outcome struct {
		g        *stats.GPU
		err      error
		panicked bool
	}
	ch := make(chan outcome, 1)
	go func() {
		defer func() {
			if p := recover(); p != nil {
				// A typed *simerr.SimError thrown through panic (e.g.
				// kernel.MustBuild) is a deterministic simulator failure,
				// not a transient crash: surface it as-is, no retry.
				if perr, ok := p.(error); ok {
					if se, ok := simerr.As(perr); ok {
						ch <- outcome{err: se}
						return
					}
				}
				ch <- outcome{err: fmt.Errorf("simulation panicked: %v", p), panicked: true}
			}
		}()
		g, err := r.simFn(actx, j, so)
		ch <- outcome{g: g, err: err}
	}()

	select {
	case o := <-ch:
		if o.err != nil && IsCanceled(o.err) && ctx.Err() == nil {
			// The attempt observed its own per-attempt deadline, not the
			// caller's: report the retryable timeout.
			return nil, fmt.Errorf("timed out after %s", r.opts.Timeout), true
		}
		return o.g, o.err, o.panicked
	case <-actx.Done():
		if ctx.Err() != nil {
			// The caller's context ended: a cancellation, never retried.
			return nil, context.Cause(ctx), false
		}
		// Per-attempt timeout. cancel() has fired (deferred) or will on
		// return, stopping the in-flight attempt within one stride; its
		// eventual result lands in the buffered channel and is dropped.
		return nil, fmt.Errorf("timed out after %s", r.opts.Timeout), true
	}
}
