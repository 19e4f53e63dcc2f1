package runner

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gpushare/internal/checkpoint"
	"gpushare/internal/config"
	"gpushare/internal/fault"
	"gpushare/internal/stats"
)

// cheapJob returns the fastest-simulating job in the suite (gaussian
// at scale 1) with an optional configuration tweak.
func cheapJob(mut func(*config.Config)) Job {
	cfg := config.Default()
	if mut != nil {
		mut(&cfg)
	}
	return Job{Workload: "gaussian", Config: cfg, Scale: 1}
}

func TestJobKeyStable(t *testing.T) {
	a := cheapJob(nil)
	b := cheapJob(nil)
	ka, err := a.Key()
	if err != nil {
		t.Fatal(err)
	}
	kb, err := b.Key()
	if err != nil {
		t.Fatal(err)
	}
	if ka != kb {
		t.Fatalf("identical jobs produced different keys: %s vs %s", ka, kb)
	}
	if len(ka) != 64 {
		t.Fatalf("key is not a hex sha256: %q", ka)
	}

	c := cheapJob(func(c *config.Config) { c.Sched = config.SchedGTO })
	kc, _ := c.Key()
	if kc == ka {
		t.Fatal("different configurations share a key")
	}
	d := cheapJob(nil)
	d.Scale = 2
	kd, _ := d.Key()
	if kd == ka {
		t.Fatal("different scales share a key")
	}
	e := cheapJob(nil)
	e.Workload = "NN"
	ke, _ := e.Key()
	if ke == ka {
		t.Fatal("different workloads share a key")
	}
}

// TestDeterministicAcrossParallelism is the runner's core guarantee:
// the same job simulated twice — and simulated under an 8-worker pool
// with duplicated entries — yields byte-identical serialized statistics.
func TestDeterministicAcrossParallelism(t *testing.T) {
	jobs := []Job{
		cheapJob(nil),
		cheapJob(func(c *config.Config) { c.Sched = config.SchedGTO }),
	}

	// Two independent sequential simulations of the same key.
	var seq [][]byte
	for run := 0; run < 2; run++ {
		r := New(Options{Workers: 1})
		g, err := r.RunJob(jobs[0])
		if err != nil {
			t.Fatal(err)
		}
		b, err := g.EncodeJSON()
		if err != nil {
			t.Fatal(err)
		}
		seq = append(seq, b)
	}
	if !bytes.Equal(seq[0], seq[1]) {
		t.Fatal("two sequential runs of the same job differ byte-for-byte")
	}

	// An 8-worker sweep over the jobs duplicated 4x each.
	var dup []Job
	for i := 0; i < 4; i++ {
		dup = append(dup, jobs...)
	}
	r := New(Options{Workers: 8})
	results := r.RunAll(dup)
	if len(results) != len(dup) {
		t.Fatalf("got %d results for %d jobs", len(results), len(dup))
	}
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("job %d: %v", i, res.Err)
		}
		b, err := res.Stats.EncodeJSON()
		if err != nil {
			t.Fatal(err)
		}
		if i%len(jobs) == 0 && !bytes.Equal(b, seq[0]) {
			t.Fatalf("parallel result %d differs from the sequential run", i)
		}
	}
	c := r.Counters()
	if c.Simulated != int64(len(jobs)) {
		t.Fatalf("deduplication failed: %d simulations for %d distinct jobs", c.Simulated, len(jobs))
	}
}

func TestDiskCacheRoundTrip(t *testing.T) {
	dir := t.TempDir()
	job := cheapJob(nil)

	r1 := New(Options{Workers: 1, CacheDir: dir})
	res1 := r1.Do(job)
	if res1.Err != nil {
		t.Fatal(res1.Err)
	}
	if res1.Tier != Simulated {
		t.Fatalf("first run tier = %s, want simulated", res1.Tier)
	}

	// A fresh runner (cold memory cache) must hit the disk store and
	// return byte-identical statistics.
	r2 := New(Options{Workers: 1, CacheDir: dir})
	res2 := r2.Do(job)
	if res2.Err != nil {
		t.Fatal(res2.Err)
	}
	if res2.Tier != FromDisk {
		t.Fatalf("second process tier = %s, want disk-cache", res2.Tier)
	}
	b1, _ := res1.Stats.EncodeJSON()
	b2, _ := res2.Stats.EncodeJSON()
	if !bytes.Equal(b1, b2) {
		t.Fatal("disk-cached statistics differ from the simulated ones")
	}

	// Same runner again: now a memory hit.
	if res3 := r2.Do(job); res3.Tier != FromMemory {
		t.Fatalf("third lookup tier = %s, want memory-cache", res3.Tier)
	}
}

func TestCorruptCacheEntryIsResimulated(t *testing.T) {
	dir := t.TempDir()
	job := cheapJob(nil)
	key, _ := job.Key()

	r1 := New(Options{Workers: 1, CacheDir: dir})
	if res := r1.Do(job); res.Err != nil {
		t.Fatal(res.Err)
	}
	path := filepath.Join(dir, storeVersion, key[:2], key+".json")
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("cache entry not written: %v", err)
	}

	corruptions := map[string]func([]byte) []byte{
		"truncated": func(b []byte) []byte { return b[:len(b)/2] },
		"bit-flip":  func(b []byte) []byte { b[len(b)/2] ^= 0x40; return b },
		"not-json":  func([]byte) []byte { return []byte("junk") },
		"wrong-sum": func(b []byte) []byte {
			return bytes.Replace(b, []byte(`"sum":"`), []byte(`"sum":"00`), 1)
		},
	}
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			good, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, corrupt(append([]byte(nil), good...)), 0o644); err != nil {
				t.Fatal(err)
			}
			r := New(Options{Workers: 1, CacheDir: dir})
			res := r.Do(job)
			if res.Err != nil {
				t.Fatal(res.Err)
			}
			if res.Tier != Simulated {
				t.Fatalf("corrupt entry served from %s instead of being re-simulated", res.Tier)
			}
			if _, err := os.ReadFile(path); err != nil {
				t.Fatalf("re-simulation did not rewrite the entry: %v", err)
			}
		})
	}
}

func TestStaleFingerprintIsResimulated(t *testing.T) {
	dir := t.TempDir()
	job := cheapJob(nil)

	old := New(Options{Workers: 1, CacheDir: dir, Fingerprint: "sim-v0+deadbeef"})
	if res := old.Do(job); res.Err != nil {
		t.Fatal(res.Err)
	}

	cur := New(Options{Workers: 1, CacheDir: dir})
	res := cur.Do(job)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Tier != Simulated {
		t.Fatalf("stale-fingerprint entry trusted (tier %s)", res.Tier)
	}

	// And the rewritten entry now carries the current fingerprint.
	cur2 := New(Options{Workers: 1, CacheDir: dir})
	if res := cur2.Do(job); res.Tier != FromDisk {
		t.Fatalf("rewritten entry not served from disk (tier %s)", res.Tier)
	}
}

// TestDirtyFingerprintNamesTheBinary: two uncommitted builds at one
// revision are different simulators, so their fingerprints differ by
// their executables' digests; a clean build's fingerprint ignores it.
func TestDirtyFingerprintNamesTheBinary(t *testing.T) {
	if fingerprint("sim-v9", "abc", true, "1111") == fingerprint("sim-v9", "abc", true, "2222") {
		t.Error("two dirty builds with different executables share a fingerprint")
	}
	for _, exe := range []string{"1111", "2222"} {
		if fp := fingerprint("sim-v9", "abc", false, exe); fp != "sim-v9+abc" {
			t.Errorf("clean build with executable %s: fingerprint %q, want sim-v9+abc", exe, fp)
		}
	}
	if d := executableDigest(); d == "" || d != executableDigest() {
		t.Errorf("executable digest %q is empty or not stable within a process", d)
	}
}

// TestPanicIsolation: a panicking simulation fails its own job with a
// captured error and leaves the rest of the sweep intact.
func TestPanicIsolation(t *testing.T) {
	bad := cheapJob(func(c *config.Config) { c.Seed = 1 })
	badKey, _ := bad.Key()

	r := New(Options{Workers: 4, Retries: -1})
	real := r.simFn
	var calls int64
	r.simFn = func(ctx context.Context, j Job, so simOpts) (*stats.GPU, error) {
		if k, _ := j.Key(); k == badKey {
			atomic.AddInt64(&calls, 1)
			panic("diverging simulation")
		}
		return real(ctx, j, so)
	}

	jobs := []Job{cheapJob(nil), bad, cheapJob(func(c *config.Config) { c.Sched = config.SchedGTO })}
	results := r.RunAll(jobs)
	if results[1].Err == nil {
		t.Fatal("panicking job reported success")
	}
	if results[0].Err != nil || results[2].Err != nil {
		t.Fatalf("panic killed healthy jobs: %v, %v", results[0].Err, results[2].Err)
	}
	// The failure is remembered: asking again must not re-simulate.
	if res := r.Do(bad); res.Err == nil {
		t.Fatal("failure not cached")
	}
	if got := atomic.LoadInt64(&calls); got != 1 {
		t.Fatalf("failed job simulated %d times, want 1", got)
	}
}

func TestPanicRetry(t *testing.T) {
	r := New(Options{Workers: 1}) // default: 1 retry
	real := r.simFn
	var calls int64
	r.simFn = func(ctx context.Context, j Job, so simOpts) (*stats.GPU, error) {
		if atomic.AddInt64(&calls, 1) == 1 {
			panic("transient")
		}
		return real(ctx, j, so)
	}
	res := r.Do(cheapJob(nil))
	if res.Err != nil {
		t.Fatalf("retry did not recover: %v", res.Err)
	}
	if res.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2", res.Attempts)
	}
}

func TestPlainErrorIsNotRetried(t *testing.T) {
	r := New(Options{Workers: 1})
	var calls int64
	r.simFn = func(context.Context, Job, simOpts) (*stats.GPU, error) {
		atomic.AddInt64(&calls, 1)
		return nil, os.ErrInvalid
	}
	if res := r.Do(cheapJob(nil)); res.Err == nil {
		t.Fatal("error swallowed")
	}
	if calls != 1 {
		t.Fatalf("deterministic error retried: %d calls", calls)
	}
}

func TestTimeout(t *testing.T) {
	r := New(Options{Workers: 1, Timeout: 10 * time.Millisecond, Retries: -1})
	release := make(chan struct{})
	r.simFn = func(context.Context, Job, simOpts) (*stats.GPU, error) {
		<-release
		return &stats.GPU{}, nil
	}
	res := r.Do(cheapJob(nil))
	close(release)
	if res.Err == nil {
		t.Fatal("timed-out job reported success")
	}
}

// TestSingleflight: concurrent requests for one key share a single
// simulation.
func TestSingleflight(t *testing.T) {
	r := New(Options{Workers: 8})
	real := r.simFn
	var calls int64
	gate := make(chan struct{})
	r.simFn = func(ctx context.Context, j Job, so simOpts) (*stats.GPU, error) {
		atomic.AddInt64(&calls, 1)
		<-gate
		return real(ctx, j, so)
	}
	job := cheapJob(nil)
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = r.Do(job).Err
		}(i)
	}
	time.Sleep(20 * time.Millisecond) // let every goroutine reach Do
	close(gate)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if calls != 1 {
		t.Fatalf("%d simulations for one key under concurrent Do", calls)
	}
}

func TestMemoryLRUEviction(t *testing.T) {
	s := newStore("", "fp")
	s.cap = 2
	a, b, c := &stats.GPU{Cycles: 1}, &stats.GPU{Cycles: 2}, &stats.GPU{Cycles: 3}
	s.putMem("a", a)
	s.putMem("b", b)
	if g, _ := s.get("a"); g != a { // touch a: b becomes the eviction victim
		t.Fatal("miss on resident entry")
	}
	s.putMem("c", c)
	if g, _ := s.get("b"); g != nil {
		t.Fatal("LRU kept the least recently used entry")
	}
	if g, _ := s.get("a"); g != a {
		t.Fatal("LRU evicted the recently used entry")
	}
	if g, _ := s.get("c"); g != c {
		t.Fatal("newest entry missing")
	}
}

func TestProgressReporting(t *testing.T) {
	var mu sync.Mutex
	var lines []string
	r := New(Options{
		Workers:          4,
		Progress:         func(l string) { mu.Lock(); lines = append(lines, l); mu.Unlock() },
		ProgressInterval: time.Millisecond,
	})
	r.simFn = func(context.Context, Job, simOpts) (*stats.GPU, error) {
		time.Sleep(5 * time.Millisecond)
		return &stats.GPU{Cycles: 100}, nil
	}
	jobs := []Job{
		cheapJob(nil),
		cheapJob(func(c *config.Config) { c.Sched = config.SchedGTO }),
		cheapJob(func(c *config.Config) { c.Sched = config.SchedOWF }),
	}
	r.RunAll(jobs)
	mu.Lock()
	defer mu.Unlock()
	if len(lines) == 0 {
		t.Fatal("no progress lines emitted")
	}
	final := lines[len(lines)-1]
	if want := "jobs 3/3"; !bytes.Contains([]byte(final), []byte(want)) {
		t.Fatalf("final progress line %q missing %q", final, want)
	}
}

func TestCountersAndHitRate(t *testing.T) {
	r := New(Options{Workers: 1})
	job := cheapJob(nil)
	if res := r.Do(job); res.Err != nil {
		t.Fatal(res.Err)
	}
	r.Do(job)
	r.Do(job)
	c := r.Counters()
	if c.Simulated != 1 || c.MemHits != 2 || c.Done != 3 {
		t.Fatalf("counters = %+v, want 1 simulated / 2 mem hits / 3 done", c)
	}
	if got := c.HitRate(); got < 0.66 || got > 0.67 {
		t.Fatalf("hit rate = %v, want 2/3", got)
	}
	if c.SimCycles == 0 {
		t.Fatal("no simulated cycles recorded")
	}
}

// TestCheckpointCrashRecovery injects the two crash-point faults into a
// checkpointing runner and asserts the contract end to end: the crashed
// attempt is retried, the retry resumes from the newest valid snapshot
// (not cycle 0), the recovered statistics are byte-identical to a clean
// run, and the snapshot trail is cleared once the job succeeds.
func TestCheckpointCrashRecovery(t *testing.T) {
	job := cheapJob(nil)
	clean := New(Options{Workers: 1})
	ref, err := clean.RunJob(job)
	if err != nil {
		t.Fatal(err)
	}
	refJSON, err := ref.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	stride := ref.Cycles / 4
	if stride < 1 {
		stride = 1
	}
	key, err := job.Key()
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		kind fault.Kind
	}{
		// Crash right after the second snapshot commits: recovery must
		// resume from that snapshot.
		{"crash-after-checkpoint", fault.CrashAfterCheckpoint},
		// Tear the second snapshot's file mid-crash: recovery must
		// discard it and resume from the first.
		{"torn-checkpoint", fault.TornCheckpoint},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			plan := &fault.Plan{Kind: tc.kind, Nth: 2}
			r := New(Options{
				Workers:          1,
				CheckpointDir:    dir,
				CheckpointStride: stride,
				CheckpointFaults: plan,
			})
			res := r.Do(job)
			if res.Err != nil {
				t.Fatalf("crash not recovered: %v", res.Err)
			}
			if !plan.Injected {
				t.Fatal("fault plan never fired")
			}
			if res.Attempts != 2 {
				t.Fatalf("attempts = %d, want 2 (crash, then resume)", res.Attempts)
			}
			c := r.Counters()
			if c.CkRestored != 1 {
				t.Fatalf("CkRestored = %d, want 1: the retry must resume from a snapshot", c.CkRestored)
			}
			if c.CkSaved == 0 {
				t.Fatal("no durable snapshots counted")
			}
			b, err := res.Stats.EncodeJSON()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(b, refJSON) {
				t.Fatal("recovered statistics differ from a clean run")
			}
			// Success clears the trail (and removes the per-job dir).
			if ents, err := os.ReadDir(filepath.Join(dir, key)); err == nil && len(ents) > 0 {
				t.Fatalf("%d checkpoint files survive a successful job", len(ents))
			}
		})
	}
}

// TestHoldAtCheckpoint: the hold that the service tests act under. A
// run held at its Nth checkpoint waits at exactly that cycle, with that
// checkpoint durable and no later one written; once released it ends
// byte-identical to an unheld run, and the plan never holds again.
func TestHoldAtCheckpoint(t *testing.T) {
	const stride, nth = 1000, 3
	job := cheapJob(nil)
	ref, err := New(Options{Workers: 1}).RunJob(job)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Cycles <= nth*stride {
		t.Fatalf("%s runs %d cycles, too few to hold at checkpoint %d", job, ref.Cycles, nth)
	}
	refJSON, err := ref.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	key, err := job.Key()
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	plan := &fault.Plan{Kind: fault.HoldAtCheckpoint, Nth: nth}
	t.Cleanup(plan.Release)
	r := New(Options{Workers: 1, CheckpointDir: dir, CheckpointStride: stride, CheckpointFaults: plan})
	done := make(chan Result, 1)
	go func() { done <- r.Do(job) }()
	select {
	case <-plan.Held():
	case res := <-done:
		t.Fatalf("the run ended (%v) without holding", res.Err)
	}
	if plan.Cycle != nth*stride {
		t.Fatalf("held at cycle %d, want checkpoint %d at cycle %d", plan.Cycle, nth, nth*stride)
	}
	trail, err := checkpoint.NewDirSink(filepath.Join(dir, key), 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := trail.List(); len(got) == 0 || got[len(got)-1] != nth*stride {
		t.Fatalf("checkpoints on disk while held = %v, want the newest at cycle %d", got, nth*stride)
	}
	select {
	case res := <-done:
		t.Fatalf("a held run ended (%v)", res.Err)
	default:
	}

	plan.Release()
	res := <-done
	if res.Err != nil || res.Attempts != 1 {
		t.Fatalf("released run = %d attempts, %v; want one clean attempt", res.Attempts, res.Err)
	}
	b, err := res.Stats.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, refJSON) {
		t.Fatal("a held-then-released run differs from an unheld one")
	}
	if plan.Cycle != nth*stride || plan.Trip(fault.HoldAtCheckpoint, 0, -1, -1, "") {
		t.Fatalf("the plan held again: %s", plan)
	}
}

// TestCheckpointCrossProcessResume models kill -9: a first runner
// crashes with no retries, leaving its snapshot trail on disk; a fresh
// runner (a new process) given the same checkpoint directory resumes
// the job from the trail on its first attempt and produces clean-run
// statistics.
func TestCheckpointCrossProcessResume(t *testing.T) {
	job := cheapJob(nil)
	clean := New(Options{Workers: 1})
	ref, err := clean.RunJob(job)
	if err != nil {
		t.Fatal(err)
	}
	refJSON, err := ref.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	stride := ref.Cycles / 4
	if stride < 1 {
		stride = 1
	}
	dir := t.TempDir()

	r1 := New(Options{
		Workers: 1, Retries: -1,
		CheckpointDir:    dir,
		CheckpointStride: stride,
		CheckpointFaults: &fault.Plan{Kind: fault.CrashAfterCheckpoint, Nth: 2},
	})
	if res := r1.Do(job); res.Err == nil {
		t.Fatal("crashed run with no retries reported success")
	}

	r2 := New(Options{Workers: 1, CheckpointDir: dir, CheckpointStride: stride})
	res := r2.Do(job)
	if res.Err != nil {
		t.Fatalf("resumed run failed: %v", res.Err)
	}
	if res.Attempts != 1 {
		t.Fatalf("attempts = %d, want 1", res.Attempts)
	}
	if c := r2.Counters(); c.CkRestored != 1 {
		t.Fatalf("CkRestored = %d, want 1: the new process must resume the trail", c.CkRestored)
	}
	b, err := res.Stats.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, refJSON) {
		t.Fatal("cross-process resumed statistics differ from a clean run")
	}
}

// TestCheckpointStaleFallsBackToColdStart: a snapshot that no longer
// matches the run must not fail the job — the runner clears the trail,
// refunds the attempt and restarts from cycle 0, with the clean run's
// statistics. Two container-valid blobs Latest() will serve and the
// simulator's decoder must reject typed: an empty payload (fails the
// identity cross-check), and a real snapshot of this very job in the
// shape binaries before the one-loop dispatcher wrote — every identity
// field matches, but the loop state sits under the old "single" key.
func TestCheckpointStaleFallsBackToColdStart(t *testing.T) {
	job := cheapJob(nil)
	key, err := job.Key()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := New(Options{Workers: 1}).RunJob(job)
	if err != nil {
		t.Fatal(err)
	}
	refJSON, err := ref.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}

	mem := checkpoint.NewMemSink()
	if _, err := simulate(context.Background(), job, simOpts{sink: mem, stride: 1000}); err != nil {
		t.Fatal(err)
	}
	cycle, blob, ok := mem.Latest()
	if !ok {
		t.Fatal("no checkpoint captured")
	}
	raw, err := checkpoint.Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(raw, &fields); err != nil {
		t.Fatal(err)
	}
	if fields["loop"] == nil {
		t.Fatal("snapshot payload has no \"loop\" field to move")
	}
	fields["single"] = fields["loop"]
	delete(fields, "loop")
	old, err := json.Marshal(fields)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name  string
		cycle int64
		blob  []byte
	}{
		{"empty payload", 100, checkpoint.Encode([]byte("{}"))},
		{"parent-binary payload shape", cycle, checkpoint.Encode(old)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			sink, err := checkpoint.NewDirSink(filepath.Join(dir, key), checkpointKeep)
			if err != nil {
				t.Fatal(err)
			}
			if err := sink.Put(tc.cycle, tc.blob); err != nil {
				t.Fatal(err)
			}

			r := New(Options{Workers: 1, CheckpointDir: dir, CheckpointStride: 1000})
			real := r.simFn
			var calls int64
			r.simFn = func(ctx context.Context, j Job, so simOpts) (*stats.GPU, error) {
				atomic.AddInt64(&calls, 1)
				return real(ctx, j, so)
			}
			res := r.Do(job)
			if res.Err != nil {
				t.Fatalf("stale checkpoint failed the job: %v", res.Err)
			}
			// Two simFn calls (rejected resume, then cold start) but the
			// rejected resume is refunded: only one attempt did real work.
			if got := atomic.LoadInt64(&calls); got != 2 {
				t.Fatalf("simFn called %d times, want 2 (rejected resume, cold start)", got)
			}
			if res.Attempts != 1 {
				t.Fatalf("attempts = %d, want 1 (the rejected resume is refunded)", res.Attempts)
			}
			if c := r.Counters(); c.CkRestored != 1 {
				t.Fatalf("CkRestored = %d, want 1", c.CkRestored)
			}
			if b, err := res.Stats.EncodeJSON(); err != nil || !bytes.Equal(b, refJSON) {
				t.Fatalf("cold-started statistics differ from a clean run (err %v)", err)
			}
			if ents, err := os.ReadDir(filepath.Join(dir, key)); err == nil && len(ents) > 0 {
				t.Fatalf("%d checkpoint files survive the rejected trail", len(ents))
			}
		})
	}
}

func TestVerifyFailureSurfaces(t *testing.T) {
	// NQU has a functional check; a runner with Verify runs it. Force a
	// failure path instead through a config that cannot build.
	bad := cheapJob(func(c *config.Config) { c.NumSMs = -1 })
	r := New(Options{Workers: 1})
	if res := r.Do(bad); res.Err == nil {
		t.Fatal("invalid configuration accepted")
	}
}

func TestUnknownWorkload(t *testing.T) {
	r := New(Options{Workers: 1})
	j := cheapJob(nil)
	j.Workload = "no-such-benchmark"
	if res := r.Do(j); res.Err == nil {
		t.Fatal("unknown workload accepted")
	}
}
