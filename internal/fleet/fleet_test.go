// End-to-end tests for the gsched coordinator against real in-process
// gserved workers: the crash matrix from the PR's acceptance criteria
// (worker killed mid-job, coordinator killed between dispatch and ack,
// heartbeat blackhole), checkpoint-based preemption with verified
// resume, degraded-mode admission, and byte-identical results versus a
// sequential single-node run in every case.
package fleet_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"gpushare/internal/config"
	"gpushare/internal/fault"
	"gpushare/internal/fleet"
	"gpushare/internal/runner"
	"gpushare/internal/server"
	"gpushare/internal/tenancy"
)

// seededReq builds a coordinator submission whose content key is unique
// to seed.
func seededReq(seed uint64, scale int) fleet.SubmitRequest {
	cfg := config.Default()
	cfg.Seed = seed
	var req fleet.SubmitRequest
	req.Workload = "gaussian"
	req.Scale = scale
	req.Config = &cfg
	return req
}

// sequentialStats runs the same job on a fresh single-node runner — the
// ground truth every fleet execution must match byte for byte.
func sequentialStats(t *testing.T, req fleet.SubmitRequest) []byte {
	t.Helper()
	scale := req.Scale
	if scale <= 0 {
		scale = 1
	}
	r := runner.New(runner.Options{})
	res := r.Do(runner.Job{Workload: req.Workload, Config: *req.Config, Scale: scale})
	if res.Err != nil {
		t.Fatalf("sequential baseline: %v", res.Err)
	}
	b, err := json.Marshal(res.Stats)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// holdFirstJob arms ro so that the first job its runner simulates
// stops at that job's first checkpoint (cycle 1000 of gaussian's some
// 6 400 at scale 1), durably written, until the returned plan is
// released; cleanup releases it in any case. A test that must act while
// a job runs holds it instead of sizing it by its run time.
func holdFirstJob(t *testing.T, ro *runner.Options) *fault.Plan {
	t.Helper()
	plan := &fault.Plan{Kind: fault.HoldAtCheckpoint, Nth: 1}
	ro.CheckpointDir, ro.CheckpointStride, ro.CheckpointFaults = t.TempDir(), 1000, plan
	t.Cleanup(plan.Release)
	return plan
}

// startWorker serves a gserved daemon and returns it with its base URL.
// Cleanup closes the listener only — crash tests kill the server
// deliberately and graceful paths drain explicitly.
func startWorker(t *testing.T, opts server.Options) (*server.Server, string) {
	t.Helper()
	if opts.Workers == 0 {
		opts.Workers = 1
	}
	if opts.QueueDepth == 0 {
		opts.QueueDepth = 32
	}
	s, err := server.New(opts)
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		s.Kill() // idempotent; frees worker goroutines without a drain wait
		ts.Close()
	})
	return s, ts.URL
}

// startCoordinator builds a Coordinator with probe timings tuned for
// tests and serves it.
func startCoordinator(t *testing.T, opts fleet.Options) (*fleet.Coordinator, string) {
	t.Helper()
	if opts.LeaseTTL == 0 {
		opts.LeaseTTL = 500 * time.Millisecond
	}
	c, err := fleet.New(opts)
	if err != nil {
		t.Fatalf("fleet.New: %v", err)
	}
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(func() {
		c.Kill()
		ts.Close()
	})
	return c, ts.URL
}

// doJSON performs one HTTP exchange with JSON in/out and returns the
// status code.
func doJSON(t *testing.T, method, url string, in, out any) int {
	t.Helper()
	var rd io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && len(body) > 0 {
		if err := json.Unmarshal(body, out); err != nil {
			t.Fatalf("%s %s: decode %q: %v", method, url, body, err)
		}
	}
	return resp.StatusCode
}

// submitJob posts one submission and returns its status.
func submitJob(t *testing.T, base string, req fleet.SubmitRequest) fleet.JobStatus {
	t.Helper()
	var st fleet.JobStatus
	code := doJSON(t, "POST", base+"/v1/jobs", req, &st)
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("submit = %d %+v", code, st)
	}
	return st
}

// waitJob holds GET ?wait= on a fleet job until it is terminal.
func waitJob(t *testing.T, base, key string) fleet.JobStatus {
	t.Helper()
	deadline := time.Now().Add(90 * time.Second)
	for time.Now().Before(deadline) {
		var st fleet.JobStatus
		if code := doJSON(t, "GET", base+"/v1/jobs/"+key+"?wait=1", nil, &st); code != http.StatusOK {
			t.Fatalf("get %s = %d", key, code)
		}
		if st.State == fleet.JobDone || st.State == fleet.JobFailed {
			return st
		}
	}
	t.Fatalf("job %s never reached a terminal state", key)
	return fleet.JobStatus{}
}

// fleetStatusz fetches the coordinator snapshot.
func fleetStatusz(t *testing.T, base string) fleet.Statusz {
	t.Helper()
	var st fleet.Statusz
	if code := doJSON(t, "GET", base+"/statusz", nil, &st); code != http.StatusOK {
		t.Fatalf("statusz = %d", code)
	}
	return st
}

// TestFleetShardsAcrossWorkers: jobs from several tenants spread over
// two workers, every result byte-identical to a sequential single-node
// run.
func TestFleetShardsAcrossWorkers(t *testing.T) {
	_, w1 := startWorker(t, server.Options{})
	_, w2 := startWorker(t, server.Options{})
	_, base := startCoordinator(t, fleet.Options{Workers: []string{w1, w2}})

	reqs := make([]fleet.SubmitRequest, 6)
	keys := make([]string, 6)
	for i := range reqs {
		reqs[i] = seededReq(uint64(4000+i), 1)
		reqs[i].Tenant = []string{"alice", "bob", "carol"}[i%3]
		st := submitJob(t, base, reqs[i])
		if st.Key == "" {
			t.Fatalf("submit %d returned no key", i)
		}
		keys[i] = st.Key
	}
	for i, key := range keys {
		st := waitJob(t, base, key)
		if st.State != fleet.JobDone || st.Stats == nil {
			t.Fatalf("job %d = %+v, want done with stats", i, st)
		}
		if got := mustJSON(t, st.Stats); !bytes.Equal(got, sequentialStats(t, reqs[i])) {
			t.Fatalf("job %d stats differ from the sequential single-node run", i)
		}
		if st.Worker == "" {
			t.Fatalf("job %d reports no worker: %+v", i, st)
		}
	}

	var workers fleet.WorkersResponse
	doJSON(t, "GET", base+"/v1/workers", nil, &workers)
	if len(workers.Workers) != 2 {
		t.Fatalf("registry has %d workers, want 2", len(workers.Workers))
	}
	var total int64
	for _, w := range workers.Workers {
		if w.Dispatched == 0 {
			t.Fatalf("worker %s dispatched nothing; the fleet did not shard", w.ID)
		}
		total += w.Dispatched
	}
	if total < 6 {
		t.Fatalf("total dispatches = %d, want >= 6", total)
	}
	if st := fleetStatusz(t, base); st.Completed != 6 || st.Failed != 0 {
		t.Fatalf("statusz = completed %d failed %d, want 6/0", st.Completed, st.Failed)
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestWorkerCrashMidJobRequeuesOrphans — crash matrix row 1: a worker
// dies abruptly (in-process kill -9) while running a dispatched job.
// The failure detector sees the explicit dead state, requeues the
// orphan, and the surviving worker finishes it byte-identically.
func TestWorkerCrashMidJobRequeuesOrphans(t *testing.T) {
	crash := &fault.Plan{Kind: fault.WorkerCrashMidJob, Nth: 1}
	_, w1 := startWorker(t, server.Options{CoreOptions: server.CoreOptions{Faults: crash}})
	_, w2 := startWorker(t, server.Options{})
	_, base := startCoordinator(t, fleet.Options{
		Workers:       []string{w1, w2},
		LeaseTTL:      500 * time.Millisecond,
		ProbeInterval: 100 * time.Millisecond,
	})

	reqs := make([]fleet.SubmitRequest, 4)
	keys := make([]string, 4)
	for i := range reqs {
		reqs[i] = seededReq(uint64(4100+i), 2)
		keys[i] = submitJob(t, base, reqs[i]).Key
	}
	for i, key := range keys {
		st := waitJob(t, base, key)
		if st.State != fleet.JobDone {
			t.Fatalf("job %d = %+v, want done despite the worker crash", i, st)
		}
		if got := mustJSON(t, st.Stats); !bytes.Equal(got, sequentialStats(t, reqs[i])) {
			t.Fatalf("job %d stats differ from the sequential run after requeue", i)
		}
	}
	if !crash.Fired() {
		t.Fatal("the worker crash point never fired; the test exercised nothing")
	}
	st := fleetStatusz(t, base)
	if st.WorkerDeaths == 0 {
		t.Fatalf("statusz = %+v, want at least one worker death", st)
	}
	if st.Requeues == 0 {
		t.Fatal("the orphaned job was never requeued")
	}
	if st.Completed != 4 {
		t.Fatalf("completed = %d, want exactly 4 (at-most-once results)", st.Completed)
	}
}

// TestCoordinatorCrashAfterDispatchReplays — crash matrix row 2: the
// coordinator dies between a worker accepting a job and the ack being
// recorded. A fresh coordinator on the same journal replays the
// admission, re-dispatches, and the worker's content-key dedup turns
// the duplicate dispatch into the same single result.
func TestCoordinatorCrashAfterDispatchReplays(t *testing.T) {
	_, w1 := startWorker(t, server.Options{})
	journal := filepath.Join(t.TempDir(), "gsched.journal")

	crash := &fault.Plan{Kind: fault.CrashAfterDispatch, Nth: 1}
	c1, base1 := startCoordinator(t, fleet.Options{
		Workers:     []string{w1},
		CoreOptions: server.CoreOptions{JournalPath: journal, Faults: crash},
	})
	req := seededReq(4200, 2)
	key := submitJob(t, base1, req).Key

	// The crash point fires inside the dispatch path; wait for the
	// injected death to become visible.
	deadline := time.Now().Add(30 * time.Second)
	for !crash.Fired() {
		if time.Now().After(deadline) {
			t.Fatal("the dispatch crash point never fired")
		}
		time.Sleep(10 * time.Millisecond)
	}
	var ready server.ReadyzStatus
	doJSON(t, "GET", base1+"/readyz", nil, &ready)
	if ready.State != server.ReadyDead {
		t.Fatalf("crashed coordinator readyz = %+v, want dead", ready)
	}
	_ = c1

	// Restart: same journal, same worker fleet.
	_, base2 := startCoordinator(t, fleet.Options{
		Workers:     []string{w1},
		CoreOptions: server.CoreOptions{JournalPath: journal},
	})
	st := waitJob(t, base2, key)
	if st.State != fleet.JobDone {
		t.Fatalf("replayed job = %+v, want done", st)
	}
	if got := mustJSON(t, st.Stats); !bytes.Equal(got, sequentialStats(t, req)) {
		t.Fatal("replayed job stats differ from the sequential run")
	}
	s2 := fleetStatusz(t, base2)
	if s2.Replayed != 1 {
		t.Fatalf("replayed = %d, want 1", s2.Replayed)
	}
	if s2.Journal == nil || s2.Journal.Pending != 0 {
		t.Fatalf("journal = %+v, want the finished job retired", s2.Journal)
	}
}

// TestHeartbeatBlackholeRequeuesWithoutDoubleCount — crash matrix row
// 3: a partition hides a healthy worker from the coordinator. Its lease
// expires, its jobs requeue onto the survivor — and even though the
// partitioned worker keeps computing, every job yields exactly one
// result (first terminal wins, content-key dedup).
func TestHeartbeatBlackholeRequeuesWithoutDoubleCount(t *testing.T) {
	// Each worker holds its first job at that job's first checkpoint, so
	// the partitioned worker is still computing its job when its lease
	// runs out: the job requeues, and both workers finish it once
	// released.
	var o1, o2 server.Options
	h1 := holdFirstJob(t, &o1.Runner)
	h2 := holdFirstJob(t, &o2.Runner)
	_, w1 := startWorker(t, o1)
	_, w2 := startWorker(t, o2)
	blackhole := &fault.Plan{Kind: fault.HeartbeatBlackhole, Nth: 1}
	_, base := startCoordinator(t, fleet.Options{
		Workers:       []string{w1, w2},
		LeaseTTL:      400 * time.Millisecond,
		ProbeInterval: 120 * time.Millisecond,
		CoreOptions:   server.CoreOptions{Faults: blackhole},
	})

	reqs := make([]fleet.SubmitRequest, 4)
	keys := make([]string, 4)
	for i := range reqs {
		reqs[i] = seededReq(uint64(4300+i), 1)
		keys[i] = submitJob(t, base, reqs[i]).Key
	}
	st := fleetStatusz(t, base)
	for deadline := time.Now().Add(10 * time.Second); st.WorkerDeaths == 0 && time.Now().Before(deadline); st = fleetStatusz(t, base) {
		time.Sleep(20 * time.Millisecond)
	}
	if st.WorkerDeaths == 0 {
		t.Fatal("the partitioned worker was never declared dead")
	}
	h1.Release()
	h2.Release()
	for i, key := range keys {
		st := waitJob(t, base, key)
		if st.State != fleet.JobDone {
			t.Fatalf("job %d = %+v, want done across the partition", i, st)
		}
		if got := mustJSON(t, st.Stats); !bytes.Equal(got, sequentialStats(t, reqs[i])) {
			t.Fatalf("job %d stats differ from the sequential run", i)
		}
	}
	if !blackhole.Fired() {
		t.Fatal("the blackhole crash point never fired")
	}
	st = fleetStatusz(t, base)
	if st.Requeues == 0 {
		t.Fatal("the partitioned worker's job was never requeued")
	}
	if st.Completed != 4 {
		t.Fatalf("completed = %d, want exactly 4: duplicate executions must not double-count", st.Completed)
	}
}

// TestPreemptionResumesFromCheckpoint: a higher-priority arrival
// preempts the running low-priority job; the preempted job later
// resumes from its checkpoint trail (CkRestored > 0) instead of cycle
// 0, and both finish byte-identical to sequential runs.
func TestPreemptionResumesFromCheckpoint(t *testing.T) {
	opts := server.Options{Workers: 1}
	plan := holdFirstJob(t, &opts.Runner)
	srv, w1 := startWorker(t, opts)
	_, base := startCoordinator(t, fleet.Options{Workers: []string{w1}})

	low := seededReq(4400, 1)
	low.Priority = 0
	lowKey := submitJob(t, base, low).Key

	// The low job holds at its first checkpoint, durably written, so the
	// preemption lands mid-run and has a trail to resume from.
	select {
	case <-plan.Held():
	case <-time.After(time.Minute):
		t.Fatal("the low-priority job never checkpointed")
	}

	high := seededReq(4401, 1)
	high.Priority = 5
	highKey := submitJob(t, base, high).Key

	highSt := waitJob(t, base, highKey)
	if highSt.State != fleet.JobDone {
		t.Fatalf("high-priority job = %+v, want done", highSt)
	}
	lowSt := waitJob(t, base, lowKey)
	if lowSt.State != fleet.JobDone {
		t.Fatalf("preempted job = %+v, want done after resume", lowSt)
	}
	if lowSt.Preemptions == 0 {
		t.Fatalf("preempted job records no preemption: %+v", lowSt)
	}
	if got := srv.Runner().Counters().CkRestored; got == 0 {
		t.Fatal("CkRestored = 0: the preempted job restarted from cycle 0 instead of its trail")
	}
	if got := mustJSON(t, lowSt.Stats); !bytes.Equal(got, sequentialStats(t, low)) {
		t.Fatal("preempted-and-resumed stats differ from the sequential run")
	}
	if got := mustJSON(t, highSt.Stats); !bytes.Equal(got, sequentialStats(t, high)) {
		t.Fatal("high-priority stats differ from the sequential run")
	}
	if st := fleetStatusz(t, base); st.Preemptions == 0 {
		t.Fatal("statusz records no preemption")
	}
}

// TestDegradedModeQueuesWithHonestRetryAfter: with no live workers the
// coordinator keeps admitting — the journal makes the promise durable —
// and says so: 202 with a Retry-After hint, readyz "degraded". A worker
// registering at runtime drains the backlog.
func TestDegradedModeQueuesWithHonestRetryAfter(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "gsched.journal")
	_, base := startCoordinator(t, fleet.Options{CoreOptions: server.CoreOptions{JournalPath: journal}})

	var ready server.ReadyzStatus
	if code := doJSON(t, "GET", base+"/readyz", nil, &ready); code != http.StatusOK {
		t.Fatalf("degraded readyz = %d, want 200 (admission still works)", code)
	}
	if ready.State != server.ReadyDegraded || ready.RetryAfterSec < 1 {
		t.Fatalf("degraded readyz = %+v, want degraded with a retry hint", ready)
	}

	req := seededReq(4500, 1)
	var st fleet.JobStatus
	if code := doJSON(t, "POST", base+"/v1/jobs", req, &st); code != http.StatusAccepted {
		t.Fatalf("degraded submit = %d, want 202", code)
	}
	if st.State != fleet.JobQueued || st.RetryAfterSec < 1 {
		t.Fatalf("degraded submit status = %+v, want queued with a retry hint", st)
	}

	// A worker appears; the backlog drains.
	_, w1 := startWorker(t, server.Options{})
	var reg fleet.WorkerStatus
	if code := doJSON(t, "POST", base+"/v1/workers", fleet.RegisterRequest{URL: w1}, &reg); code != http.StatusOK {
		t.Fatalf("register = %d", code)
	}
	got := waitJob(t, base, st.Key)
	if got.State != fleet.JobDone {
		t.Fatalf("job after worker registration = %+v, want done", got)
	}
	if bytes.Compare(mustJSON(t, got.Stats), sequentialStats(t, req)) != 0 {
		t.Fatal("stats differ from the sequential run")
	}
}

// TestSweepAndDedup: batch admission reports per-job outcomes, and
// resubmitting the same content joins the existing job instead of
// running twice.
func TestSweepAndDedup(t *testing.T) {
	_, w1 := startWorker(t, server.Options{})
	_, base := startCoordinator(t, fleet.Options{Workers: []string{w1}})

	sweep := server.SweepRequest[fleet.SubmitRequest]{Jobs: []fleet.SubmitRequest{
		seededReq(4600, 1), seededReq(4601, 1),
	}}
	bad := seededReq(4602, 1)
	bad.Workload = "no-such-benchmark"
	sweep.Jobs = append(sweep.Jobs, bad)

	var resp server.SweepResponse[fleet.JobStatus]
	if code := doJSON(t, "POST", base+"/v1/sweeps", sweep, &resp); code != http.StatusOK {
		t.Fatalf("sweep = %d", code)
	}
	if resp.Rejected != 1 || len(resp.Jobs) != 3 {
		t.Fatalf("sweep response = %+v, want 2 admitted + 1 rejected", resp)
	}
	for _, js := range resp.Jobs[:2] {
		if st := waitJob(t, base, js.Key); st.State != fleet.JobDone {
			t.Fatalf("sweep job %s = %+v, want done", js.Key, st)
		}
	}

	// Resubmit the first job: 200 (joined), not a second execution.
	var again fleet.JobStatus
	if code := doJSON(t, "POST", base+"/v1/jobs", seededReq(4600, 1), &again); code != http.StatusOK {
		t.Fatalf("dedup resubmit = %d, want 200", code)
	}
	if st := fleetStatusz(t, base); st.Deduped != 1 || st.Completed != 2 {
		t.Fatalf("statusz = deduped %d completed %d, want 1/2", st.Deduped, st.Completed)
	}
}

// TestSweepListInAdmissionOrder: the coordinator's GET /v1/sweeps is
// the shared handler, so it too lists by admission sequence: jobs
// submitted in descending key order come back in that order.
func TestSweepListInAdmissionOrder(t *testing.T) {
	_, w1 := startWorker(t, server.Options{})
	_, base := startCoordinator(t, fleet.Options{Workers: []string{w1}})

	var keys []string
	seeds := map[string]uint64{}
	for seed := uint64(4650); seed < 4658; seed++ {
		req := seededReq(seed, 1)
		_, key, err := req.Build()
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, key)
		seeds[key] = seed
	}
	sort.Sort(sort.Reverse(sort.StringSlice(keys)))
	for _, key := range keys {
		if st := submitJob(t, base, seededReq(seeds[key], 1)); st.Key != key {
			t.Fatalf("coordinator key %s, computed %s", st.Key, key)
		}
	}

	var inv server.SweepResponse[fleet.JobStatus]
	if code := doJSON(t, "GET", base+"/v1/sweeps", nil, &inv); code != http.StatusOK {
		t.Fatalf("sweep list = %d", code)
	}
	if len(inv.Jobs) != len(keys) {
		t.Fatalf("inventory = %d jobs, want %d", len(inv.Jobs), len(keys))
	}
	for i, jb := range inv.Jobs {
		if jb.Key != keys[i] {
			t.Fatalf("inventory[%d] = %.8s, want %.8s (admission order)", i, jb.Key, keys[i])
		}
	}
	for _, key := range keys {
		waitJob(t, base, key)
	}
}

// TestCoordinatorDrainRefusesNewWork: draining answers 503 on submit
// and the readyz body says "draining", distinct from dead.
func TestCoordinatorDrainRefusesNewWork(t *testing.T) {
	_, w1 := startWorker(t, server.Options{})
	c, base := startCoordinator(t, fleet.Options{Workers: []string{w1}})

	key := submitJob(t, base, seededReq(4700, 1)).Key
	waitJob(t, base, key)

	if err := c.Drain(10 * time.Second); err != nil {
		t.Fatalf("drain: %v", err)
	}
	var errBody server.ErrorBody
	if code := doJSON(t, "POST", base+"/v1/jobs", seededReq(4701, 1), &errBody); code != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining = %d, want 503", code)
	}
	if errBody.Kind != "draining" {
		t.Fatalf("shed kind = %q, want draining", errBody.Kind)
	}
	// A sweep is refused whole, as on gserved, not element by element.
	sweep := server.SweepRequest[fleet.SubmitRequest]{Jobs: []fleet.SubmitRequest{seededReq(4702, 1)}}
	if code := doJSON(t, "POST", base+"/v1/sweeps", sweep, &errBody); code != http.StatusServiceUnavailable {
		t.Fatalf("sweep while draining = %d, want 503", code)
	}
	var ready server.ReadyzStatus
	doJSON(t, "GET", base+"/readyz", nil, &ready)
	if ready.State != server.ReadyDraining {
		t.Fatalf("draining readyz = %+v, want draining", ready)
	}
}

// TestWorkerDrainSteersPlacement: a worker put into drain keeps its
// lease but receives no new jobs; the other worker absorbs the load.
func TestWorkerDrainSteersPlacement(t *testing.T) {
	_, w1 := startWorker(t, server.Options{})
	_, w2 := startWorker(t, server.Options{})
	_, base := startCoordinator(t, fleet.Options{
		Workers:       []string{w1, w2},
		ProbeInterval: 100 * time.Millisecond,
	})

	var drained fleet.WorkerStatus
	if code := doJSON(t, "POST", base+"/v1/workers/"+urlID(w1)+"/drain", nil, &drained); code != http.StatusOK {
		t.Fatalf("worker drain = %d", code)
	}
	if drained.State != fleet.WorkerDraining {
		t.Fatalf("drained worker state = %q, want draining", drained.State)
	}

	for i := 0; i < 3; i++ {
		st := waitJob(t, base, submitJob(t, base, seededReq(uint64(4800+i), 1)).Key)
		if st.State != fleet.JobDone {
			t.Fatalf("job %d = %+v, want done", i, st)
		}
		if st.Worker == urlID(w1) {
			t.Fatalf("job %d placed on the draining worker", i)
		}
	}
}

// urlID is the default worker id for a statically registered URL: its
// host:port.
func urlID(u string) string { return strings.TrimPrefix(u, "http://") }

// TestFleetJournalSurvivesKill: jobs admitted in degraded mode survive
// a coordinator kill -9 — the restarted coordinator replays them and,
// once a worker exists, runs them.
func TestFleetJournalSurvivesKill(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "gsched.journal")
	c1, base1 := startCoordinator(t, fleet.Options{CoreOptions: server.CoreOptions{JournalPath: journal}})

	keys := make([]string, 3)
	reqs := make([]fleet.SubmitRequest, 3)
	for i := range keys {
		reqs[i] = seededReq(uint64(4900+i), 1)
		reqs[i].Tenant = fmt.Sprintf("t%d", i)
		keys[i] = submitJob(t, base1, reqs[i]).Key
	}
	c1.Kill()

	_, w1 := startWorker(t, server.Options{})
	_, base2 := startCoordinator(t, fleet.Options{
		CoreOptions: server.CoreOptions{JournalPath: journal},
		Workers:     []string{w1},
	})
	if st := fleetStatusz(t, base2); st.Replayed != 3 {
		t.Fatalf("replayed = %d, want 3", st.Replayed)
	}
	for i, key := range keys {
		st := waitJob(t, base2, key)
		if st.State != fleet.JobDone {
			t.Fatalf("replayed job %d = %+v, want done", i, st)
		}
		if got := mustJSON(t, st.Stats); !bytes.Equal(got, sequentialStats(t, reqs[i])) {
			t.Fatalf("replayed job %d stats differ from the sequential run", i)
		}
	}
}

// TestCoordinatorAndWorkerAgreeOnJobKey: at-least-once dispatch is safe
// only because the key gsched journals for a submission is the key
// gserved registers for the same body — both normalize through
// server.BuildJob. For each kind of submission the two daemons must
// answer with one key, the coordinator's journal must hold it, and it
// must be the runner's key for the normalized job; a body one rejects,
// both reject.
func TestCoordinatorAndWorkerAgreeOnJobKey(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "gsched.journal")
	// No workers: the coordinator admits and journals, never dispatches.
	_, cbase := startCoordinator(t, fleet.Options{CoreOptions: server.CoreOptions{JournalPath: journal}})
	_, wbase := startWorker(t, server.Options{})

	gto := config.Default()
	gto.Sched = config.SchedGTO
	def := config.Default()
	spec := &tenancy.Spec{
		Policy:  tenancy.CoSched,
		Tenants: []tenancy.TenantSpec{{Workload: "gaussian"}, {Workload: "CONV2"}},
	}
	bad := config.Default()
	bad.NumSMs = -1
	for _, tc := range []struct {
		name string
		req  server.SubmitRequest
		want *runner.Job // nil: both daemons must answer 400
	}{
		{"single-kernel", server.SubmitRequest{Workload: "gaussian", Scale: 2, Config: &gto},
			&runner.Job{Workload: "gaussian", Scale: 2, Config: gto}},
		{"tenancy", server.SubmitRequest{Scale: 1, Config: &gto, Tenancy: spec},
			&runner.Job{Scale: 1, Config: gto, Tenancy: spec}},
		{"defaulted scale and config", server.SubmitRequest{Workload: "CONV2"},
			&runner.Job{Workload: "CONV2", Scale: 1, Config: def}},
		{"unknown workload", server.SubmitRequest{Workload: "no-such-benchmark"}, nil},
		{"workload and tenancy", server.SubmitRequest{Workload: "gaussian", Tenancy: spec}, nil},
		{"invalid config", server.SubmitRequest{Workload: "gaussian", Config: &bad}, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var cst, wst server.JobStatus
			ccode := doJSON(t, "POST", cbase+"/v1/jobs", tc.req, &cst)
			wcode := doJSON(t, "POST", wbase+"/v1/jobs", tc.req, &wst)
			if tc.want == nil {
				if ccode != http.StatusBadRequest || wcode != http.StatusBadRequest {
					t.Fatalf("gsched answered %d, gserved %d; want 400 from both", ccode, wcode)
				}
				return
			}
			if ccode != http.StatusAccepted || wcode != http.StatusAccepted {
				t.Fatalf("gsched answered %d, gserved %d; want 202 from both", ccode, wcode)
			}
			want, err := tc.want.Key()
			if err != nil {
				t.Fatal(err)
			}
			if cst.Key != want || wst.Key != want {
				t.Fatalf("gsched key %s, gserved key %s, runner key %s", cst.Key, wst.Key, want)
			}
			if _, err := os.Stat(filepath.Join(journal, want)); err != nil {
				t.Fatalf("journal holds no record for %s: %v", want, err)
			}
		})
	}
}

// TestDeadlineThroughFleetTerminates: a job whose own deadline runs out
// on the worker ends at the coordinator as terminal canceled, under
// gserved's rule — POST ?wait=1 answers 503 canceled, GET answers the
// status, the journal accept stays pending, a resubmission re-admits —
// instead of being requeued (and canceled again) forever. Preemption,
// worker drain and lease expiry still requeue; their tests are above.
func TestDeadlineThroughFleetTerminates(t *testing.T) {
	// Each worker holds its first job at that job's first checkpoint, so
	// every deadline below runs out mid-run: w1 runs the first admission,
	// w2 the resubmission.
	var o1, o2 server.Options
	holdFirstJob(t, &o1.Runner)
	holdFirstJob(t, &o2.Runner)
	_, w1 := startWorker(t, o1)
	_, w2 := startWorker(t, o2)
	journal := filepath.Join(t.TempDir(), "gsched.journal")
	_, base := startCoordinator(t, fleet.Options{
		Workers:     []string{w1},
		CoreOptions: server.CoreOptions{JournalPath: journal, MaxDeadline: 50 * time.Millisecond},
	})

	req := seededReq(4800, 1)
	req.DeadlineMillis = 30
	key := submitJob(t, base, req).Key

	var st fleet.JobStatus
	deadline := time.Now().Add(10 * time.Second)
	for !server.Terminal(st.State) {
		if time.Now().After(deadline) {
			t.Fatalf("a job past its deadline never reached a terminal state: %+v (statusz requeues %d)",
				st, fleetStatusz(t, base).Requeues)
		}
		if code := doJSON(t, "GET", base+"/v1/jobs/"+key+"?wait=1", nil, &st); code != http.StatusOK {
			t.Fatalf("held GET = %d, want 200", code)
		}
	}
	if st.State != server.StateCanceled || st.Error == "" || st.Requeues != 0 {
		t.Fatalf("job past its deadline = %+v, want canceled with an error and no requeue", st)
	}
	// The canceled entry is transient: this POST re-admits the job, which
	// runs its deadline — now the coordinator's -maxdeadline cap — out
	// again, held on w2 (w1 has spent its hold).
	if code := doJSON(t, "POST", base+"/v1/workers/"+urlID(w1)+"/drain", nil, nil); code != http.StatusOK {
		t.Fatalf("drain w1 = %d", code)
	}
	if code := doJSON(t, "POST", base+"/v1/workers", fleet.RegisterRequest{URL: w2}, nil); code != http.StatusOK {
		t.Fatalf("register w2 = %d", code)
	}
	req.DeadlineMillis = 60_000
	var body server.ErrorBody
	if code := doJSON(t, "POST", base+"/v1/jobs?wait=1", req, &body); code != http.StatusServiceUnavailable || body.Kind != "canceled" {
		t.Fatalf("POST ?wait=1 of a job that cannot meet its deadline = %d %+v, want 503 canceled", code, body)
	}
	if sz := fleetStatusz(t, base); sz.Journal.Pending != 1 || sz.Requeues != 0 || sz.Accepted != 2 {
		t.Fatalf("statusz = accepted %d requeues %d journal %+v; want 2 admissions, no requeue, the accept still pending",
			sz.Accepted, sz.Requeues, sz.Journal)
	}
}

// TestFleetReplayLargerThanQueue: what the coordinator accepted before
// a crash it owes after it, whatever -queue says now. Six journaled
// jobs replay whole into a bound of two — none is shed, none is retired
// unrun — and all six finish.
func TestFleetReplayLargerThanQueue(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "gsched.journal")
	c1, base1 := startCoordinator(t, fleet.Options{CoreOptions: server.CoreOptions{JournalPath: journal}})
	const n = 6
	keys := make([]string, n)
	for i := range keys {
		keys[i] = submitJob(t, base1, seededReq(uint64(4900+i), 1)).Key
	}
	c1.Kill() // no worker ever registered: all six are accepted, none ran

	_, w1 := startWorker(t, server.Options{})
	_, base2 := startCoordinator(t, fleet.Options{
		Workers:     []string{w1},
		CoreOptions: server.CoreOptions{JournalPath: journal, QueueDepth: 2},
	})
	if sz := fleetStatusz(t, base2); sz.Replayed != n {
		t.Fatalf("replayed %d of %d journaled jobs into a bound of 2", sz.Replayed, n)
	}
	for i, key := range keys {
		if st := waitJob(t, base2, key); st.State != fleet.JobDone {
			t.Fatalf("replayed job %d = %+v, want done", i, st)
		}
	}
	if sz := fleetStatusz(t, base2); sz.Journal.Pending != 0 || sz.Completed != n {
		t.Fatalf("after the replay: completed %d, journal %+v; want %d and nothing pending", sz.Completed, sz.Journal, n)
	}
}
