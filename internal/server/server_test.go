// Integration tests for the gserved daemon core, driven end to end
// through internal/client (an external test package, so the client can
// be imported without a cycle). They cover the PR's acceptance
// criteria: overload sheds cleanly and deterministically, drain
// persists in-flight work that a restarted daemon serves from disk, and
// client deadlines cancel rather than hang.
package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gpushare/internal/client"
	"gpushare/internal/config"
	"gpushare/internal/runner"
	"gpushare/internal/server"
)

// startDaemon runs a Server behind an httptest listener and returns a
// client pointed at it. Cleanup drains and closes.
func startDaemon(t *testing.T, opts server.Options) (*server.Server, *httptest.Server, *client.Client) {
	t.Helper()
	s := server.MustNew(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		if err := s.Drain(30 * time.Second); err != nil {
			t.Errorf("drain: %v", err)
		}
		ts.Close()
	})
	return s, ts, client.New(ts.URL)
}

// seededReq builds a submission whose key is unique to seed but whose
// simulation cost is identical to the baseline (Seed only feeds the
// dynamic-warp gate, which is off by default).
func seededReq(seed uint64) server.SubmitRequest {
	cfg := config.Default()
	cfg.Seed = seed
	return server.SubmitRequest{Workload: "gaussian", Config: &cfg}
}

func reqJob(req server.SubmitRequest) runner.Job {
	return runner.Job{Workload: req.Workload, Config: *req.Config, Scale: 1}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestSubmitWaitRoundTripAndDedup(t *testing.T) {
	_, _, c := startDaemon(t, server.Options{Workers: 2, CoreOptions: server.CoreOptions{QueueDepth: 8}})
	ctx := context.Background()
	req := seededReq(1)

	st, err := c.SubmitWait(ctx, req)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if st.State != server.StateDone || st.Stats == nil || st.Key == "" {
		t.Fatalf("status = %+v, want done with stats", st)
	}
	if st.Tier != runner.Simulated.String() {
		t.Fatalf("tier = %q, want %q", st.Tier, runner.Simulated)
	}

	// Idempotent resubmission: the same content key joins the finished
	// job instead of simulating again.
	st2, err := c.Submit(ctx, req)
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	if st2.Key != st.Key || st2.State != server.StateDone {
		t.Fatalf("resubmit = %+v, want dedup onto %s", st2, st.Key)
	}

	got, err := c.Get(ctx, st.Key)
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	if !bytes.Equal(mustJSON(t, got.Stats), mustJSON(t, st.Stats)) {
		t.Fatal("polled stats differ from submit-wait stats")
	}

	sz, err := c.Status(ctx)
	if err != nil {
		t.Fatalf("statusz: %v", err)
	}
	if sz.Accepted < 1 || sz.Deduped < 1 || sz.Runner.Simulated != 1 {
		t.Fatalf("statusz = %+v, want accepted/deduped/simulated counted", sz)
	}
	// The completed simulation must surface the memory-system aggregate:
	// exactly one contributing job, with its partitions' busy cycles and
	// queue high-water marks folded in.
	if sz.Mem == nil {
		t.Fatal("statusz.mem absent after a completed simulation")
	}
	if sz.Mem.Jobs != 1 || sz.Mem.BusyCycles <= 0 || sz.Mem.DRAMQueuePeak <= 0 {
		t.Fatalf("statusz.mem = %+v, want one job with busy cycles and DRAM queue peaks", sz.Mem)
	}

	var apiErr *client.APIError
	if _, err := c.Get(ctx, "no-such-key"); !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown key err = %v, want 404", err)
	}
}

// TestOverloadShedsCleanly is the saturation acceptance test: a small
// daemon (2 workers, 8-deep queue) under a burst of concurrent distinct
// submissions must answer every request with 2xx or 429/503 — never a
// hang or a 500 — finish every accepted job, return to its goroutine
// baseline, and produce stats byte-identical to sequential runs.
func TestOverloadShedsCleanly(t *testing.T) {
	n := 200
	if testing.Short() {
		n = 60
	}
	_, ts, c := startDaemon(t, server.Options{Workers: 2, CoreOptions: server.CoreOptions{QueueDepth: 8}})
	c.MaxRetries = -1 // sheds must surface, not be retried away
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	baseline := runtime.NumGoroutine()

	type accepted struct {
		key string
		job runner.Job
	}
	var (
		mu   sync.Mutex
		acc  []accepted
		shed int32
		wg   sync.WaitGroup
	)
	start := make(chan struct{})
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			req := seededReq(uint64(1000 + i))
			st, err := c.Submit(ctx, req)
			if err != nil {
				var apiErr *client.APIError
				if errors.As(err, &apiErr) &&
					(apiErr.StatusCode == http.StatusTooManyRequests ||
						apiErr.StatusCode == http.StatusServiceUnavailable) {
					atomic.AddInt32(&shed, 1)
					return
				}
				t.Errorf("submission %d: %v", i, err)
				return
			}
			mu.Lock()
			acc = append(acc, accepted{st.Key, reqJob(req)})
			mu.Unlock()
		}(i)
	}
	close(start)
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if len(acc) == 0 {
		t.Fatal("no submissions accepted")
	}
	if shed == 0 {
		t.Fatal("no submissions shed; the queue bound was never exercised")
	}
	t.Logf("overload: %d submitted, %d accepted, %d shed", n, len(acc), shed)

	// Every accepted job runs to completion, and its daemon-served stats
	// are byte-identical to a sequential runner simulating the same job.
	seq := runner.New(runner.Options{Workers: 1})
	for _, a := range acc {
		st, err := c.Wait(ctx, a.key)
		if err != nil {
			t.Fatalf("wait %s: %v", a.key, err)
		}
		if st.State != server.StateDone || st.Stats == nil {
			t.Fatalf("job %s = %s (%s), want done", a.key, st.State, st.Error)
		}
		ref := seq.Do(a.job)
		if ref.Err != nil {
			t.Fatalf("sequential reference %s: %v", a.key, ref.Err)
		}
		if !bytes.Equal(mustJSON(t, st.Stats), mustJSON(t, ref.Stats)) {
			t.Fatalf("job %s: daemon stats differ from sequential run", a.key)
		}
	}

	sz, err := c.Status(ctx)
	if err != nil {
		t.Fatalf("statusz: %v", err)
	}
	if sz.Panics != 0 {
		t.Fatalf("daemon recorded %d panics under load", sz.Panics)
	}
	if sz.RejectedQueue != int64(shed) {
		t.Fatalf("rejected_queue = %d, want %d", sz.RejectedQueue, shed)
	}
	if int(sz.Accepted) != len(acc) {
		t.Fatalf("accepted = %d, want %d", sz.Accepted, len(acc))
	}

	// The burst leaves nothing behind: connections and request handlers
	// wind down to (near) the pre-burst goroutine count.
	c.HTTPClient.CloseIdleConnections()
	ts.Client().CloseIdleConnections()
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if g := runtime.NumGoroutine(); g <= baseline+10 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not settle: baseline %d, now %d", baseline, runtime.NumGoroutine())
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestDrainPersistsAndRestartServes is the drain acceptance test:
// draining finishes admitted jobs and persists them, refuses new work
// with 503 + Retry-After, and a restarted daemon over the same cache
// directory serves the drained keys from disk.
func TestDrainPersistsAndRestartServes(t *testing.T) {
	dir := t.TempDir()
	opts := server.Options{Workers: 1, CoreOptions: server.CoreOptions{QueueDepth: 8},
		Runner: runner.Options{CacheDir: dir}}
	s := server.MustNew(opts)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := client.New(ts.URL)
	c.MaxRetries = -1
	ctx := context.Background()

	var keys []string
	for i := 0; i < 3; i++ {
		st, err := c.Submit(ctx, seededReq(uint64(2000+i)))
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		keys = append(keys, st.Key)
	}

	drainErr := make(chan error, 1)
	go func() { drainErr <- s.Drain(30 * time.Second) }()
	for !s.Draining() {
		time.Sleep(time.Millisecond)
	}

	// While draining: no new admissions, and readiness reports it.
	var apiErr *client.APIError
	_, err := c.Submit(ctx, seededReq(9999))
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining = %v, want 503", err)
	}
	if apiErr.Body.Kind != "draining" || apiErr.Body.RetryAfterSec < 1 {
		t.Fatalf("shed body = %+v, want draining with retry_after_sec >= 1", apiErr.Body)
	}
	if resp, err := http.Get(ts.URL + "/readyz"); err != nil || resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining = %v %v, want 503", resp, err)
	}

	if err := <-drainErr; err != nil {
		t.Fatalf("drain: %v", err)
	}

	// Every pre-drain job finished; the still-listening daemon serves it.
	firstStats := make(map[string][]byte)
	for _, k := range keys {
		st, err := c.Get(ctx, k)
		if err != nil {
			t.Fatalf("get %s after drain: %v", k, err)
		}
		if st.State != server.StateDone || st.Stats == nil {
			t.Fatalf("job %s after drain = %s (%s), want done", k, st.State, st.Error)
		}
		firstStats[k] = mustJSON(t, st.Stats)
	}

	// Restart: a fresh daemon over the same cache directory serves the
	// drained keys from the disk store without resimulating.
	s2, _, c2 := startDaemon(t, opts)
	for _, k := range keys {
		st, err := c2.Get(ctx, k)
		if err != nil {
			t.Fatalf("restarted get %s: %v", k, err)
		}
		if st.State != server.StateDone || st.Tier != runner.FromDisk.String() {
			t.Fatalf("restarted job %s = %s tier %q, want done from %s", k, st.State, st.Tier, runner.FromDisk)
		}
		if !bytes.Equal(mustJSON(t, st.Stats), firstStats[k]) {
			t.Fatalf("restarted stats for %s differ from the draining daemon's", k)
		}
	}
	if c := s2.Runner().Counters(); c.Simulated != 0 {
		t.Fatalf("restarted daemon simulated %d jobs, want 0 (disk hits)", c.Simulated)
	}
}

// TestDeadlineCancelsSlowJob: a client deadline far below the job's
// simulation time cancels it mid-run (503 canceled on the wait path),
// and the canceled key is resubmittable because cancellations are
// transient.
func TestDeadlineCancelsSlowJob(t *testing.T) {
	_, ts, c := startDaemon(t, server.Options{Workers: 1, CoreOptions: server.CoreOptions{QueueDepth: 4}})
	c.MaxRetries = -1
	ctx := context.Background()
	req := seededReq(31337)
	req.DeadlineMillis = 1

	var apiErr *client.APIError
	_, err := c.SubmitWait(ctx, req)
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("deadline submit = %v, want 503 canceled", err)
	}
	if apiErr.Body.Kind != "canceled" {
		t.Fatalf("kind = %q, want canceled", apiErr.Body.Kind)
	}

	key, err := reqJob(req).Key()
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.Get(ctx, key)
	if err != nil {
		t.Fatalf("get canceled job: %v", err)
	}
	if st.State != server.StateCanceled || st.Error == "" {
		t.Fatalf("status = %+v, want canceled with error", st)
	}

	// Resubmission without the deadline reruns the job to completion.
	req.DeadlineMillis = 0
	c2 := client.New(ts.URL)
	st2, err := c2.SubmitWait(ctx, req)
	if err != nil {
		t.Fatalf("resubmit after cancel: %v", err)
	}
	if st2.State != server.StateDone || st2.Stats == nil {
		t.Fatalf("resubmit = %+v, want done", st2)
	}
}

// TestSweepListInAdmissionOrder: GET /v1/sweeps lists the registry by
// admission sequence, not in map order. The jobs are submitted in
// descending key order, so neither key order nor (1 in 8!) map order
// passes by accident.
func TestSweepListInAdmissionOrder(t *testing.T) {
	_, _, c := startDaemon(t, server.Options{Workers: 2, CoreOptions: server.CoreOptions{QueueDepth: 16}})
	ctx := context.Background()

	type keyed struct {
		key string
		req server.SubmitRequest
	}
	var subs []keyed
	for seed := uint64(3100); seed < 3108; seed++ {
		req := seededReq(seed)
		key, err := reqJob(req).Key()
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, keyed{key, req})
	}
	sort.Slice(subs, func(i, j int) bool { return subs[i].key > subs[j].key })
	for _, sub := range subs {
		st, err := c.Submit(ctx, sub.req)
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		if st.Key != sub.key {
			t.Fatalf("daemon key %s, computed %s", st.Key, sub.key)
		}
	}

	inv, err := c.SweepList(ctx)
	if err != nil {
		t.Fatalf("sweep list: %v", err)
	}
	if len(inv.Jobs) != len(subs) {
		t.Fatalf("inventory = %d jobs, want %d", len(inv.Jobs), len(subs))
	}
	for i, jb := range inv.Jobs {
		if jb.Key != subs[i].key {
			t.Fatalf("inventory[%d] = %.8s, want %.8s (admission order)", i, jb.Key, subs[i].key)
		}
	}
}

func TestSweepSubmitAndList(t *testing.T) {
	_, _, c := startDaemon(t, server.Options{Workers: 2, CoreOptions: server.CoreOptions{QueueDepth: 8}})
	ctx := context.Background()

	reqs := []server.SubmitRequest{
		seededReq(3001), seededReq(3002), seededReq(3003),
		{Workload: "no-such-benchmark"},
	}
	resp, err := c.Sweep(ctx, reqs)
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	if resp.Rejected != 1 || len(resp.Jobs) != 4 {
		t.Fatalf("sweep = %d rejected of %d, want 1 of 4", resp.Rejected, len(resp.Jobs))
	}
	for i := 0; i < 3; i++ {
		if resp.Jobs[i].Key == "" || resp.Jobs[i].Rejected != "" {
			t.Fatalf("element %d = %+v, want admitted", i, resp.Jobs[i])
		}
		if _, err := c.Wait(ctx, resp.Jobs[i].Key); err != nil {
			t.Fatalf("wait %s: %v", resp.Jobs[i].Key, err)
		}
	}
	if resp.Jobs[3].Rejected != "bad-request" {
		t.Fatalf("bad element = %+v, want bad-request", resp.Jobs[3])
	}

	inv, err := c.SweepList(ctx)
	if err != nil {
		t.Fatalf("sweep list: %v", err)
	}
	if len(inv.Jobs) != 3 {
		t.Fatalf("inventory = %d jobs, want 3", len(inv.Jobs))
	}
	for _, jb := range inv.Jobs {
		if jb.State != server.StateDone || jb.Stats != nil {
			t.Fatalf("inventory entry = %+v, want done without inline stats", jb)
		}
	}
}
