// Dispatch-protocol tests against a stub worker: an httptest server that
// speaks the four worker endpoints the coordinator uses, counts requests
// per job key, and finishes a job only when the test says so. Every
// coordinator clock in these tests (lease, probe, hold-down) is an hour,
// so whatever happens in them happened because of an event, and the
// assertions are on request counts and states, not on elapsed time.
package fleet_test

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"gpushare/internal/client"
	"gpushare/internal/fault"
	"gpushare/internal/fleet"
	"gpushare/internal/runner"
	"gpushare/internal/server"
	"gpushare/internal/stats"
)

type stubJob struct {
	state string
	done  chan struct{}
}

// stubWorker is a gserved stand-in. hold is its ?wait= bound.
type stubWorker struct {
	url  string
	hold time.Duration

	mu                   sync.Mutex
	jobs                 map[string]*stubJob
	posts, gets, cancels map[string]int
	expired              map[string]int // held GETs answered non-terminal

	submitted chan string // a key, on every POST /v1/jobs
	lapsed    chan string // a key, on every hold that ran out
	hungUp    chan string // a key, on every hold its caller abandoned
}

func startStubWorker(t *testing.T, hold time.Duration) *stubWorker {
	t.Helper()
	w := &stubWorker{hold: hold,
		jobs: map[string]*stubJob{}, posts: map[string]int{}, gets: map[string]int{},
		cancels: map[string]int{}, expired: map[string]int{},
		submitted: make(chan string, 64), lapsed: make(chan string, 64), hungUp: make(chan string, 64)}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", w.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{key}", w.handleGet)
	mux.HandleFunc("POST /v1/jobs/{key}/cancel", w.handleCancel)
	mux.HandleFunc("GET /readyz", func(rw http.ResponseWriter, _ *http.Request) {
		_ = json.NewEncoder(rw).Encode(server.ReadyzStatus{Ready: true, State: server.ReadyOK})
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	w.url = ts.URL
	return w
}

// stubKey computes the content key the way gserved and gsched do; every
// request in these tests comes from seededReq, config and scale set.
func stubKey(req *server.SubmitRequest) string {
	key, err := runner.Job{Workload: req.Workload, Config: *req.Config, Scale: req.Scale}.Key()
	if err != nil {
		panic(err)
	}
	return key
}

func (w *stubWorker) statusLocked(key string) server.JobStatus {
	st := server.JobStatus{Key: key, State: w.jobs[key].state}
	if st.State == server.StateDone {
		st.Stats = &stats.GPU{Cycles: 1}
	}
	return st
}

func (w *stubWorker) handleSubmit(rw http.ResponseWriter, r *http.Request) {
	var req server.SubmitRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(rw, err.Error(), http.StatusBadRequest)
		return
	}
	key := stubKey(&req)
	w.mu.Lock()
	w.posts[key]++
	code := http.StatusOK
	if jb, ok := w.jobs[key]; !ok || jb.state == server.StateCanceled {
		w.jobs[key] = &stubJob{state: server.StateRunning, done: make(chan struct{})}
		code = http.StatusAccepted
	}
	st := w.statusLocked(key)
	w.mu.Unlock()
	rw.WriteHeader(code)
	_ = json.NewEncoder(rw).Encode(st)
	w.submitted <- key
}

func (w *stubWorker) handleGet(rw http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	w.mu.Lock()
	w.gets[key]++
	jb := w.jobs[key]
	w.mu.Unlock()
	if jb == nil {
		http.Error(rw, "unknown key", http.StatusNotFound)
		return
	}
	expired := false
	if server.WantsHold(r) {
		_, expired = server.Hold(r, jb.done, nil, w.hold)
	}
	if r.Context().Err() != nil {
		w.hungUp <- key
		return
	}
	w.mu.Lock()
	st := w.statusLocked(key)
	expired = expired && !server.Terminal(st.State)
	st.Held = expired
	if expired {
		w.expired[key]++
	}
	w.mu.Unlock()
	_ = json.NewEncoder(rw).Encode(st)
	if expired {
		w.lapsed <- key
	}
}

func (w *stubWorker) handleCancel(rw http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	w.mu.Lock()
	w.cancels[key]++
	w.mu.Unlock()
	w.finish(key, server.StateCanceled)
	w.mu.Lock()
	st := w.statusLocked(key)
	w.mu.Unlock()
	_ = json.NewEncoder(rw).Encode(st)
}

// finish moves a running job to a terminal state.
func (w *stubWorker) finish(key, state string) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if jb := w.jobs[key]; jb != nil && jb.state == server.StateRunning {
		jb.state = state
		close(jb.done)
	}
}

// counts returns the POSTs, GETs and cancels seen for key.
func (w *stubWorker) counts(key string) (posts, gets, cancels int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.posts[key], w.gets[key], w.cancels[key]
}

// await receives the next value from ch, failing the test after 10s.
func await(t *testing.T, ch <-chan string, what string) string {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(10 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
		return ""
	}
}

// clocklessOptions is a coordinator over w whose every timer is an hour
// away: the registration's grace lease keeps the worker alive, and no
// probe, hold-down or lease expiry can fire during a test.
func clocklessOptions(w *stubWorker) fleet.Options {
	return fleet.Options{Workers: []string{w.url}, LeaseTTL: time.Hour, ProbeInterval: time.Hour}
}

// fleetSubmitWait runs POST ?wait=1 through the coordinator with no
// retry budget and delivers the outcome on the returned channel.
type waitReply struct {
	st  *server.JobStatus
	err error
}

func fleetSubmitWait(base string, req fleet.SubmitRequest) <-chan waitReply {
	out := make(chan waitReply, 1)
	go func() {
		cl := client.New(base)
		cl.MaxRetries = -1
		st, err := cl.SubmitWait(context.Background(), req.SubmitRequest)
		out <- waitReply{st, err}
	}()
	return out
}

// TestDispatchCostsOnePostAndOneGet: a job shorter than one hold costs
// its worker exactly one POST and one held GET, and the waiting client
// is answered by the completion itself.
func TestDispatchCostsOnePostAndOneGet(t *testing.T) {
	w := startStubWorker(t, server.HoldBound)
	_, base := startCoordinator(t, clocklessOptions(w))

	req := seededReq(5000, 1)
	reply := fleetSubmitWait(base, req)
	key := await(t, w.submitted, "the dispatch")
	w.finish(key, server.StateDone)

	select {
	case r := <-reply:
		if r.err != nil || r.st.State != fleet.JobDone || r.st.Key != key || r.st.Stats == nil {
			t.Fatalf("reply through the coordinator = %+v, %v; want done", r.st, r.err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the worker finished the job but the coordinator's client is still waiting")
	}
	if posts, gets, _ := w.counts(key); posts != 1 || gets != 1 {
		t.Fatalf("worker saw %d POST and %d GET for the job, want 1 and 1", posts, gets)
	}
	if st := fleetStatusz(t, base); st.Requeues != 0 || st.Completed != 1 || st.Failed != 0 {
		t.Fatalf("statusz = requeues %d completed %d failed %d, want 0/1/0", st.Requeues, st.Completed, st.Failed)
	}
}

// TestJobOutlivesManyHolds: with 50ms holds on both daemons, a job that
// finishes only after six of the worker's holds have run out costs one
// POST and one GET per expired hold plus the final one — each expiry is
// re-asked at once, none is a dispatch failure — and the coordinator's
// own clients are carried across its expiring holds the same way.
func TestJobOutlivesManyHolds(t *testing.T) {
	const holds = 6
	w := startStubWorker(t, 50*time.Millisecond)
	c, err := fleet.NewWithHold(clocklessOptions(w), 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(func() {
		c.Kill()
		ts.Close()
	})

	req := seededReq(5001, 1)
	reply := fleetSubmitWait(ts.URL, req)
	key := await(t, w.submitted, "the dispatch")
	for i := 0; i < holds; i++ {
		await(t, w.lapsed, "a worker-side hold to run out")
	}

	// Mid-job, the coordinator's held GET runs out too and says so.
	var mid fleet.JobStatus
	if code := doJSON(t, "GET", ts.URL+"/v1/jobs/"+key+"?wait=1", nil, &mid); code != http.StatusOK {
		t.Fatalf("held GET on the coordinator = %d, want 200", code)
	}
	if mid.State != fleet.JobDispatched || !mid.Held {
		t.Fatalf("held GET on the coordinator mid-job = %+v, want dispatched and held", mid)
	}

	w.finish(key, server.StateDone)
	if r := <-reply; r.err != nil || r.st.State != fleet.JobDone {
		t.Fatalf("reply through the coordinator = %+v, %v; want done", r.st, r.err)
	}
	w.mu.Lock()
	posts, gets, expired := w.posts[key], w.gets[key], w.expired[key]
	w.mu.Unlock()
	// The GET after the last counted expiry may itself run out before
	// finish lands (the mid-job check above takes a hold's time), so the
	// count is tied to the expiries seen, not to a fixed number.
	if posts != 1 || gets != expired+1 || expired < holds {
		t.Fatalf("worker saw %d POST, %d GET, %d expired holds; want 1 POST and one GET per expiry plus the final one",
			posts, gets, expired)
	}
	if st := fleetStatusz(t, ts.URL); st.Requeues != 0 || st.Completed != 1 || st.Failed != 0 {
		t.Fatalf("statusz = requeues %d completed %d failed %d, want 0/1/0: an expired hold is not a dispatch failure",
			st.Requeues, st.Completed, st.Failed)
	}
}

// TestPreemptionNeedsNoInterval: a priority-9 arrival against a full
// worker cancels the victim; the victim's held wait sees the canceled
// state, the victim is requeued and the slot goes to the arrival — all
// with every clock an hour away.
func TestPreemptionNeedsNoInterval(t *testing.T) {
	w := startStubWorker(t, server.HoldBound)
	_, base := startCoordinator(t, clocklessOptions(w))

	low := seededReq(5002, 1)
	lowKey := submitJob(t, base, low).Key
	if got := await(t, w.submitted, "the low-priority dispatch"); got != lowKey {
		t.Fatalf("dispatched %s, want the low-priority job", got)
	}

	high := seededReq(5003, 1)
	high.Priority = 9
	highKey := submitJob(t, base, high).Key
	if got := await(t, w.submitted, "the high-priority dispatch"); got != highKey {
		t.Fatalf("dispatched %s after the preemption, want the priority-9 job", got)
	}
	var victim fleet.JobStatus
	doJSON(t, "GET", base+"/v1/jobs/"+lowKey, nil, &victim)
	if victim.State != fleet.JobQueued || victim.Preemptions != 1 || victim.Requeues != 1 {
		t.Fatalf("victim = %+v, want queued after one preemption", victim)
	}
	if _, _, cancels := w.counts(lowKey); cancels != 1 {
		t.Fatalf("worker saw %d cancels for the victim, want 1", cancels)
	}

	// The arrival finishes; the victim gets the slot back and finishes.
	w.finish(highKey, server.StateDone)
	if got := await(t, w.submitted, "the victim's second dispatch"); got != lowKey {
		t.Fatalf("dispatched %s, want the victim again", got)
	}
	w.finish(lowKey, server.StateDone)
	for _, key := range []string{highKey, lowKey} {
		var st fleet.JobStatus
		if code := doJSON(t, "GET", base+"/v1/jobs/"+key+"?wait=1", nil, &st); code != http.StatusOK || st.State != fleet.JobDone {
			t.Fatalf("job %s = %d %+v, want done", key, code, st)
		}
	}
	if posts, gets, _ := w.counts(lowKey); posts != 2 || gets != 2 {
		t.Fatalf("victim cost the worker %d POST and %d GET, want 2 and 2 (one pair per dispatch)", posts, gets)
	}
}

// TestLeaseExpiryAbortsHeldWait: a partitioned worker's held request is
// cut by the lease rules — markDead requeues the job and cancels the
// dispatch — and nothing of the dispatch is left behind: no goroutine,
// no connection.
func TestLeaseExpiryAbortsHeldWait(t *testing.T) {
	w := startStubWorker(t, server.HoldBound)
	tr := &http.Transport{}
	_, base := startCoordinator(t, fleet.Options{
		Workers:       []string{w.url},
		LeaseTTL:      500 * time.Millisecond,
		ProbeInterval: 100 * time.Millisecond,
		CoreOptions:   server.CoreOptions{Faults: &fault.Plan{Kind: fault.HeartbeatBlackhole, Nth: 1}},
		NewClient: func(url string) *client.Client {
			cl := client.New(url)
			cl.MaxRetries = 0
			cl.HTTPClient = &http.Client{Transport: tr, Timeout: 30 * time.Second}
			return cl
		},
	})
	settle := func() int {
		tr.CloseIdleConnections()
		http.DefaultClient.CloseIdleConnections()
		runtime.GC()
		return runtime.NumGoroutine()
	}
	fleetStatusz(t, base) // the test's own connection to the coordinator exists before the baseline
	baseline := settle()

	key := submitJob(t, base, seededReq(5004, 1)).Key
	await(t, w.submitted, "the dispatch")
	if got := await(t, w.hungUp, "the lease expiry to abort the held wait"); got != key {
		t.Fatalf("aborted hold was for %s, want %s", got, key)
	}
	st := fleetStatusz(t, base)
	if st.WorkerDeaths != 1 || st.Requeues != 1 || st.Completed+st.Failed != 0 {
		t.Fatalf("statusz = deaths %d requeues %d completed %d failed %d, want 1/1/0/0",
			st.WorkerDeaths, st.Requeues, st.Completed, st.Failed)
	}
	var job fleet.JobStatus
	doJSON(t, "GET", base+"/v1/jobs/"+key, nil, &job)
	if job.State != fleet.JobQueued {
		t.Fatalf("orphan = %+v, want queued for the next live worker", job)
	}

	deadline := time.Now().Add(10 * time.Second)
	for settle() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines did not settle: baseline %d, now %d\n%s",
				baseline, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestDrainReturnsOnCompletion: Drain wakes on the job turning terminal
// — the 60s it was given is a bound, not a schedule.
func TestDrainReturnsOnCompletion(t *testing.T) {
	w := startStubWorker(t, server.HoldBound)
	c, base := startCoordinator(t, clocklessOptions(w))

	key := submitJob(t, base, seededReq(5005, 1)).Key
	await(t, w.submitted, "the dispatch")
	drained := make(chan error, 1)
	go func() { drained <- c.Drain(60 * time.Second) }()
	for !c.Draining() {
		time.Sleep(time.Millisecond)
	}
	select {
	case err := <-drained:
		t.Fatalf("drain returned (%v) with a job still dispatched", err)
	default:
	}
	w.finish(key, server.StateDone)
	select {
	case err := <-drained:
		if err != nil {
			t.Fatalf("drain: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the last job finished but Drain is still waiting")
	}
}

// TestStoppingCoordinatorAnswersUnmarked: a hold cut short because the
// daemon is going away is answered non-terminal but not Held — Held
// means "ask again at once", and a stopping daemon would answer at once
// every time.
func TestStoppingCoordinatorAnswersUnmarked(t *testing.T) {
	w := startStubWorker(t, server.HoldBound)
	c, err := fleet.New(clocklessOptions(w))
	if err != nil {
		t.Fatal(err)
	}
	h := c.Handler()
	arrived := make(chan struct{}, 1)
	ts := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet && server.WantsHold(r) {
			arrived <- struct{}{}
		}
		h.ServeHTTP(rw, r)
	}))
	t.Cleanup(func() {
		c.Kill()
		ts.Close()
	})

	key := submitJob(t, ts.URL, seededReq(5007, 1)).Key
	await(t, w.submitted, "the dispatch")
	go func() {
		<-arrived
		c.Kill()
	}()
	var st fleet.JobStatus
	if code := doJSON(t, "GET", ts.URL+"/v1/jobs/"+key+"?wait=1", nil, &st); code != http.StatusOK {
		t.Fatalf("held GET across the stop = %d, want 200", code)
	}
	if server.Terminal(st.State) || st.Held {
		t.Fatalf("held GET across the stop = %+v, want a live job, not marked held", st)
	}
}

// TestFailureDetailSurvivesTheCoordinator: a job that fails on the
// worker answers POST ?wait=1 through gsched with the same error kind
// and diagnosis gserved itself reports, not a bare "failed".
func TestFailureDetailSurvivesTheCoordinator(t *testing.T) {
	_, w1 := startWorker(t, server.Options{})
	_, base := startCoordinator(t, fleet.Options{Workers: []string{w1}})

	req := seededReq(5006, 1)
	req.Config.MaxCycles = 500 // far too few: the run ends in a max-cycles error

	var viaFleet, direct server.ErrorBody
	if code := doJSON(t, "POST", base+"/v1/jobs?wait=1", req, &viaFleet); code != http.StatusInternalServerError {
		t.Fatalf("failing job through gsched = %d, want 500", code)
	}
	if code := doJSON(t, "POST", w1+"/v1/jobs?wait=1", req.SubmitRequest, &direct); code != http.StatusInternalServerError {
		t.Fatalf("failing job through gserved = %d, want 500", code)
	}
	if direct.Kind != "max-cycles" {
		t.Fatalf("gserved reports kind %q, want max-cycles (the test needs a different way to fail otherwise)", direct.Kind)
	}
	if viaFleet.Kind != direct.Kind || viaFleet.Diagnosis != direct.Diagnosis || viaFleet.Error == "" {
		t.Fatalf("through gsched: kind %q, %d bytes of diagnosis, error %q; gserved said kind %q, %d bytes",
			viaFleet.Kind, len(viaFleet.Diagnosis), viaFleet.Error, direct.Kind, len(direct.Diagnosis))
	}
}
