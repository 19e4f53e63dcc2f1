// Tests for the held wait (GET /v1/jobs/{key}?wait= and POST ?wait=1):
// what ends a hold and what the reply looks like in each case. They
// assert on events and request counts, never on elapsed time, except
// that a reply which should be immediate must beat a context deadline
// far below the 20s hold bound.
package server_test

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gpushare/internal/client"
	"gpushare/internal/fault"
	"gpushare/internal/runner"
	"gpushare/internal/server"
)

// holdDaemon serves s behind a middleware that counts held GETs as they
// arrive and signals released when one returns.
type holdDaemon struct {
	s        *server.Server
	url      string
	c        *client.Client
	waits    atomic.Int32
	released chan struct{}
}

func startHoldDaemon(t *testing.T, s *server.Server) *holdDaemon {
	t.Helper()
	d := &holdDaemon{s: s, released: make(chan struct{}, 1)}
	h := s.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		held := r.Method == http.MethodGet && server.WantsHold(r)
		if held {
			d.waits.Add(1)
		}
		h.ServeHTTP(w, r)
		if held {
			select {
			case d.released <- struct{}{}:
			default:
			}
		}
	}))
	t.Cleanup(func() {
		s.Kill() // idempotent; aborts whatever a test left running
		ts.Close()
	})
	d.url = ts.URL
	d.c = client.New(ts.URL)
	d.c.MaxRetries = -1
	return d
}

// holdFirstJob arms ro so that the first job its runner simulates
// stops at that job's first checkpoint (cycle 1000 of gaussian's some
// 6 400 at scale 1) until the returned plan is released. A test that
// must act while a job runs waits for the hold (awaitHold), acts, and
// releases; cleanup releases in any case. No job is sized by its run
// time.
func holdFirstJob(t *testing.T, ro *runner.Options) *fault.Plan {
	t.Helper()
	plan := &fault.Plan{Kind: fault.HoldAtCheckpoint, Nth: 1}
	ro.CheckpointDir, ro.CheckpointStride, ro.CheckpointFaults = t.TempDir(), 1000, plan
	t.Cleanup(plan.Release)
	return plan
}

// awaitHold waits until plan holds a job.
func awaitHold(t *testing.T, plan *fault.Plan) {
	t.Helper()
	select {
	case <-plan.Held():
	case <-time.After(time.Minute):
		t.Fatal("no job reached its first checkpoint")
	}
}

// holdOpts is one simulation at a time, the first one held.
func holdOpts(t *testing.T) (server.Options, *fault.Plan) {
	opts := server.Options{Workers: 1, CoreOptions: server.CoreOptions{QueueDepth: 4}}
	return opts, holdFirstJob(t, &opts.Runner)
}

// rawJSON performs one exchange outside internal/client, so the status
// code and the body of a non-2xx reply are both visible.
func rawJSON(ctx context.Context, t *testing.T, method, url, body string, out any) int {
	t.Helper()
	req, err := http.NewRequestWithContext(ctx, method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("%s %s: decode: %v", method, url, err)
	}
	return resp.StatusCode
}

// TestHeldGetWithNothingToWaitFor: an unknown key is 404 and a key that
// only the disk tier knows is 200 done, both at once — neither has a
// done channel to wait on.
func TestHeldGetWithNothingToWaitFor(t *testing.T) {
	dir := t.TempDir()
	opts := server.Options{Workers: 1, CoreOptions: server.CoreOptions{QueueDepth: 4}, Runner: runner.Options{CacheDir: dir}}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	first := startHoldDaemon(t, server.MustNew(opts))
	st, err := first.c.SubmitWait(ctx, seededReq(9101))
	if err != nil || st.State != server.StateDone {
		t.Fatalf("submit = %+v, %v; want done", st, err)
	}
	if err := first.s.Drain(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	d := startHoldDaemon(t, server.MustNew(opts))
	var errBody server.ErrorBody
	if code := rawJSON(ctx, t, "GET", d.url+"/v1/jobs/no-such-key?wait=1", "", &errBody); code != http.StatusNotFound {
		t.Fatalf("held GET of an unknown key = %d, want 404", code)
	}
	var got server.JobStatus
	if code := rawJSON(ctx, t, "GET", d.url+"/v1/jobs/"+st.Key+"?wait=1", "", &got); code != http.StatusOK {
		t.Fatalf("held GET of a disk-tier key = %d, want 200", code)
	}
	if got.State != server.StateDone || got.Tier != runner.FromDisk.String() || got.Held {
		t.Fatalf("disk-tier key = %+v, want done from %s", got, runner.FromDisk)
	}
}

// TestHeldGetReleasedByDisconnect: a caller that goes away mid-hold
// frees its handler while the job runs on.
func TestHeldGetReleasedByDisconnect(t *testing.T) {
	opts, plan := holdOpts(t)
	d := startHoldDaemon(t, server.MustNew(opts))
	bg := context.Background()
	st, err := d.c.Submit(bg, seededReq(9102))
	if err != nil {
		t.Fatal(err)
	}
	awaitHold(t, plan)

	ctx, hangUp := context.WithCancel(bg)
	waitErr := make(chan error, 1)
	go func() {
		_, err := d.c.Wait(ctx, st.Key)
		waitErr <- err
	}()
	for d.waits.Load() == 0 { // the held GET has reached the daemon
		time.Sleep(time.Millisecond)
	}
	hangUp()
	select {
	case <-d.released:
	case <-time.After(10 * time.Second):
		t.Fatal("the handler still holds a request whose caller hung up")
	}
	if err := <-waitErr; err == nil {
		t.Fatal("Wait returned a status after its context was canceled")
	}
	if now, err := d.c.Get(bg, st.Key); err != nil || server.Terminal(now.State) {
		t.Fatalf("job after the hang-up = %+v, %v; want it still going", now, err)
	}
}

// TestHeldGetReportsCancelAsStatus: GET ?wait= answers a canceled job
// with 200 and the status — the coordinator has to see it to requeue —
// where POST ?wait=1 answers the same job with a retryable 503.
func TestHeldGetReportsCancelAsStatus(t *testing.T) {
	opts, plan := holdOpts(t)
	d := startHoldDaemon(t, server.MustNew(opts))
	bg := context.Background()
	st, err := d.c.Submit(bg, seededReq(9103))
	if err != nil {
		t.Fatal(err)
	}
	awaitHold(t, plan)
	type reply struct {
		st  *server.JobStatus
		err error
	}
	got := make(chan reply, 1)
	go func() {
		// A 503 here would come back as an *APIError, not a status.
		st, err := d.c.Wait(bg, st.Key)
		got <- reply{st, err}
	}()
	for d.waits.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	if _, err := d.c.Cancel(bg, st.Key); err != nil {
		t.Fatal(err)
	}
	r := <-got
	if r.err != nil || r.st.State != server.StateCanceled || r.st.Held {
		t.Fatalf("held GET across a cancel = %+v, %v; want 200 with state canceled", r.st, r.err)
	}
	if d.waits.Load() != 1 {
		t.Fatalf("%d held GETs, want the one", d.waits.Load())
	}
}

// TestHoldExpiryIsAnOrdinaryReply: with a 10ms bound and a job held at
// its first checkpoint, GET ?wait= answers 200 non-terminal with Held,
// POST ?wait=1 answers 202, and a client with no retry budget at all
// still gets the result, re-asking as each hold runs out.
func TestHoldExpiryIsAnOrdinaryReply(t *testing.T) {
	opts, plan := holdOpts(t)
	d := startHoldDaemon(t, server.NewWithHold(opts, 10*time.Millisecond))
	bg := context.Background()
	req := seededReq(9104)
	body := string(mustJSON(t, req))

	var st server.JobStatus
	if code := rawJSON(bg, t, "POST", d.url+"/v1/jobs?wait=1", body, &st); code != http.StatusAccepted || server.Terminal(st.State) {
		t.Fatalf("POST ?wait=1 past the bound = %d %+v, want 202 and a live job", code, st)
	}
	var held server.JobStatus
	if code := rawJSON(bg, t, "GET", d.url+"/v1/jobs/"+st.Key+"?wait=1", "", &held); code != http.StatusOK {
		t.Fatalf("GET ?wait= past the bound = %d, want 200", code)
	}
	if server.Terminal(held.State) || !held.Held {
		t.Fatalf("GET ?wait= past the bound = %+v, want a live job marked held", held)
	}
	var plain server.JobStatus
	rawJSON(bg, t, "GET", d.url+"/v1/jobs/"+st.Key, "", &plain)
	if plain.Held {
		t.Fatalf("plain GET = %+v, must not claim to have held", plain)
	}

	before := d.waits.Load()
	type reply struct {
		st  *server.JobStatus
		err error
	}
	got := make(chan reply, 1)
	go func() {
		st, err := d.c.SubmitWait(bg, req)
		got <- reply{st, err}
	}()
	// The job stays held until the client has asked twice more, so each
	// of those asks ran its hold out.
	for d.waits.Load()-before < 2 {
		select {
		case r := <-got:
			t.Fatalf("SubmitWait returned %+v, %v while the job was held", r.st, r.err)
		default:
		}
		time.Sleep(time.Millisecond)
	}
	plan.Release()
	r := <-got
	if r.err != nil || r.st.State != server.StateDone || r.st.Stats == nil {
		t.Fatalf("SubmitWait across expiring holds = %+v, %v; want done", r.st, r.err)
	}
	if n := d.waits.Load() - before; n < 2 {
		t.Fatalf("the client sent %d held GETs for a job of many holds, want several", n)
	}
}

// TestDrainNotDelayedByHeldWaiters: Drain waits for the jobs, not for
// whoever is waiting on them; the held request is answered by the job
// finishing, well inside its bound.
func TestDrainNotDelayedByHeldWaiters(t *testing.T) {
	opts, plan := holdOpts(t)
	d := startHoldDaemon(t, server.MustNew(opts))
	bg := context.Background()
	st, err := d.c.Submit(bg, seededReq(9105))
	if err != nil {
		t.Fatal(err)
	}
	awaitHold(t, plan)
	got := make(chan *server.JobStatus, 1)
	go func() {
		final, _ := d.c.Wait(bg, st.Key)
		got <- final
	}()
	for d.waits.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	drained := make(chan error, 1)
	go func() { drained <- d.s.Drain(60 * time.Second) }()
	for !d.s.Draining() {
		time.Sleep(time.Millisecond)
	}
	plan.Release() // the drain began with the job still running
	if err := <-drained; err != nil {
		t.Fatalf("drain with a held waiter: %v", err)
	}
	select {
	case final := <-got:
		if final == nil || final.State != server.StateDone {
			t.Fatalf("held waiter across a drain got %+v, want done", final)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the drain finished the job but its waiter is still held")
	}
}
