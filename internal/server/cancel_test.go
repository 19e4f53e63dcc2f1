// Tests for the cancellation endpoint and the structured readiness
// states — the two server-side primitives the fleet coordinator builds
// on: cancel is how preemption stops a running job without discarding
// its checkpoint trail, and the readyz State string is what the
// failure detector reads to tell a draining worker from a dead one.
package server_test

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"gpushare/internal/client"
	"gpushare/internal/server"
)

// newTestServer serves s without the drain-on-cleanup of startDaemon,
// for tests that kill or drain the server themselves.
func newTestServer(t *testing.T, s *server.Server) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// waitForState polls a job until it reaches want or the deadline ends.
func waitForState(t *testing.T, c *client.Client, key, want string) *server.JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st, err := c.Get(context.Background(), key)
		if err != nil {
			t.Fatalf("get %s: %v", key, err)
		}
		if st.State == want {
			return st
		}
		time.Sleep(10 * time.Millisecond)
	}
	st, _ := c.Get(context.Background(), key)
	t.Fatalf("job %s never reached state %q (stuck at %+v)", key, want, st)
	return nil
}

func TestCancelQueuedAndRunning(t *testing.T) {
	opts := server.Options{Workers: 1, CoreOptions: server.CoreOptions{QueueDepth: 8}}
	plan := holdFirstJob(t, &opts.Runner)
	_, _, c := startDaemon(t, opts)
	ctx := context.Background()

	// With one worker the first job runs and the second sits queued. The
	// first is held at its first checkpoint, so the cancel lands
	// mid-simulation.
	running, err := c.Submit(ctx, seededReq(9001))
	if err != nil {
		t.Fatalf("submit running: %v", err)
	}
	awaitHold(t, plan)
	queued, err := c.Submit(ctx, seededReq(9002))
	if err != nil {
		t.Fatalf("submit queued: %v", err)
	}

	// Cancel the queued job while the slow one still occupies the only
	// worker: it flips terminally without ever touching the simulator.
	if _, err := c.Cancel(ctx, queued.Key); err != nil {
		t.Fatalf("cancel queued: %v", err)
	}
	st := waitForState(t, c, queued.Key, server.StateCanceled)
	if st.Error == "" {
		t.Fatalf("canceled job carries no error: %+v", st)
	}

	// Cancel the running job: its attempt returns on the canceled
	// context although the simulation is still held.
	if _, err := c.Cancel(ctx, running.Key); err != nil {
		t.Fatalf("cancel running: %v", err)
	}
	got := waitForState(t, c, running.Key, server.StateCanceled)
	if got.Stats != nil {
		t.Fatalf("canceled job reports stats: %+v", got)
	}

	// Unknown keys are a clean 404, not a silent no-op.
	var apiErr *client.APIError
	if _, err := c.Cancel(ctx, "no-such-key"); !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusNotFound {
		t.Fatalf("cancel unknown = %v, want 404", err)
	}
}

// TestCancelIsNotDeletion: a canceled job's key resubmits cleanly —
// cancellation means "stop computing", the admission slot is not
// poisoned.
func TestCancelIsNotDeletion(t *testing.T) {
	opts := server.Options{Workers: 1, CoreOptions: server.CoreOptions{QueueDepth: 8}}
	plan := holdFirstJob(t, &opts.Runner)
	_, ts, c := startDaemon(t, opts)
	ctx := context.Background()

	// The job is held at its first checkpoint, so the cancel lands before
	// the run completes.
	st, err := c.Submit(ctx, seededReq(9003))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	awaitHold(t, plan)
	if _, err := c.Cancel(ctx, st.Key); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	waitForState(t, c, st.Key, server.StateCanceled)

	// A fresh client (no retry state) resubmits the same content key.
	c2 := client.New(ts.URL)
	got, err := c2.SubmitWait(ctx, seededReq(9003))
	if err != nil {
		t.Fatalf("resubmit after cancel: %v", err)
	}
	if got.State != server.StateDone || got.Stats == nil {
		t.Fatalf("resubmit = %+v, want done with stats", got)
	}
}

// TestReadyzStates: the readiness probe always carries a structured
// body, and its State string distinguishes the 503 flavors the fleet
// failure detector must tell apart.
func TestReadyzStates(t *testing.T) {
	s := server.MustNew(server.Options{Workers: 1, CoreOptions: server.CoreOptions{QueueDepth: 8}})
	ts := newTestServer(t, s)
	c := client.New(ts.URL)
	ctx := context.Background()

	st, err := c.Ready(ctx)
	if err != nil {
		t.Fatalf("ready: %v", err)
	}
	if !st.Ready || st.State != server.ReadyOK {
		t.Fatalf("readyz = %+v, want ready/%s", st, server.ReadyOK)
	}
	if st.QueueCap != 8 {
		t.Fatalf("queue cap = %d, want 8", st.QueueCap)
	}

	// Draining: alive, owed work finishing, new jobs steered away.
	go s.Drain(30 * time.Second)
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err = c.Ready(ctx)
		if err != nil {
			t.Fatalf("ready while draining: %v", err)
		}
		if st.State == server.ReadyDraining {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("readyz never reported draining (last %+v)", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st.Ready || st.RetryAfterSec < 1 {
		t.Fatalf("draining readyz = %+v, want not-ready with retry hint", st)
	}
}

// TestReadyzDeadAfterKill: an in-process kill leaves the listener
// answering — and the body says "dead", which the coordinator treats
// exactly like a silent death (requeue everything it held).
func TestReadyzDeadAfterKill(t *testing.T) {
	s := server.MustNew(server.Options{Workers: 1, CoreOptions: server.CoreOptions{QueueDepth: 8}})
	ts := newTestServer(t, s)
	c := client.New(ts.URL)
	ctx := context.Background()

	s.Kill()
	st, err := c.Ready(ctx)
	if err != nil {
		t.Fatalf("ready after kill: %v", err)
	}
	if st.Ready || st.State != server.ReadyDead {
		t.Fatalf("readyz after kill = %+v, want dead", st)
	}

	status, err := c.Status(ctx)
	if err != nil {
		t.Fatalf("statusz after kill: %v", err)
	}
	if status.State != "dead" {
		t.Fatalf("statusz state = %q, want dead", status.State)
	}
}

// TestStatuszBuildAndUptime: /statusz identifies the binary (simulator
// fingerprint, toolchain) and reports uptime, so a fleet operator can
// spot version skew across workers from the coordinator.
func TestStatuszBuildAndUptime(t *testing.T) {
	_, _, c := startDaemon(t, server.Options{Workers: 1, CoreOptions: server.CoreOptions{QueueDepth: 4}})
	st, err := c.Status(context.Background())
	if err != nil {
		t.Fatalf("statusz: %v", err)
	}
	if st.Build.Fingerprint == "" {
		t.Fatal("statusz build carries no simulator fingerprint")
	}
	if st.Build.GoVersion == "" {
		t.Fatal("statusz build carries no Go version")
	}
	if st.UptimeSec < 0 {
		t.Fatalf("uptime = %f, want >= 0", st.UptimeSec)
	}
	if st.State != "serving" {
		t.Fatalf("state = %q, want serving", st.State)
	}
}
