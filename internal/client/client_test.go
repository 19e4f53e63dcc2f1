package client

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gpushare/internal/server"
)

// fastClient returns a client with millisecond backoff so retry tests
// stay quick.
func fastClient(url string) *Client {
	c := New(url)
	c.BaseBackoff = 2 * time.Millisecond
	c.MaxBackoff = 10 * time.Millisecond
	return c
}

func TestRetryOnShedThenSuccess(t *testing.T) {
	var calls int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if atomic.AddInt32(&calls, 1) == 1 {
			w.WriteHeader(http.StatusServiceUnavailable)
			_ = json.NewEncoder(w).Encode(server.ErrorBody{Error: "draining", Kind: "draining"})
			return
		}
		_ = json.NewEncoder(w).Encode(server.JobStatus{Key: "k", State: server.StateDone})
	}))
	defer ts.Close()

	st, err := fastClient(ts.URL).Get(context.Background(), "k")
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	if st.State != server.StateDone {
		t.Fatalf("state = %q, want done", st.State)
	}
	if calls != 2 {
		t.Fatalf("calls = %d, want 2 (one shed, one retry)", calls)
	}
}

func TestRetryAfterHonored(t *testing.T) {
	var calls int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if atomic.AddInt32(&calls, 1) == 1 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			_ = json.NewEncoder(w).Encode(server.ErrorBody{Error: "queue full", Kind: "queue-full"})
			return
		}
		_ = json.NewEncoder(w).Encode(server.JobStatus{Key: "k", State: server.StateDone})
	}))
	defer ts.Close()

	start := time.Now()
	if _, err := fastClient(ts.URL).Get(context.Background(), "k"); err != nil {
		t.Fatalf("get: %v", err)
	}
	// The computed backoff would be ~1-10ms; the server asked for 1s.
	if elapsed := time.Since(start); elapsed < 900*time.Millisecond {
		t.Fatalf("retried after %s; Retry-After: 1 not honored", elapsed)
	}
}

func TestNoRetryOnBadRequest(t *testing.T) {
	var calls int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		atomic.AddInt32(&calls, 1)
		w.WriteHeader(http.StatusBadRequest)
		_ = json.NewEncoder(w).Encode(server.ErrorBody{Error: "unknown workload", Kind: "bad-request"})
	}))
	defer ts.Close()

	_, err := fastClient(ts.URL).Submit(context.Background(), server.SubmitRequest{Workload: "nope"})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusBadRequest {
		t.Fatalf("err = %v, want APIError 400", err)
	}
	if apiErr.Retryable() {
		t.Fatal("400 must not be retryable")
	}
	if calls != 1 {
		t.Fatalf("calls = %d, want 1 (no retries on 4xx)", calls)
	}
}

func TestRetriesExhausted(t *testing.T) {
	var calls int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		atomic.AddInt32(&calls, 1)
		w.WriteHeader(http.StatusServiceUnavailable)
		_ = json.NewEncoder(w).Encode(server.ErrorBody{Error: "draining", Kind: "draining"})
	}))
	defer ts.Close()

	c := fastClient(ts.URL)
	c.MaxRetries = 2
	_, err := c.Get(context.Background(), "k")
	if err == nil {
		t.Fatal("expected exhaustion error")
	}
	if !strings.Contains(err.Error(), "3 attempt(s)") {
		t.Fatalf("err = %v, want it to report 3 attempts", err)
	}
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("err = %v, want wrapped 503", err)
	}
	if calls != 3 {
		t.Fatalf("calls = %d, want 3 (initial + 2 retries)", calls)
	}
}

func TestNetworkErrorRetried(t *testing.T) {
	// A server that dies after the first response: the network failure on
	// the retry path surfaces as a transport error after the budget.
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	url := ts.URL
	ts.Close() // connection refused from the first attempt on

	c := fastClient(url)
	c.MaxRetries = 1
	start := time.Now()
	_, err := c.Get(context.Background(), "k")
	if err == nil {
		t.Fatal("expected transport error")
	}
	if !strings.Contains(err.Error(), "2 attempt(s)") {
		t.Fatalf("err = %v, want 2 attempts (network errors are retryable)", err)
	}
	if time.Since(start) > 10*time.Second {
		t.Fatal("network retries took implausibly long")
	}
}

// TestDeadlineCapsRetrySchedule: a backoff that would outlive the
// caller's deadline is never slept — the client fails fast with a typed
// RetryError that still carries the server's last real answer, instead
// of dozing until the deadline and reporting a bare context error.
func TestDeadlineCapsRetrySchedule(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "30")
		w.WriteHeader(http.StatusServiceUnavailable)
		_ = json.NewEncoder(w).Encode(server.ErrorBody{Error: "overloaded", Kind: "queue-full"})
	}))
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := fastClient(ts.URL).Get(ctx, "k")
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("expected error")
	}
	if elapsed > 150*time.Millisecond {
		t.Fatalf("client took %s; a 30s backoff must not be slept under a 200ms deadline", elapsed)
	}
	var re *RetryError
	if !errors.As(err, &re) {
		t.Fatalf("err = %T %v, want *RetryError", err, err)
	}
	if !re.DeadlineCapped {
		t.Fatalf("RetryError = %+v, want DeadlineCapped", re)
	}
	if re.Transport {
		t.Fatalf("RetryError reports a transport failure for a served 503: %+v", re)
	}
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("err = %v, want it to wrap the last 503", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want errors.Is(context.DeadlineExceeded) for deadline-capped exhaustion", err)
	}
}

// TestRetryErrorDistinguishesTransport: exhaustion against a dead
// socket reports Transport=true; exhaustion against a live server
// answering 5xx reports Transport=false (previous test). The fleet
// failure detector keys off exactly this distinction.
func TestRetryErrorDistinguishesTransport(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	url := ts.URL
	ts.Close()

	c := fastClient(url)
	c.MaxRetries = 1
	_, err := c.Get(context.Background(), "k")
	var re *RetryError
	if !errors.As(err, &re) {
		t.Fatalf("err = %T %v, want *RetryError", err, err)
	}
	if !re.Transport {
		t.Fatalf("RetryError = %+v, want Transport=true for a dead socket", re)
	}
	if re.DeadlineCapped {
		t.Fatalf("RetryError = %+v; no deadline was set", re)
	}
	if re.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2", re.Attempts)
	}
	if errors.Is(err, context.DeadlineExceeded) {
		t.Fatal("plain exhaustion must not read as a deadline error")
	}
}

func TestContextCancelStopsRetries(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "30")
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := fastClient(ts.URL).Get(ctx, "k")
	if err == nil {
		t.Fatal("expected error")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("ctx cancellation did not interrupt the backoff sleep")
	}
}

// TestWaitPausesWhenServerDoesNotHold: a server that ignores ?wait= and
// answers "running" at once (one that predates the held wait) turns Wait
// into a paced poll, not a busy loop.
func TestWaitPausesWhenServerDoesNotHold(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		_ = json.NewEncoder(w).Encode(server.JobStatus{Key: "k", State: server.StateRunning})
	}))
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if st, err := fastClient(ts.URL).Wait(ctx, "k", 100*time.Millisecond); err == nil {
		t.Fatalf("Wait returned %+v for a job that never finished", st)
	}
	// One request per 100ms pause over one second; a spin would be
	// thousands.
	if n := calls.Load(); n < 2 || n > 12 {
		t.Fatalf("%d requests in 1s at a 100ms pause, want about 10", n)
	}
}

// TestWaitReasksHeldRepliesAtOnce: a non-terminal reply marked Held —
// the server waited as long as it would — is followed by the next
// request with no pause (the pause here is an hour), and every request
// asks to be held.
func TestWaitReasksHeldRepliesAtOnce(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !server.WantsHold(r) {
			t.Errorf("Wait sent %s without ?wait=", r.URL)
		}
		st := server.JobStatus{Key: "k", State: server.StateRunning, Held: true}
		if calls.Add(1) == 4 {
			st = server.JobStatus{Key: "k", State: server.StateCanceled}
		}
		_ = json.NewEncoder(w).Encode(st)
	}))
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	st, err := fastClient(ts.URL).Wait(ctx, "k", time.Hour)
	if err != nil || st.State != server.StateCanceled {
		t.Fatalf("Wait = %+v, %v; want the canceled status", st, err)
	}
	if calls.Load() != 4 {
		t.Fatalf("%d requests, want 4", calls.Load())
	}
}
