// Package client is the Go client for gserved (internal/server): it
// submits simulation jobs, waits for them, and retries transient failures
// with capped exponential backoff plus jitter. Only genuinely retryable
// outcomes are retried — network errors and 429/502/503/504 shed
// responses, whose Retry-After the client honors — so a 4xx rejection
// or a deterministic simulator failure surfaces immediately instead of
// hammering a server that will never answer differently. Submissions
// are idempotent by the job's content-addressed key, which is what
// makes retrying a POST safe.
//
// A reply is read whole into a pooled buffer and decoded from there by
// stats.Unmarshal, whose fast path takes a finished job's statistics
// without encoding/json's scanner or reflection per field and hands any
// body it does not recognize to encoding/json, so the decoded value is
// the same either way. The daemons encode a finished job's reply once
// and send the same bytes on every later answer.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"

	"gpushare/internal/server"
	"gpushare/internal/stats"
)

// Client talks to one gserved daemon. The zero value is not usable;
// build one with New.
type Client struct {
	// BaseURL is the daemon root, e.g. "http://127.0.0.1:8377".
	BaseURL string
	// HTTPClient defaults to a client with a 2-minute overall timeout.
	HTTPClient *http.Client
	// MaxRetries is how many times a retryable request is re-sent after
	// the first attempt (default 4; negative disables retries).
	MaxRetries int
	// BaseBackoff seeds the exponential backoff (default 100ms); the
	// delay before retry n is min(BaseBackoff<<n, MaxBackoff), halved
	// and jittered. A server Retry-After overrides the computed delay.
	BaseBackoff time.Duration
	// MaxBackoff caps one backoff sleep (default 5s).
	MaxBackoff time.Duration

	rngMu sync.Mutex
	rng   *rand.Rand
}

// New returns a client for the daemon at baseURL.
func New(baseURL string) *Client {
	return &Client{
		BaseURL:     baseURL,
		HTTPClient:  &http.Client{Timeout: 2 * time.Minute},
		MaxRetries:  4,
		BaseBackoff: 100 * time.Millisecond,
		MaxBackoff:  5 * time.Second,
		rng:         rand.New(rand.NewSource(time.Now().UnixNano())),
	}
}

// APIError is a non-2xx response with its structured body.
type APIError struct {
	StatusCode int
	Body       server.ErrorBody
}

func (e *APIError) Error() string {
	if e.Body.Error != "" {
		return fmt.Sprintf("gserved: %d %s: %s", e.StatusCode, e.Body.Kind, e.Body.Error)
	}
	return fmt.Sprintf("gserved: HTTP %d", e.StatusCode)
}

// Retryable reports whether the response is a transient shed or
// gateway condition worth retrying.
func (e *APIError) Retryable() bool {
	switch e.StatusCode {
	case http.StatusTooManyRequests, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// RetryAfter returns the server-requested backoff, or 0 when the
// response carried none.
func (e *APIError) RetryAfter() time.Duration {
	if e.Body.RetryAfterSec > 0 {
		return time.Duration(e.Body.RetryAfterSec) * time.Second
	}
	return 0
}

// Submit enqueues one job (or joins the existing one with the same
// content-addressed key) and returns its status without waiting.
func (c *Client) Submit(ctx context.Context, req server.SubmitRequest) (*server.JobStatus, error) {
	var st server.JobStatus
	if err := c.do(ctx, http.MethodPost, "/v1/jobs", req, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// SubmitWait submits one job and blocks until the daemon reports a
// terminal state. A job the server cancels (deadline, drain) comes back
// as a retryable 503, so a restarted daemon picks the work up again
// within the retry budget.
func (c *Client) SubmitWait(ctx context.Context, req server.SubmitRequest) (*server.JobStatus, error) {
	var st server.JobStatus
	if err := c.do(ctx, http.MethodPost, "/v1/jobs?wait=1", req, &st); err != nil {
		return nil, err
	}
	if !server.Terminal(st.State) {
		// The job outlived the server's hold on the POST; keep waiting
		// on its key.
		return c.Wait(ctx, st.Key)
	}
	return &st, nil
}

// Get fetches one job's current status by key.
func (c *Client) Get(ctx context.Context, key string) (*server.JobStatus, error) {
	var st server.JobStatus
	if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+key, nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// waitPause is how long Wait pauses before re-asking a daemon that
// answered non-terminal without holding the request. A daemon holds
// every ?wait= until the job is terminal or its hold bound lapses (and
// then says Held), so an unheld answer comes from one that is stopping;
// the pause keeps Wait from spinning on it until it goes away.
const waitPause = 250 * time.Millisecond

// Wait blocks until a job reaches a terminal state (done, failed, or
// canceled — inspect State) or ctx ends. The waiting happens on the
// server: each GET ?wait= is held there until the job finishes, so the
// result arrives one round trip after completion; a job that outlives
// one hold (the reply says Held) is asked for again at once, and an
// unheld non-terminal answer after waitPause.
func (c *Client) Wait(ctx context.Context, key string) (*server.JobStatus, error) {
	for {
		var st server.JobStatus
		if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+key+"?wait=1", nil, &st); err != nil {
			return nil, err
		}
		if server.Terminal(st.State) {
			return &st, nil
		}
		if st.Held {
			continue
		}
		select {
		case <-time.After(waitPause):
		case <-ctx.Done():
			return nil, context.Cause(ctx)
		}
	}
}

// Cancel aborts a queued or running job by key. The returned status is
// the job's state at the moment of the call: a running job stops within
// one cancellation stride, so Wait until it reads canceled when that
// matters. Cancellation keeps the job's checkpoint trail on the server
// — this is the preemption primitive, not a deletion.
func (c *Client) Cancel(ctx context.Context, key string) (*server.JobStatus, error) {
	var st server.JobStatus
	if err := c.do(ctx, http.MethodPost, "/v1/jobs/"+key+"/cancel", nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Ready probes GET /readyz exactly once — no retries, probes must be
// cheap and honest — and returns the structured readiness state. Both
// 200 and 503 answers parse into a ReadyzStatus (the daemon is alive
// either way); only transport-level failures and unparseable bodies
// return an error, which is what a failure detector should treat as a
// missed heartbeat.
func (c *Client) Ready(ctx context.Context) (*server.ReadyzStatus, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/readyz", nil)
	if err != nil {
		return nil, fmt.Errorf("client: build request: %w", err)
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, &transportError{err}
	}
	defer resp.Body.Close()
	var st server.ReadyzStatus
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&st); err != nil {
		return nil, fmt.Errorf("client: readyz body does not parse (HTTP %d): %w", resp.StatusCode, err)
	}
	if st.State == "" {
		return nil, fmt.Errorf("client: readyz body carries no state (HTTP %d)", resp.StatusCode)
	}
	return &st, nil
}

// SweepResponse is a sweep reply as gserved sends it.
type SweepResponse = server.SweepResponse[server.JobStatus]

// Sweep batch-submits jobs; individually shed elements are marked
// Rejected in the response rather than failing the batch.
func (c *Client) Sweep(ctx context.Context, reqs []server.SubmitRequest) (*SweepResponse, error) {
	var resp SweepResponse
	if err := c.do(ctx, http.MethodPost, "/v1/sweeps", server.SweepRequest[server.SubmitRequest]{Jobs: reqs}, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// SweepList fetches the daemon's whole job inventory.
func (c *Client) SweepList(ctx context.Context) (*SweepResponse, error) {
	var resp SweepResponse
	if err := c.do(ctx, http.MethodGet, "/v1/sweeps", nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Status fetches the daemon's introspection snapshot.
func (c *Client) Status(ctx context.Context) (*server.Statusz, error) {
	var st server.Statusz
	if err := c.do(ctx, http.MethodGet, "/statusz", nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// RetryError reports that the client gave up on a retryable request:
// either the retry budget ran out, or the caller's context deadline had
// no room for another backoff sleep (the retry schedule is capped by
// the deadline — the client never sleeps into a deadline it cannot
// recover from). Err is the last real failure, so a caller with a short
// deadline still learns *why* the server was unreachable instead of a
// bare context error.
type RetryError struct {
	// Attempts is how many requests were actually sent.
	Attempts int
	// Transport is true when the last failure never produced an HTTP
	// response (connection refused/reset, DNS); false when the server
	// answered with a retryable status (429/502/503/504).
	Transport bool
	// DeadlineCapped is true when retrying stopped because the caller's
	// context deadline could not fit another backoff, rather than
	// because MaxRetries ran out.
	DeadlineCapped bool
	// Err is the failure from the final attempt.
	Err error
}

func (e *RetryError) Error() string {
	reason := "retries exhausted"
	if e.DeadlineCapped {
		reason = "deadline too close for another retry"
	}
	flavor := "server"
	if e.Transport {
		flavor = "transport"
	}
	return fmt.Sprintf("client: %d attempt(s): %s (%s failure): %v", e.Attempts, reason, flavor, e.Err)
}

func (e *RetryError) Unwrap() error { return e.Err }

// Is lets errors.Is(err, context.DeadlineExceeded) hold for
// deadline-capped exhaustion: the caller's deadline is what stopped the
// retry schedule, even though the wrapped cause is the server's last
// answer.
func (e *RetryError) Is(target error) bool {
	return e.DeadlineCapped && target == context.DeadlineExceeded
}

// do sends one request with the retry loop. The body is marshaled once
// and re-sent verbatim on every attempt. Total retry time is capped by
// the caller's context deadline: a backoff that would outlive the
// deadline is not slept, the loop fails fast with a *RetryError
// carrying the last real failure instead.
func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	var payload []byte
	if body != nil {
		var err error
		payload, err = json.Marshal(body)
		if err != nil {
			return fmt.Errorf("client: encode request: %w", err)
		}
	}
	retries := c.MaxRetries
	if retries < 0 {
		retries = 0
	}
	for attempt := 0; ; attempt++ {
		err := c.once(ctx, method, path, payload, out)
		if err == nil {
			return nil
		}
		if ctx.Err() != nil {
			// The caller's context ended during the attempt itself;
			// surface the cause, not a retry report.
			return fmt.Errorf("client: %w", context.Cause(ctx))
		}
		transport := true
		retryAfter := time.Duration(0)
		if apiErr, ok := err.(*APIError); ok {
			if !apiErr.Retryable() {
				return err
			}
			transport = false
			retryAfter = apiErr.RetryAfter()
		}
		if attempt >= retries {
			return &RetryError{Attempts: attempt + 1, Transport: transport, Err: err}
		}
		d := c.backoff(attempt, retryAfter)
		if deadline, ok := ctx.Deadline(); ok && time.Until(deadline) <= d {
			return &RetryError{Attempts: attempt + 1, Transport: transport,
				DeadlineCapped: true, Err: err}
		}
		select {
		case <-time.After(d):
		case <-ctx.Done():
			return fmt.Errorf("client: %w", context.Cause(ctx))
		}
	}
}

// once performs a single HTTP exchange.
func (c *Client) once(ctx context.Context, method, path string, payload []byte, out any) error {
	var body io.Reader
	if payload != nil {
		body = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, body)
	if err != nil {
		return fmt.Errorf("client: build request: %w", err)
	}
	if payload != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return &transportError{err}
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		apiErr := &APIError{StatusCode: resp.StatusCode}
		_ = json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&apiErr.Body)
		if apiErr.Body.RetryAfterSec == 0 {
			if sec, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil {
				apiErr.Body.RetryAfterSec = sec
			}
		}
		return apiErr
	}
	if out == nil {
		return nil
	}
	return decodeBody(resp.Body, out)
}

// bodies recycles the buffers replies are read into: a done status is
// ≈ 7 KB, and decoding copies out every byte a result keeps.
var bodies = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPooledBody keeps one large reply (a sweep listing) from pinning
// its buffer in the pool.
const maxPooledBody = 1 << 20

// decodeBody reads a 2xx reply whole into a pooled buffer and decodes
// it from there: a statistics-carrying status takes stats.Unmarshal's
// fast path.
func decodeBody(r io.Reader, out any) error {
	buf := bodies.Get().(*bytes.Buffer)
	defer func() {
		if buf.Cap() <= maxPooledBody {
			buf.Reset()
			bodies.Put(buf)
		}
	}()
	if _, err := buf.ReadFrom(r); err != nil {
		return fmt.Errorf("client: read response: %w", err)
	}
	if err := stats.Unmarshal(buf.Bytes(), out); err != nil {
		return fmt.Errorf("client: decode response: %w", err)
	}
	return nil
}

// transportError marks network-level failures as retryable.
type transportError struct{ err error }

func (e *transportError) Error() string { return "client: " + e.err.Error() }
func (e *transportError) Unwrap() error { return e.err }

// backoff computes the delay before retry attempt+1: the server's
// Retry-After when given (capped at 2 minutes), otherwise exponential
// backoff halved and jittered so a shed fleet does not retry in
// lockstep.
func (c *Client) backoff(attempt int, retryAfter time.Duration) time.Duration {
	d := retryAfter
	if d > 2*time.Minute {
		d = 2 * time.Minute
	}
	if d <= 0 {
		base := c.BaseBackoff
		if base <= 0 {
			base = 100 * time.Millisecond
		}
		maxB := c.MaxBackoff
		if maxB <= 0 {
			maxB = 5 * time.Second
		}
		d = base << attempt
		if d > maxB || d <= 0 { // <=0 catches shift overflow
			d = maxB
		}
		d = d/2 + c.jitter(d/2)
	}
	return d
}

// jitter returns a uniform duration in [0, max).
func (c *Client) jitter(max time.Duration) time.Duration {
	if max <= 0 {
		return 0
	}
	c.rngMu.Lock()
	defer c.rngMu.Unlock()
	if c.rng == nil {
		c.rng = rand.New(rand.NewSource(time.Now().UnixNano()))
	}
	return time.Duration(c.rng.Int63n(int64(max)))
}

// httpClient returns the configured or default HTTP client.
func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}
