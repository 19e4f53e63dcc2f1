package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"time"

	"gpushare/internal/runner"
	"gpushare/internal/simerr"
)

// routes wires the job API both daemons share onto the mux; a backend
// adds what only it has (gserved's cancel, gsched's /v1/workers) with
// Handle.
func (c *Core) routes() {
	c.mux = http.NewServeMux()
	c.mux.HandleFunc("POST /v1/jobs", c.handleSubmit)
	c.mux.HandleFunc("GET /v1/jobs/{key}", c.handleGetJob)
	c.mux.HandleFunc("GET /v1/sweeps", c.handleSweepList)
	c.mux.HandleFunc("POST /v1/sweeps", c.handleSweepSubmit)
	c.mux.HandleFunc("GET /healthz", c.handleHealthz)
	c.mux.HandleFunc("GET /readyz", c.handleReadyz)
	c.mux.HandleFunc("GET /statusz", c.handleStatusz)
}

// Handle adds a backend-specific route.
func (c *Core) Handle(pattern string, h http.HandlerFunc) { c.mux.HandleFunc(pattern, h) }

// Handler returns the daemon's HTTP handler: the API mux wrapped in the
// panic-isolation middleware, so a handler crash becomes a structured
// 500 for that request instead of killing the process.
func (c *Core) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if p := recover(); p != nil {
				c.panics.Add(1)
				log.Printf("%s: panic in %s %s: %v\n%s", c.name, r.Method, r.URL.Path, p, debug.Stack())
				WriteJSON(w, http.StatusInternalServerError, ErrorBody{
					Error: fmt.Sprintf("panic: %v", p),
					Kind:  "panic",
				})
			}
		}()
		c.mux.ServeHTTP(w, r)
	})
}

// ReadBody decodes a JSON request body under the per-request and
// aggregate byte budgets; on failure it writes the 4xx itself and
// reports false. The returned release func returns the body's bytes to
// the aggregate budget and must always be called.
func (c *Core) ReadBody(w http.ResponseWriter, r *http.Request, v any) (release func(), ok bool) {
	release = func() {}
	reserve := r.ContentLength
	if reserve < 0 || reserve > c.opts.MaxBodyBytes {
		reserve = c.opts.MaxBodyBytes
	}
	if c.inFlightBytes.Add(reserve) > c.opts.MaxInFlightBytes {
		c.inFlightBytes.Add(-reserve)
		c.rejBytes.Add(1)
		shed(w, http.StatusTooManyRequests, "overloaded: in-flight request bytes over budget", "overload", c.retryAfter())
		return release, false
	}
	release = func() { c.inFlightBytes.Add(-reserve) }
	if err := decodeStrict(http.MaxBytesReader(w, r.Body, c.opts.MaxBodyBytes), v); err != nil {
		c.badRequest(w, err)
		return release, false
	}
	return release, true
}

// decodeStrict decodes one JSON value, rejecting unknown fields and
// anything but whitespace after the value.
func decodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	switch _, err := dec.Token(); {
	case err == io.EOF:
		return nil
	case err == nil:
		return errors.New("unexpected data after the JSON value")
	default:
		return fmt.Errorf("after the JSON value: %w", err)
	}
}

// badRequest answers a body that did not decode: 413 when it ran over
// the per-request cap, 400 otherwise.
func (c *Core) badRequest(w http.ResponseWriter, err error) {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		WriteJSON(w, http.StatusRequestEntityTooLarge, ErrorBody{
			Error: fmt.Sprintf("body exceeds %d bytes", c.opts.MaxBodyBytes), Kind: "bad-request"})
		return
	}
	WriteJSON(w, http.StatusBadRequest, ErrorBody{
		Error: fmt.Sprintf("decode request: %v", err), Kind: "bad-request"})
}

// retryAfter is the backoff estimate for paths that do not hold Mu.
func (c *Core) retryAfter() int {
	c.Mu.Lock()
	defer c.Mu.Unlock()
	return c.be.Load().retryAfter()
}

// refuse answers a submission that was not admitted.
func (c *Core) refuse(w http.ResponseWriter, out Outcome) {
	switch out.Rejected {
	case "bad-request":
		WriteJSON(w, out.Code, ErrorBody{Error: out.Err.Error(), Kind: out.Rejected})
	case "queue-full":
		shed(w, out.Code, "admission queue is full", out.Rejected, out.RetryAfter)
	default:
		shed(w, out.Code, c.name+" is draining; not admitting jobs", out.Rejected, out.RetryAfter)
	}
}

// handleSubmit is POST /v1/jobs: validate, admit-or-shed, and either
// report the queued job (202), the deduplicated or cached job (200), or
// — with ?wait=1 — hold the request until the job finishes (see
// waitAndReply). Submissions are idempotent by job key.
func (c *Core) handleSubmit(w http.ResponseWriter, r *http.Request) {
	req := c.be.NewRequest()
	release, ok := c.ReadBody(w, r, req)
	defer release()
	if !ok {
		return
	}
	out := c.Submit(req, time.Now())
	switch {
	case out.Job == nil:
		c.refuse(w, out)
	case WantsHold(r):
		c.waitAndReply(w, r, out.Job)
	default:
		c.writeView(w, out.Code, out.Job, false)
	}
}

// waitAndReply holds a submission until the job reaches a terminal
// state (Hold: at most the hold bound). A finished job answers 200
// (done), 503 (canceled: the work is still owed, resubmit) or a
// structured 500 (failed); one that outlives the hold answers 202 with
// the current state, and the client goes on waiting with GET ?wait=.
func (c *Core) waitAndReply(w http.ResponseWriter, r *http.Request, j *Job) {
	if finished, _ := Hold(r, j.done, c.ctx.Done(), c.holdBound); !finished {
		c.writeView(w, http.StatusAccepted, j, false)
		return
	}
	switch j.res.State { // immutable once done has closed
	case StateDone:
		c.writeView(w, http.StatusOK, j, false)
	case StateCanceled:
		WriteJSON(w, http.StatusServiceUnavailable, ErrorBody{
			Error: j.res.Error, Kind: "canceled", RetryAfterSec: 1})
	default:
		WriteJSON(w, http.StatusInternalServerError, failureBody(j.res, j.err))
	}
}

// handleGetJob is GET /v1/jobs/{key}: one job's status, falling back to
// the backend's result cache for keys computed by a previous process.
// With ?wait= the reply is held until the job is terminal (Hold: at most
// the hold bound) and is a 200 JobStatus in whatever state the job is
// then in — canceled included, which the fleet coordinator must see to
// requeue. A non-terminal reply to ?wait= carries Held: ask again at
// once.
func (c *Core) handleGetJob(w http.ResponseWriter, r *http.Request) {
	j, ok := c.Lookup(r.PathValue("key"))
	if !ok {
		NotFound(w, "job key", r.PathValue("key"))
		return
	}
	lapsed := false
	if WantsHold(r) {
		_, lapsed = Hold(r, j.done, c.ctx.Done(), c.holdBound)
	}
	c.writeView(w, http.StatusOK, j, lapsed)
}

// writeView answers with one job's full view: a terminal job's encoded
// bytes (reply), or a live job's current state, marked held when its
// hold lapsed.
func (c *Core) writeView(w http.ResponseWriter, code int, j *Job, held bool) {
	body := c.reply(j)
	if body == nil {
		WriteJSON(w, code, c.view(j, held, false))
		return
	}
	h := w.Header()
	h.Set("Content-Type", "application/json; charset=utf-8")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(code)
	_, _ = w.Write(body) // a failed write is the client's hang-up; nothing to answer
}

// NotFound answers 404 for an unknown job key or worker id.
func NotFound(w http.ResponseWriter, what, id string) {
	WriteJSON(w, http.StatusNotFound, ErrorBody{
		Error: fmt.Sprintf("unknown %s %q", what, id), Kind: "not-found"})
}

// handleSweepList is GET /v1/sweeps: the whole job inventory, without
// per-job statistics (poll individual keys for those).
func (c *Core) handleSweepList(w http.ResponseWriter, _ *http.Request) {
	jobs := c.Jobs()
	resp := SweepResponse[any]{Jobs: make([]any, 0, len(jobs))}
	for _, j := range jobs {
		resp.Jobs = append(resp.Jobs, c.view(j, false, true))
	}
	WriteJSON(w, http.StatusOK, resp)
}

// handleSweepSubmit is POST /v1/sweeps: batch submission with per-job
// admission. Jobs beyond the queue bound are individually marked
// rejected rather than failing the whole batch; a draining daemon
// rejects the batch outright with 503.
func (c *Core) handleSweepSubmit(w http.ResponseWriter, r *http.Request) {
	var sweep SweepRequest[json.RawMessage]
	release, ok := c.ReadBody(w, r, &sweep)
	defer release()
	if !ok {
		return
	}
	reqs := make([]Request, len(sweep.Jobs))
	for i, raw := range sweep.Jobs {
		reqs[i] = c.be.NewRequest()
		if err := decodeStrict(bytes.NewReader(raw), reqs[i]); err != nil {
			c.badRequest(w, fmt.Errorf("jobs[%d]: %w", i, err))
			return
		}
	}
	if c.Draining() {
		c.refuse(w, Outcome{Code: http.StatusServiceUnavailable, Rejected: "draining", RetryAfter: c.retryAfter()})
		return
	}
	resp := SweepResponse[any]{Jobs: make([]any, 0, len(reqs))}
	for _, req := range reqs {
		out := c.Submit(req, time.Now())
		if out.Job != nil {
			resp.Jobs = append(resp.Jobs, c.view(out.Job, false, true))
			continue
		}
		st := JobStatus{Key: out.Key, Workload: req.Base().Workload, Scale: req.Base().Scale,
			Rejected: out.Rejected, RetryAfterSec: out.RetryAfter}
		if out.Err != nil {
			st.Error = out.Err.Error()
		}
		resp.Jobs = append(resp.Jobs, st)
		resp.Rejected++
	}
	WriteJSON(w, http.StatusOK, resp)
}

// handleHealthz is liveness: the process is up and serving HTTP.
func (c *Core) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleReadyz is readiness: 200 while admitting, 503 otherwise —
// always with a structured ReadyzStatus body whose State tells the 503
// flavors apart. The distinction matters to anything routing jobs: a
// "draining" worker is alive and finishing owed work (steer new jobs
// elsewhere, renew its lease), "queue-full" is transient backpressure,
// and "dead" means the work it held must be rescheduled. A degraded
// gsched (no live worker) is still ready — admission works, jobs are
// journaled — but says so, with an honest retry hint.
func (c *Core) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	c.Mu.Lock()
	ld := c.be.Load()
	st := ReadyzStatus{Ready: true, State: ReadyOK, QueueDepth: ld.Queued, QueueCap: c.opts.QueueDepth}
	switch {
	case c.killed:
		st.Ready, st.State = false, ReadyDead
	case c.draining:
		st.Ready, st.State = false, ReadyDraining
	case ld.Bounded >= c.opts.QueueDepth:
		st.Ready, st.State = false, ReadyQueueFull
	case ld.Degraded > 0:
		st.State, st.RetryAfterSec = ReadyDegraded, ld.Degraded
	}
	c.Mu.Unlock()
	code := http.StatusOK
	if !st.Ready {
		st.RetryAfterSec = ld.retryAfter()
		w.Header().Set("Retry-After", strconv.Itoa(st.RetryAfterSec))
		code = http.StatusServiceUnavailable
	}
	WriteJSON(w, code, st)
}

// Build identifies the running binary: simulator fingerprint, Go
// toolchain, and VCS revision when present.
func Build() BuildInfo {
	b := BuildInfo{Fingerprint: runner.Fingerprint(), GoVersion: runtime.Version()}
	b.Revision, b.Dirty = runner.VCS()
	return b
}

// handleStatusz is the introspection snapshot.
func (c *Core) handleStatusz(w http.ResponseWriter, _ *http.Request) {
	WriteJSON(w, http.StatusOK, c.be.Statusz(c.statusz()))
}

// shed writes a load-shedding response: Retry-After header plus the
// structured body, so both header-aware and body-parsing clients back
// off correctly.
func shed(w http.ResponseWriter, code int, msg, kind string, retryAfter int) {
	if retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
	}
	WriteJSON(w, code, ErrorBody{Error: msg, Kind: kind, RetryAfterSec: retryAfter})
}

// failureBody is the structured 500 of a failed job. The kind and the
// forensic dump come from the job's status — which is all gsched has of
// a failure that happened on a worker — and a daemon that holds the
// error itself adds the typed SimError's location.
func failureBody(st JobStatus, err error) ErrorBody {
	body := ErrorBody{Error: st.Error, Kind: st.ErrorKind, Diagnosis: st.Diagnosis}
	if body.Kind == "" {
		body.Kind = "unknown"
	}
	if err != nil {
		body.SM, body.Warp = -1, -1
		if se, ok := simerr.As(err); ok {
			body.Cycle, body.SM, body.Warp = se.Cycle, se.SM, se.Warp
		}
	}
	return body
}

// WriteJSON writes one JSON response.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}
