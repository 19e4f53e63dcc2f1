package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"

	"gpushare/internal/runner"
	"gpushare/internal/simerr"
)

// routes wires the API onto the server's mux.
func (s *Server) routes() {
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs/{key}", s.handleGetJob)
	s.mux.HandleFunc("POST /v1/jobs/{key}/cancel", s.handleCancel)
	s.mux.HandleFunc("GET /v1/sweeps", s.handleSweepList)
	s.mux.HandleFunc("POST /v1/sweeps", s.handleSweepSubmit)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /statusz", s.handleStatusz)
}

// Handler returns the daemon's HTTP handler: the API mux wrapped in the
// panic-isolation middleware, so a handler crash becomes a structured
// 500 for that request instead of killing the process.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if p := recover(); p != nil {
				s.panics.Add(1)
				log.Printf("gserved: panic in %s %s: %v\n%s", r.Method, r.URL.Path, p, debug.Stack())
				writeJSON(w, http.StatusInternalServerError, ErrorBody{
					Error: fmt.Sprintf("panic: %v", p),
					Kind:  "panic",
				})
			}
		}()
		s.mux.ServeHTTP(w, r)
	})
}

// readBody decodes a JSON request body under the per-request and
// aggregate byte budgets. The returned release func returns the body's
// bytes to the aggregate budget and must always be called.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request, v any) (release func(), ok bool) {
	release = func() {}
	reserve := r.ContentLength
	if reserve < 0 || reserve > s.opts.MaxBodyBytes {
		reserve = s.opts.MaxBodyBytes
	}
	if s.inFlightBytes.Add(reserve) > s.opts.MaxInFlightBytes {
		s.inFlightBytes.Add(-reserve)
		s.rejBytes.Add(1)
		shed(w, http.StatusTooManyRequests, "overloaded: in-flight request bytes over budget", "overload", s.retryAfter())
		return release, false
	}
	release = func() { s.inFlightBytes.Add(-reserve) }
	body := http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeJSON(w, http.StatusRequestEntityTooLarge, ErrorBody{
				Error: fmt.Sprintf("body exceeds %d bytes", s.opts.MaxBodyBytes), Kind: "bad-request"})
		} else {
			writeJSON(w, http.StatusBadRequest, ErrorBody{
				Error: fmt.Sprintf("decode request: %v", err), Kind: "bad-request"})
		}
		return release, false
	}
	return release, true
}

// retryAfter is retryAfterLocked for paths that do not hold mu.
func (s *Server) retryAfter() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.retryAfterLocked()
}

// handleSubmit is POST /v1/jobs: validate, admit-or-shed, and either
// report the queued job (202), the deduplicated or cached job (200), or
// — with ?wait=1 — hold the request until the job finishes (see
// waitAndReply). Submissions are idempotent by job key.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	release, ok := s.readBody(w, r, &req)
	defer release()
	if !ok {
		return
	}
	rjob, key, err := BuildJob(&req)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorBody{Error: err.Error(), Kind: "bad-request"})
		return
	}
	out := s.submit(&req, rjob, key)
	if out.jb == nil {
		msg := "server is draining; not admitting jobs"
		if out.rejected == "queue-full" {
			msg = "admission queue is full"
		}
		shed(w, out.httpStatus, msg, out.rejected, out.retryAfter)
		return
	}
	if WantsHold(r) {
		s.waitAndReply(w, r, out.jb)
		return
	}
	writeJSON(w, out.httpStatus, s.status(out.jb))
}

// waitAndReply holds a submission until the job reaches a terminal
// state (Hold: at most the hold bound). A finished job answers 200
// (done) or a structured 5xx (failed/canceled); one that outlives the
// hold answers 202 with the current state, and the client goes on
// waiting with GET ?wait=.
func (s *Server) waitAndReply(w http.ResponseWriter, r *http.Request, jb *job) {
	if finished, _ := Hold(r, jb.done, s.baseCtx.Done(), s.holdBound); !finished {
		writeJSON(w, http.StatusAccepted, s.status(jb))
		return
	}
	st := s.status(jb)
	switch st.State {
	case StateDone:
		writeJSON(w, http.StatusOK, st)
	case StateCanceled:
		writeJSON(w, http.StatusServiceUnavailable, ErrorBody{
			Error: st.Error, Kind: "canceled", RetryAfterSec: 1})
	default:
		writeJSON(w, http.StatusInternalServerError, simErrorBody(jb.res.Err))
	}
}

// handleGetJob is GET /v1/jobs/{key}: one job's status, falling back to
// the disk cache for keys computed by a previous process. With ?wait=
// the reply is held until the job is terminal (Hold: at most the hold
// bound) and is a 200 JobStatus in whatever state the job is then in —
// canceled included, which the fleet coordinator must see to requeue.
// A non-terminal reply to ?wait= carries Held: ask again at once.
func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	jb, ok := s.lookupJob(key)
	if !ok {
		writeJSON(w, http.StatusNotFound, ErrorBody{
			Error: fmt.Sprintf("unknown job key %q", key), Kind: "not-found"})
		return
	}
	lapsed := false
	if WantsHold(r) {
		_, lapsed = Hold(r, jb.done, s.baseCtx.Done(), s.holdBound)
	}
	st := s.status(jb)
	st.Held = lapsed && !Terminal(st.State)
	writeJSON(w, http.StatusOK, st)
}

// handleCancel is POST /v1/jobs/{key}/cancel: abort a queued or running
// job. The response reports the job's state at the moment of the call —
// a running job stops within one cancellation stride, so callers wait
// (GET ?wait=) until it reads canceled. Cancellation keeps the job's journal accept
// and checkpoint trail: it means "stop computing here", and the fleet
// coordinator uses it to preempt, requeue, and later resume jobs.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	jb, ok := s.cancelJob(key)
	if !ok {
		writeJSON(w, http.StatusNotFound, ErrorBody{
			Error: fmt.Sprintf("unknown job key %q", key), Kind: "not-found"})
		return
	}
	writeJSON(w, http.StatusOK, s.status(jb))
}

// handleSweepList is GET /v1/sweeps: the whole job inventory, without
// per-job statistics (poll individual keys for those).
func (s *Server) handleSweepList(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	jobs := make([]*job, 0, len(s.jobs))
	for _, jb := range s.jobs {
		jobs = append(jobs, jb)
	}
	s.mu.Unlock()

	resp := SweepResponse{Jobs: make([]JobStatus, 0, len(jobs))}
	for _, jb := range jobs {
		st := s.status(jb)
		st.Stats = nil // inventory stays small; stats come from the poll endpoint
		st.Diagnosis = ""
		resp.Jobs = append(resp.Jobs, st)
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleSweepSubmit is POST /v1/sweeps: batch submission with per-job
// admission. Jobs beyond the queue bound are individually marked
// rejected rather than failing the whole batch; a draining server
// rejects the batch outright with 503.
func (s *Server) handleSweepSubmit(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	release, ok := s.readBody(w, r, &req)
	defer release()
	if !ok {
		return
	}
	if s.Draining() {
		shed(w, http.StatusServiceUnavailable, "server is draining; not admitting jobs", "draining", s.retryAfter())
		return
	}
	resp := SweepResponse{Jobs: make([]JobStatus, 0, len(req.Jobs))}
	for i := range req.Jobs {
		sub := &req.Jobs[i]
		rjob, key, err := BuildJob(sub)
		if err != nil {
			resp.Jobs = append(resp.Jobs, JobStatus{
				Workload: sub.Workload, Scale: sub.Scale,
				Rejected: "bad-request", Error: err.Error()})
			resp.Rejected++
			continue
		}
		out := s.submit(sub, rjob, key)
		if out.jb == nil {
			resp.Jobs = append(resp.Jobs, JobStatus{
				Key: key, Workload: sub.Workload, Scale: sub.Scale,
				Rejected: out.rejected, RetryAfterSec: out.retryAfter})
			resp.Rejected++
			continue
		}
		st := s.status(out.jb)
		st.Stats = nil
		resp.Jobs = append(resp.Jobs, st)
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleHealthz is liveness: the process is up and serving HTTP.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleReadyz is readiness: 200 while admitting, 503 otherwise —
// always with a structured ReadyzStatus body whose State tells the 503
// flavors apart. The distinction matters to anything routing jobs: a
// "draining" worker is alive and finishing owed work (steer new jobs
// elsewhere, renew its lease), "queue-full" is transient backpressure,
// and "dead" means the work it held must be rescheduled.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	st := ReadyzStatus{Ready: true, State: ReadyOK,
		QueueDepth: len(s.queue), QueueCap: s.opts.QueueDepth}
	switch {
	case s.killed:
		st.Ready, st.State = false, ReadyDead
	case s.draining:
		st.Ready, st.State = false, ReadyDraining
	case len(s.queue) >= s.opts.QueueDepth:
		st.Ready, st.State = false, ReadyQueueFull
	}
	retry := s.retryAfterLocked()
	s.mu.Unlock()
	code := http.StatusOK
	if !st.Ready {
		st.RetryAfterSec = retry
		w.Header().Set("Retry-After", strconv.Itoa(retry))
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, st)
}

// Build identifies the running binary: simulator fingerprint, Go
// toolchain, and VCS revision when present. Shared by gserved's and
// gsched's /statusz.
func Build() BuildInfo {
	b := BuildInfo{Fingerprint: runner.Fingerprint(), GoVersion: runtime.Version()}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				b.Revision = s.Value
			case "vcs.modified":
				b.Dirty = s.Value == "true"
			}
		}
	}
	return b
}

// handleStatusz is the introspection snapshot.
func (s *Server) handleStatusz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.statusz())
}

// shed writes a load-shedding response: Retry-After header plus the
// structured body, so both header-aware and body-parsing clients back
// off correctly.
func shed(w http.ResponseWriter, code int, msg, kind string, retryAfter int) {
	if retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
	}
	writeJSON(w, code, ErrorBody{Error: msg, Kind: kind, RetryAfterSec: retryAfter})
}

// simErrorBody converts a failed simulation into the structured 5xx
// body: a typed SimError contributes its kind, location, and forensic
// dump.
func simErrorBody(err error) ErrorBody {
	if err == nil {
		return ErrorBody{Error: "unknown failure", Kind: "unknown"}
	}
	body := ErrorBody{Error: err.Error(), Kind: "unknown", SM: -1, Warp: -1}
	if runner.IsCanceled(err) {
		body.Kind = "canceled"
	}
	if se, ok := simerr.As(err); ok {
		body.Kind = se.Kind.String()
		body.Cycle = se.Cycle
		body.SM = se.SM
		body.Warp = se.Warp
		if se.Dump != nil {
			body.Diagnosis = se.Diagnosis()
		}
	}
	return body
}

// writeJSON writes one JSON response.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}
