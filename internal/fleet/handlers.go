package fleet

import (
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"runtime/debug"
	"strconv"

	"gpushare/internal/server"
)

// routes wires the coordinator API onto the mux. The shape mirrors
// gserved's API so client tooling transfers: jobs and sweeps look the
// same, plus a /v1/workers registry that gserved does not have.
func (c *Coordinator) routes() {
	c.mux = http.NewServeMux()
	c.mux.HandleFunc("POST /v1/jobs", c.handleSubmit)
	c.mux.HandleFunc("GET /v1/jobs/{key}", c.handleGetJob)
	c.mux.HandleFunc("GET /v1/sweeps", c.handleSweepList)
	c.mux.HandleFunc("POST /v1/sweeps", c.handleSweepSubmit)
	c.mux.HandleFunc("POST /v1/workers", c.handleRegister)
	c.mux.HandleFunc("GET /v1/workers", c.handleWorkers)
	c.mux.HandleFunc("POST /v1/workers/{id}/heartbeat", c.handleHeartbeat)
	c.mux.HandleFunc("POST /v1/workers/{id}/drain", c.handleWorkerDrain)
	c.mux.HandleFunc("GET /healthz", c.handleHealthz)
	c.mux.HandleFunc("GET /readyz", c.handleReadyz)
	c.mux.HandleFunc("GET /statusz", c.handleStatusz)
}

// Handler returns the coordinator's HTTP handler with panic isolation,
// matching gserved's middleware contract.
func (c *Coordinator) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if p := recover(); p != nil {
				log.Printf("gsched: panic in %s %s: %v\n%s", r.Method, r.URL.Path, p, debug.Stack())
				writeJSON(w, http.StatusInternalServerError, server.ErrorBody{
					Error: fmt.Sprintf("panic: %v", p), Kind: "panic"})
			}
		}()
		c.mux.ServeHTTP(w, r)
	})
}

// handleSubmit is POST /v1/jobs: admit into the fair queue (202), join
// an existing job by content key (200), or shed. ?wait=1 holds the
// request until the job reaches a terminal state anywhere in the fleet
// (see waitAndReply).
func (c *Coordinator) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	if !readBody(w, r, &req) {
		return
	}
	j, code, err := c.submit(&req, false)
	if err != nil {
		kind := "bad-request"
		retry := 0
		switch code {
		case http.StatusTooManyRequests:
			kind, retry = "queue-full", 2
		case http.StatusServiceUnavailable:
			kind, retry = "draining", 2
		}
		if retry > 0 {
			w.Header().Set("Retry-After", strconv.Itoa(retry))
		}
		writeJSON(w, code, server.ErrorBody{Error: err.Error(), Kind: kind, RetryAfterSec: retry})
		return
	}
	if server.WantsHold(r) {
		c.waitAndReply(w, r, j)
		return
	}
	writeJSON(w, code, c.status(j))
}

// waitAndReply holds a submission until the job finishes (server.Hold:
// at most the hold bound). A job that outlives the hold answers 202 with
// the current state — including the degraded-mode Retry-After hint when
// no workers are live — and the client goes on waiting with GET ?wait=.
// A failed job answers 500 with the kind and diagnosis its worker
// reported.
func (c *Coordinator) waitAndReply(w http.ResponseWriter, r *http.Request, j *fjob) {
	if finished, _ := server.Hold(r, j.done, c.baseCtx.Done(), c.holdBound); !finished {
		writeJSON(w, http.StatusAccepted, c.status(j))
		return
	}
	st := c.status(j)
	if st.State == JobDone {
		writeJSON(w, http.StatusOK, st)
		return
	}
	kind := st.ErrorKind
	if kind == "" {
		kind = "failed"
	}
	writeJSON(w, http.StatusInternalServerError, server.ErrorBody{
		Error: st.Error, Kind: kind, Diagnosis: st.Diagnosis})
}

// handleGetJob is GET /v1/jobs/{key}: one job's status fleet-wide. With
// ?wait= the reply is held until the job is done or failed (server.Hold:
// at most the hold bound); a non-terminal reply carries Held — ask
// again at once.
func (c *Coordinator) handleGetJob(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	c.mu.Lock()
	j, ok := c.jobs[key]
	c.mu.Unlock()
	if !ok {
		writeJSON(w, http.StatusNotFound, server.ErrorBody{
			Error: fmt.Sprintf("unknown job key %q", key), Kind: "not-found"})
		return
	}
	lapsed := false
	if server.WantsHold(r) {
		_, lapsed = server.Hold(r, j.done, c.baseCtx.Done(), c.holdBound)
	}
	st := c.status(j)
	st.Held = lapsed && !server.Terminal(st.State)
	writeJSON(w, http.StatusOK, st)
}

// handleSweepSubmit is POST /v1/sweeps: batch admission with per-job
// outcomes; shed elements are marked rejected, not fatal to the batch.
func (c *Coordinator) handleSweepSubmit(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	if !readBody(w, r, &req) {
		return
	}
	resp := SweepResponse{Jobs: make([]JobStatus, 0, len(req.Jobs))}
	for i := range req.Jobs {
		sub := &req.Jobs[i]
		j, code, err := c.submit(sub, false)
		if err != nil {
			st := JobStatus{Tenant: sub.Tenant, Priority: sub.Priority}
			st.Workload = sub.Workload
			st.Scale = sub.Scale
			st.Error = err.Error()
			switch code {
			case http.StatusTooManyRequests:
				st.Rejected = "queue-full"
			case http.StatusServiceUnavailable:
				st.Rejected = "draining"
			default:
				st.Rejected = "bad-request"
			}
			resp.Jobs = append(resp.Jobs, st)
			resp.Rejected++
			continue
		}
		st := c.status(j)
		st.Stats = nil
		resp.Jobs = append(resp.Jobs, st)
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleSweepList is GET /v1/sweeps: the fleet-wide job inventory.
func (c *Coordinator) handleSweepList(w http.ResponseWriter, _ *http.Request) {
	c.mu.Lock()
	jobs := make([]*fjob, 0, len(c.jobs))
	for _, j := range c.jobs {
		jobs = append(jobs, j)
	}
	c.mu.Unlock()
	resp := SweepResponse{Jobs: make([]JobStatus, 0, len(jobs))}
	for _, j := range jobs {
		st := c.status(j)
		st.Stats = nil
		st.Diagnosis = ""
		resp.Jobs = append(resp.Jobs, st)
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleRegister is POST /v1/workers: add a worker (or update one in
// place by id) and start probing it.
func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	if !readBody(w, r, &req) {
		return
	}
	if req.URL == "" {
		writeJSON(w, http.StatusBadRequest, server.ErrorBody{
			Error: "url is required", Kind: "bad-request"})
		return
	}
	wk := c.addWorker(req)
	c.mu.Lock()
	st := c.workerStatusLocked(wk)
	c.mu.Unlock()
	writeJSON(w, http.StatusOK, st)
}

// handleWorkers is GET /v1/workers: the registry.
func (c *Coordinator) handleWorkers(w http.ResponseWriter, _ *http.Request) {
	c.mu.Lock()
	resp := WorkersResponse{Workers: make([]WorkerStatus, 0, len(c.workers))}
	for _, id := range workerNames(c.workers) {
		resp.Workers = append(resp.Workers, c.workerStatusLocked(c.workers[id]))
	}
	c.mu.Unlock()
	writeJSON(w, http.StatusOK, resp)
}

// handleHeartbeat is POST /v1/workers/{id}/heartbeat: push lease
// renewal, complementing the coordinator's pull probes.
func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	wk, ok := c.heartbeat(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, server.ErrorBody{
			Error: fmt.Sprintf("unknown worker %q", id), Kind: "not-found"})
		return
	}
	c.mu.Lock()
	st := c.workerStatusLocked(wk)
	c.mu.Unlock()
	writeJSON(w, http.StatusOK, st)
}

// handleWorkerDrain is POST /v1/workers/{id}/drain: stop placing new
// jobs on a worker while honoring its lease (planned maintenance).
func (c *Coordinator) handleWorkerDrain(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	wk, ok := c.drainWorker(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, server.ErrorBody{
			Error: fmt.Sprintf("unknown worker %q", id), Kind: "not-found"})
		return
	}
	c.mu.Lock()
	st := c.workerStatusLocked(wk)
	c.mu.Unlock()
	writeJSON(w, http.StatusOK, st)
}

// handleHealthz is liveness.
func (c *Coordinator) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleReadyz is readiness. The coordinator is ready while admitting —
// including degraded mode (no live workers): jobs are journaled and
// will run when a worker appears, which the body's "degraded" state and
// Retry-After hint advertise honestly.
func (c *Coordinator) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	c.mu.Lock()
	st := server.ReadyzStatus{Ready: true, State: server.ReadyOK,
		QueueDepth: c.q.len(), QueueCap: c.opts.QueueDepth}
	switch {
	case c.crashed:
		st.Ready, st.State = false, server.ReadyDead
	case c.draining:
		st.Ready, st.State = false, server.ReadyDraining
	case c.outstandingLocked() >= c.opts.QueueDepth:
		st.Ready, st.State = false, server.ReadyQueueFull
	case c.liveWorkersLocked() == 0:
		// Still ready — admission works — but flagged so routers know
		// completion waits on a worker.
		st.State = server.ReadyDegraded
		st.RetryAfterSec = int(c.opts.LeaseTTL.Seconds()) + 1
	}
	c.mu.Unlock()
	code := http.StatusOK
	if !st.Ready {
		if st.RetryAfterSec == 0 {
			st.RetryAfterSec = 2
		}
		w.Header().Set("Retry-After", strconv.Itoa(st.RetryAfterSec))
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, st)
}

// handleStatusz is the introspection snapshot.
func (c *Coordinator) handleStatusz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, c.statusz())
}

// readBody decodes a JSON body, rejecting unknown fields; on failure it
// writes the 400 itself and reports false.
func readBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 8<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeJSON(w, http.StatusBadRequest, server.ErrorBody{
			Error: fmt.Sprintf("decode request: %v", err), Kind: "bad-request"})
		return false
	}
	return true
}

// writeJSON writes one JSON response.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}
