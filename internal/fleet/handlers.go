package fleet

import (
	"net/http"

	"gpushare/internal/server"
)

// routes adds the worker registry to the job API the core already
// serves (the same routes as gserved's, so client tooling transfers).
func (c *Coordinator) routes() {
	c.Handle("POST /v1/workers", c.handleRegister)
	c.Handle("GET /v1/workers", c.handleWorkers)
	c.Handle("POST /v1/workers/{id}/drain", c.handleWorkerDrain)
}

// replyWorker answers with one registry entry, or 404 when the id is
// unknown.
func (c *Coordinator) replyWorker(w http.ResponseWriter, id string, wk *worker, ok bool) {
	if !ok {
		server.NotFound(w, "worker", id)
		return
	}
	c.Mu.Lock()
	st := c.workerStatusLocked(wk)
	c.Mu.Unlock()
	server.WriteJSON(w, http.StatusOK, st)
}

// handleRegister is POST /v1/workers: add a worker (or update one in
// place by id) and start probing it.
func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	release, ok := c.ReadBody(w, r, &req)
	defer release()
	if !ok {
		return
	}
	if req.URL == "" {
		server.WriteJSON(w, http.StatusBadRequest, server.ErrorBody{
			Error: "url is required", Kind: "bad-request"})
		return
	}
	c.replyWorker(w, req.ID, c.addWorker(req), true)
}

// handleWorkers is GET /v1/workers: the registry.
func (c *Coordinator) handleWorkers(w http.ResponseWriter, _ *http.Request) {
	c.Mu.Lock()
	resp := WorkersResponse{Workers: make([]WorkerStatus, 0, len(c.workers))}
	for _, id := range sortedKeys(c.workers) {
		resp.Workers = append(resp.Workers, c.workerStatusLocked(c.workers[id]))
	}
	c.Mu.Unlock()
	server.WriteJSON(w, http.StatusOK, resp)
}

// handleWorkerDrain is POST /v1/workers/{id}/drain: stop placing new
// jobs on a worker while honoring its lease (planned maintenance).
func (c *Coordinator) handleWorkerDrain(w http.ResponseWriter, r *http.Request) {
	wk, ok := c.drainWorker(r.PathValue("id"))
	c.replyWorker(w, r.PathValue("id"), wk, ok)
}
