package fleet

import (
	"gpushare/internal/server"
)

// Worker lifecycle states. The transitions form the lease state
// machine:
//
//	alive ──(probe sees draining body)──▶ draining
//	alive/draining ──(lease expires: no successful probe within
//	                  LeaseTTL)──▶ dead, in-flight jobs requeued
//	dead ──(a probe succeeds again)──▶ alive (fresh lease; the worker
//	                  rejoins the pool — any jobs it finished meanwhile
//	                  are deduplicated by content key)
const (
	WorkerAlive    = "alive"
	WorkerDraining = "draining"
	WorkerDead     = "dead"
)

// Fleet job states: the core's, with "dispatched" where gserved says
// "running". A job canceled on a worker by preemption, worker drain or
// worker death is not canceled here — it is requeued, accepted work is
// owed until it is done or deterministically failed; only a job whose
// own deadline ran out turns canceled, under gserved's rule (transient:
// resubmittable, and still pending in the journal).
const (
	JobQueued     = server.StateQueued
	JobDispatched = "dispatched" // sent to a worker; running or about to
	JobDone       = server.StateDone
	JobFailed     = server.StateFailed
)

// SubmitRequest is the body of POST /v1/jobs on gsched: a gserved
// submission plus the fleet's scheduling envelope. The embedded request
// is forwarded to workers verbatim (minus the envelope), so the
// content-addressed job key is identical on coordinator and worker.
type SubmitRequest struct {
	server.SubmitRequest
	// Tenant names the fair-share account this job bills against
	// ("" = "default"). Each tenant gets a weighted fair share of
	// dispatch slots, not a fixed partition.
	Tenant string `json:"tenant,omitempty"`
	// Weight scales the tenant's fair share (default 1, capped at 100).
	// The first submission naming a tenant fixes its weight.
	Weight int `json:"weight,omitempty"`
	// Priority orders jobs across tenants: higher runs first, and a
	// higher-priority arrival may preempt a running lower-priority job
	// (checkpoint, requeue, resume). Range [0, 9], default 0.
	Priority int `json:"priority,omitempty"`
}

// JobStatus is one fleet job's externally visible state: the worker's
// terminal status (stats, error, attempts) once finished, plus the
// fleet envelope — where it is, how often it was requeued or preempted.
type JobStatus struct {
	server.JobStatus
	Tenant   string `json:"tenant,omitempty"`
	Priority int    `json:"priority,omitempty"`
	// Worker is the id of the worker the job is or was last on.
	Worker string `json:"worker,omitempty"`
	// Requeues counts every return to the queue (worker death, worker
	// drain/cancel, dispatch failure, preemption).
	Requeues int `json:"requeues,omitempty"`
	// Preemptions counts requeues caused specifically by a
	// higher-priority arrival.
	Preemptions int `json:"preemptions,omitempty"`
}

// RegisterRequest is the body of POST /v1/workers: a gserved base URL
// and the number of jobs the coordinator may run on it concurrently.
type RegisterRequest struct {
	URL string `json:"url"`
	// Slots caps concurrent dispatches to this worker (default 1).
	Slots int `json:"slots,omitempty"`
	// ID names the worker; defaults to the URL's host:port (path-safe
	// for the /v1/workers/{id}/... endpoints). Re-registering an
	// existing id updates it in place (same lease, new URL/slots).
	ID string `json:"id,omitempty"`
}

// WorkerStatus is one worker's registry entry.
type WorkerStatus struct {
	ID       string `json:"id"`
	URL      string `json:"url"`
	State    string `json:"state"` // alive | draining | dead
	Slots    int    `json:"slots"`
	InFlight int    `json:"in_flight"` // jobs currently dispatched to it
	// LeaseMillis is how long until the lease expires (negative =
	// already expired; the next failed probe sweep marks it dead).
	LeaseMillis int64 `json:"lease_ms"`
	// Dispatched/Completed/Deaths are lifetime counters for this entry.
	Dispatched int64 `json:"dispatched"`
	Completed  int64 `json:"completed"`
	Deaths     int64 `json:"deaths"`
}

// WorkersResponse is GET /v1/workers.
type WorkersResponse struct {
	Workers []WorkerStatus `json:"workers"`
}

// TenantStatus is one fair-share account's queue view.
type TenantStatus struct {
	Name    string  `json:"name"`
	Weight  int     `json:"weight"`
	Queued  int     `json:"queued"`
	VTime   float64 `json:"vtime"` // fair-share virtual time consumed
	Started int64   `json:"started"`
}

// Statusz is gsched's GET /statusz introspection snapshot.
type Statusz struct {
	State     string                `json:"state"` // serving | degraded | draining | dead
	Build     server.BuildInfo      `json:"build"`
	Journal   *server.JournalStatus `json:"journal,omitempty"`
	UptimeSec float64               `json:"uptime_sec"`

	Workers []WorkerStatus `json:"workers"`
	Tenants []TenantStatus `json:"tenants"`

	Queued     int `json:"queued"`
	Dispatched int `json:"dispatched"`

	Accepted     int64 `json:"accepted"`
	Deduped      int64 `json:"deduped"`
	Completed    int64 `json:"completed"`
	Failed       int64 `json:"failed"`
	Requeues     int64 `json:"requeues"`
	Preemptions  int64 `json:"preemptions"`
	WorkerDeaths int64 `json:"worker_deaths"`
	Replayed     int64 `json:"replayed"`
	RejectedFull int64 `json:"rejected_full"`
	Panics       int64 `json:"panics"`
}
