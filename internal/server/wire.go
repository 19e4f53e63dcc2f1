package server

import (
	"gpushare/internal/config"
	"gpushare/internal/runner"
	"gpushare/internal/stats"
	"gpushare/internal/tenancy"
)

// Job lifecycle states reported by the API.
const (
	StateQueued   = "queued"   // admitted, waiting for a worker
	StateRunning  = "running"  // a worker is simulating it (gsched: "dispatched")
	StateDone     = "done"     // finished, stats available
	StateFailed   = "failed"   // finished with a simulator error
	StateCanceled = "canceled" // aborted by deadline or drain; resubmittable
)

// Terminal reports whether a job state is final: its done channel has
// closed and no later status will differ.
func Terminal(state string) bool {
	return state == StateDone || state == StateFailed || state == StateCanceled
}

// Readiness states reported by GET /readyz. A load balancer or the
// gsched coordinator keys off State: "draining" means alive and
// finishing owed work (do not route new jobs, do not declare it dead),
// while "dead" and a transport failure both mean the worker is gone.
const (
	ReadyOK        = "ready"
	ReadyQueueFull = "queue-full" // alive, shedding: retry later
	ReadyDraining  = "draining"   // alive, finishing in-flight work, not admitting
	ReadyDead      = "dead"       // abrupt-stopped (crash emulation); work must be rescheduled
	ReadyDegraded  = "degraded"   // gsched only: queueing, but no live workers to dispatch to
)

// ReadyzStatus is the body of GET /readyz (HTTP 200 when Ready, 503
// otherwise, always with this JSON body so callers can tell the 503
// flavors apart).
type ReadyzStatus struct {
	Ready         bool   `json:"ready"`
	State         string `json:"state"`
	RetryAfterSec int    `json:"retry_after_sec,omitempty"`
	QueueDepth    int    `json:"queue_depth"`
	QueueCap      int    `json:"queue_cap"`
}

// BuildInfo identifies the running binary for /statusz: the simulator
// fingerprint (which versions cached results), the Go toolchain, and
// the VCS revision when the binary carries one.
type BuildInfo struct {
	Fingerprint string `json:"fingerprint"`
	GoVersion   string `json:"go_version"`
	Revision    string `json:"revision,omitempty"`
	Dirty       bool   `json:"dirty,omitempty"`
}

// SubmitRequest is the body of POST /v1/jobs and each element of a
// sweep submission. Workload is required; Scale defaults to 1 and
// Config to the paper's Table I baseline.
type SubmitRequest struct {
	Workload string         `json:"workload"`
	Scale    int            `json:"scale,omitempty"`
	Config   *config.Config `json:"config,omitempty"`
	// Tenancy, when present, makes this a multi-kernel submission: the
	// spec's tenants run concurrently on one GPU under its policy
	// (internal/tenancy) and Workload must be empty. Per-tenant stats
	// come back in Stats.Tenants.
	Tenancy *tenancy.Spec `json:"tenancy,omitempty"`
	// DeadlineMillis is this job's execution budget, measured from
	// admission. A job that exceeds it is canceled within one
	// cancellation stride of the simulator's cycle loop (never run on to
	// MaxCycles) and may be resubmitted. 0 means no client deadline; the
	// server caps it at Options.MaxDeadline either way.
	DeadlineMillis int64 `json:"deadline_ms,omitempty"`
}

// JobStatus is one job's externally visible state, returned by submit,
// poll, and sweep endpoints. Stats is populated only when State is
// "done"; Error/ErrorKind/Diagnosis only when "failed" or "canceled".
type JobStatus struct {
	Key       string     `json:"key"`
	Workload  string     `json:"workload,omitempty"`
	Scale     int        `json:"scale,omitempty"`
	State     string     `json:"state"`
	Tier      string     `json:"tier,omitempty"` // simulated | memory-cache | disk-cache
	Attempts  int        `json:"attempts,omitempty"`
	Error     string     `json:"error,omitempty"`
	ErrorKind string     `json:"error_kind,omitempty"`
	Diagnosis string     `json:"diagnosis,omitempty"` // forensic dump for simulator failures
	Stats     *stats.GPU `json:"stats,omitempty"`
	// Rejected explains why a sweep element was not admitted
	// ("queue-full" or "draining"); empty for admitted jobs.
	Rejected      string `json:"rejected,omitempty"`
	RetryAfterSec int    `json:"retry_after_sec,omitempty"`
	// Held marks a non-terminal answer to GET ?wait=: the daemon held the
	// request as long as it would and the job is still going, so ask
	// again at once. A daemon that ignores ?wait= never sets it, which is
	// how client.Wait tells "re-ask now" from "pause, then poll".
	Held bool `json:"held,omitempty"`
}

// SweepRequest is the body of POST /v1/sweeps; R is the daemon's
// submission type (SubmitRequest for gserved, fleet.SubmitRequest for
// gsched).
type SweepRequest[R any] struct {
	Jobs []R `json:"jobs"`
}

// SweepResponse reports per-element admission outcomes (POST) or the
// full job inventory (GET); S is the daemon's status type.
type SweepResponse[S any] struct {
	Jobs     []S `json:"jobs"`
	Rejected int `json:"rejected,omitempty"`
}

// ErrorBody is the JSON body of every non-2xx response. Kind carries
// either an admission reason ("queue-full", "draining", "bad-request",
// "panic") or the simerr kind of a failed simulation, in which case
// Cycle/SM/Warp/Diagnosis localize the failure.
type ErrorBody struct {
	Error         string `json:"error"`
	Kind          string `json:"kind,omitempty"`
	Cycle         int64  `json:"cycle,omitempty"`
	SM            int    `json:"sm,omitempty"`
	Warp          int    `json:"warp,omitempty"`
	Diagnosis     string `json:"diagnosis,omitempty"`
	RetryAfterSec int    `json:"retry_after_sec,omitempty"`
}

// JournalStatus is the write-ahead job journal's statusz view. Pending
// is the journal lag: jobs durably accepted but not yet finished — what
// a crash right now would replay on the next start.
type JournalStatus struct {
	Path        string `json:"path"`
	Appended    int64  `json:"appended"`
	Pending     int    `json:"pending"`
	Replayed    int64  `json:"replayed"`
	TornLines   int64  `json:"torn_lines"`
	Errors      int64  `json:"errors"`
	Compactions int64  `json:"compactions"`
}

// MemStatus aggregates the per-partition memory-system counters of
// every job this process simulated to completion: L2 traffic, DRAM row
// locality, and busy cycles are summed across partitions and jobs; the
// queue-occupancy high-water marks are maxima over all of them. Cache
// hits contribute nothing (their memory system never ran here), so the
// section measures this daemon's own simulation load.
type MemStatus struct {
	Jobs          int64 `json:"jobs"` // completed simulations contributing below
	BusyCycles    int64 `json:"busy_cycles"`
	L2Hits        int64 `json:"l2_hits"`
	L2Misses      int64 `json:"l2_misses"`
	DRAMRowHits   int64 `json:"dram_row_hits"`
	DRAMRowMisses int64 `json:"dram_row_misses"`
	DRAMQueuePeak int   `json:"dram_queue_peak"`
	MSHRPeak      int   `json:"mshr_peak"`
	PendingPeak   int   `json:"pending_peak"`
}

// add folds one completed job's per-partition breakdown into the
// process-lifetime aggregate.
func (m *MemStatus) add(parts []stats.MemPartition) {
	if len(parts) == 0 {
		return
	}
	m.Jobs++
	for i := range parts {
		p := &parts[i]
		m.BusyCycles += p.BusyCycles
		m.L2Hits += p.L2.Hits
		m.L2Misses += p.L2.Misses
		m.DRAMRowHits += p.DRAM.RowHits
		m.DRAMRowMisses += p.DRAM.RowMisses
		if p.DRAMQueuePeak > m.DRAMQueuePeak {
			m.DRAMQueuePeak = p.DRAMQueuePeak
		}
		if p.MSHRPeak > m.MSHRPeak {
			m.MSHRPeak = p.MSHRPeak
		}
		if p.PendingPeak > m.PendingPeak {
			m.PendingPeak = p.PendingPeak
		}
	}
}

// CoreStatus is the lifecycle core's half of GET /statusz. gserved
// serves it whole, inside Statusz; gsched picks from it into its own
// body (fleet.Statusz).
type CoreStatus struct {
	State      string         `json:"state"` // serving | draining | dead
	Build      BuildInfo      `json:"build"`
	Journal    *JournalStatus `json:"journal,omitempty"` // present only when the WAL is enabled
	UptimeSec  float64        `json:"uptime_sec"`
	QueueDepth int            `json:"queue_depth"`
	QueueCap   int            `json:"queue_cap"`

	InFlightBytes    int64 `json:"in_flight_bytes"`
	MaxInFlightBytes int64 `json:"max_in_flight_bytes"`

	Accepted      int64 `json:"accepted"`
	Deduped       int64 `json:"deduped"`
	RejectedQueue int64 `json:"rejected_queue"`
	RejectedDrain int64 `json:"rejected_drain"`
	RejectedBytes int64 `json:"rejected_bytes"`
	Panics        int64 `json:"panics"`

	JobStates map[string]int `json:"job_states"`

	// Terminal and replay totals: gserved's body has them as job_states
	// and journal.replayed, gsched's under keys of their own.
	Completed, Failed, Replayed int64 `json:"-"`
}

// Statusz is gserved's GET /statusz introspection snapshot. Runner
// carries the checkpoint counters (CkSaved/CkRestored) alongside the
// cache and simulation totals.
type Statusz struct {
	CoreStatus
	Workers  int             `json:"workers"`
	InFlight int             `json:"in_flight"` // distinct keys executing in the runner
	Runner   runner.Counters `json:"runner"`
	Mem      *MemStatus      `json:"mem,omitempty"` // absent until a simulation completes here
}
