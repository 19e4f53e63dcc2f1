// Command gsched is the fleet coordinator: it shards simulation jobs
// across a fleet of gserved workers with heartbeat failure detection,
// orphan requeue, checkpoint-based preemption, and a write-ahead queue
// journal that survives kill -9.
//
// Usage:
//
//	gsched -addr :8378 -worker http://127.0.0.1:8377 -worker http://127.0.0.1:8380
//	gsched -addr 127.0.0.1:0 -journal /var/lib/gpushare/gsched-journal
//
// Endpoints:
//
//	POST /v1/jobs                     submit into the fair queue (fields of a
//	                                  gserved submission plus "tenant",
//	                                  "weight", "priority"); ?wait=1 holds
//	                                  the request until done or failed
//	GET  /v1/jobs/{key}               one job's fleet-wide status; ?wait=
//	                                  holds it (at most 20s) until the job
//	                                  is terminal — a non-terminal reply
//	                                  ("held":true) means ask again
//	POST /v1/sweeps                   batch submit; GET /v1/sweeps lists all
//	POST /v1/workers                  register a worker ({"url":..,"slots":..})
//	GET  /v1/workers                  the registry with lease state
//	POST /v1/workers/{id}/drain       stop placing jobs on a worker
//	GET  /healthz /readyz /statusz
//
// Workers are probed every -probe interval (probes are the only lease
// renewal); one that misses probes for a full -lease TTL is declared dead and its in-flight jobs are
// requeued onto the survivors. Give every worker the same
// -checkpoint-dir and a preempted or orphaned job resumes from its last
// checkpoint on whichever worker picks it up next.
//
// On SIGTERM or SIGINT the coordinator stops admitting, lets
// dispatched jobs finish up to the -drain deadline, and exits; queued
// jobs it never ran stay in the journal for the next start.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"gpushare/internal/fleet"
	"gpushare/internal/server"
)

// workerList collects repeated -worker flags.
type workerList []string

func (l *workerList) String() string { return strings.Join(*l, ",") }
func (l *workerList) Set(v string) error {
	if v == "" {
		return fmt.Errorf("empty worker URL")
	}
	*l = append(*l, v)
	return nil
}

func main() {
	var workers workerList
	var (
		addr     = flag.String("addr", ":8378", "listen address (use port 0 to pick a free port)")
		slots    = flag.Int("slots", 1, "concurrent jobs per statically registered worker")
		lease    = flag.Duration("lease", 3*time.Second, "worker lease TTL: a worker silent this long is declared dead and its jobs requeued")
		probe    = flag.Duration("probe", 0, "heartbeat probe interval (0 = lease/3)")
		queue    = flag.Int("queue", 1024, "admitted-but-unfinished job bound; beyond it submissions get 429")
		journal  = flag.String("journal", "", "write-ahead queue journal directory: each admission is fsync'd there as one record before dispatch, and a killed coordinator re-admits unfinished jobs on restart; a path that is not a directory is refused ('' disables)")
		deadline = flag.Duration("maxdeadline", 10*time.Minute, "cap on client-requested job deadlines")
		drain    = flag.Duration("drain", 30*time.Second, "graceful drain deadline after SIGTERM")
	)
	flag.Var(&workers, "worker", "gserved worker base URL (repeatable)")
	flag.Parse()

	coord, err := fleet.New(fleet.Options{
		CoreOptions:   server.CoreOptions{QueueDepth: *queue, MaxDeadline: *deadline, JournalPath: *journal},
		LeaseTTL:      *lease,
		ProbeInterval: *probe,
		Workers:       workers,
		Slots:         *slots,
	})
	if err == nil {
		err = server.Serve(coord.Core, *addr, *drain)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "gsched: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("gsched: drained")
}
