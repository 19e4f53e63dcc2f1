// Command gserved is the crash-tolerant simulation daemon: it serves
// the internal/runner farm over HTTP/JSON with admission control,
// per-job deadline propagation, idempotent submission by content-
// addressed job key, and SIGTERM graceful drain.
//
// Usage:
//
//	gserved -addr :8377 -cachedir /var/cache/gpushare -j 8
//	gserved -addr 127.0.0.1:0          # pick a free port (printed on stdout)
//
// Endpoints:
//
//	POST /v1/jobs            submit or dedup one job ({"workload":..,"scale":..,
//	                         "config":{..},"deadline_ms":..}); ?wait=1 holds
//	                         the request until the job is terminal
//	GET  /v1/jobs/{key}      one job (stats when done, diagnosis when failed);
//	                         ?wait= holds it (at most 20s) until the job is
//	                         terminal — a non-terminal reply ("held":true)
//	                         means ask again
//	POST /v1/jobs/{key}/cancel   stop a job, keeping its checkpoint trail
//	POST /v1/sweeps          batch submit; GET /v1/sweeps lists the inventory
//	GET  /healthz /readyz /statusz
//
// On SIGTERM or SIGINT the daemon stops admitting (503 + Retry-After),
// finishes queued and in-flight jobs — their results persist in the
// disk cache — cancels whatever is still running at the drain deadline,
// and exits 0.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	httppprof "net/http/pprof"
	"os"
	"time"

	"gpushare/internal/runner"
	"gpushare/internal/server"
)

func main() {
	var (
		addr     = flag.String("addr", ":8377", "listen address (use port 0 to pick a free port)")
		workers  = flag.Int("j", 0, "max concurrent simulations (0 = GOMAXPROCS)")
		cacheDir = flag.String("cachedir", "", "on-disk result cache directory, shared across restarts ('' disables)")
		queue    = flag.Int("queue", 64, "admission queue depth; beyond it submissions get 429")
		maxBody  = flag.Int64("maxbody", 1<<20, "per-request body cap in bytes")
		maxBytes = flag.Int64("maxinflight", 64<<20, "aggregate in-flight request bytes before shedding")
		timeout  = flag.Duration("timeout", 0, "per-attempt simulation timeout (0 = none)")
		deadline = flag.Duration("maxdeadline", 10*time.Minute, "cap on client-requested job deadlines")
		drain    = flag.Duration("drain", 30*time.Second, "graceful drain deadline after SIGTERM")
		verify   = flag.Bool("verify", false, "re-check functional outputs after fresh simulations")
		journal  = flag.String("journal", "", "write-ahead job journal directory: each admission is fsync'd there as one record before queueing, and a killed daemon re-admits unfinished jobs on restart; a path that is not a directory is refused ('' disables)")
		ckDir    = flag.String("checkpoint-dir", "", "mid-simulation checkpoint directory: retried attempts resume from the last snapshot instead of cycle 0 ('' disables)")
		ckStride = flag.Int64("checkpoint-stride", 100_000, "cycles between mid-simulation snapshots (with -checkpoint-dir)")
		pprofA   = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. 127.0.0.1:6060; '' disables). Kept off the job API listener so profiling is never exposed with the service port")
	)
	flag.Parse()

	// The profiling endpoint gets its own mux and listener: the job API
	// must be exposable without also exposing /debug/pprof.
	if *pprofA != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", httppprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", httppprof.Trace)
		pln, err := net.Listen("tcp", *pprofA)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gserved: -pprof: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("gserved: pprof on http://%s/debug/pprof/\n", pln.Addr())
		go func() {
			if err := http.Serve(pln, mux); err != nil {
				fmt.Fprintf(os.Stderr, "gserved: pprof: %v\n", err)
			}
		}()
	}

	srv, err := server.New(server.Options{
		CoreOptions: server.CoreOptions{
			QueueDepth:       *queue,
			MaxBodyBytes:     *maxBody,
			MaxInFlightBytes: *maxBytes,
			MaxDeadline:      *deadline,
			JournalPath:      *journal,
		},
		Workers: *workers,
		Runner: runner.Options{
			CacheDir:         *cacheDir,
			Timeout:          *timeout,
			Verify:           *verify,
			CheckpointDir:    *ckDir,
			CheckpointStride: *ckStride,
		},
	})
	if err == nil {
		err = server.Serve(srv.Core, *addr, *drain)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "gserved: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("gserved: drained: %s\n", srv.Runner().Counters())
}
