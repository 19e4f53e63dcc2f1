package fleet_test

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"

	"gpushare/internal/client"
	"gpushare/internal/fleet"
	"gpushare/internal/runner"
	"gpushare/internal/server"
	"gpushare/internal/stats"
)

// BenchmarkFleetDispatch is one fresh job of the cheapest workload
// submitted through gsched (POST ?wait=1) to a single in-process gserved
// worker: ns/op is the whole trip, queue, dispatch and result relay
// included. Each iteration also sends a job of the same cost straight to
// the worker with the timer stopped; worker-ms/job is that leg, and
// dispatch-ms/job — what the fleet layer adds to a job — the difference.
func BenchmarkFleetDispatch(b *testing.B) {
	s, err := server.New(server.Options{Workers: 1, CoreOptions: server.CoreOptions{QueueDepth: 32}})
	if err != nil {
		b.Fatal(err)
	}
	wts := httptest.NewServer(s.Handler())
	c, err := fleet.New(fleet.Options{Workers: []string{wts.URL}})
	if err != nil {
		b.Fatal(err)
	}
	cts := httptest.NewServer(c.Handler())
	defer func() {
		c.Kill()
		cts.Close()
		s.Kill()
		wts.Close()
	}()
	direct, viaFleet := client.New(wts.URL), client.New(cts.URL)
	ctx := context.Background()
	seed := uint64(time.Now().UnixNano()) // fresh keys on every run of the binary
	run := func(cl *client.Client) time.Duration {
		seed++
		t0 := time.Now()
		st, err := cl.SubmitWait(ctx, seededReq(seed, 1).SubmitRequest)
		if err != nil || st.State != server.StateDone {
			b.Fatalf("job = %+v, %v; want done", st, err)
		}
		return time.Since(t0)
	}
	run(direct) // lazy set-up on both paths stays out of the numbers
	run(viaFleet)

	var fleetT, directT time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		directT += run(direct)
		b.StartTimer()
		fleetT += run(viaFleet)
	}
	perJob := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1e3 / float64(b.N) }
	b.ReportMetric(perJob(directT), "worker-ms/job")
	b.ReportMetric(perJob(fleetT-directT), "dispatch-ms/job")
}

// BenchmarkDecodeStatus decodes one done status of the cheapest
// workload, as gserved and as gsched answer it, with the fast path
// (stats.Unmarshal) and with json.Unmarshal: what a client pays per
// finished job.
func BenchmarkDecodeStatus(b *testing.B) {
	run, key, err := server.BuildJob(&server.SubmitRequest{Workload: "gaussian"})
	if err != nil {
		b.Fatal(err)
	}
	g, err := runner.New(runner.Options{Workers: 1}).RunJob(run)
	if err != nil {
		b.Fatal(err)
	}
	st := server.JobStatus{Key: key, Workload: run.Label(), Scale: run.Scale,
		State: server.StateDone, Tier: "simulated", Attempts: 1, Stats: g}
	for _, c := range []struct {
		name string
		v    any
		new  func() any
	}{
		{"gserved", st, func() any { return new(server.JobStatus) }},
		{"gsched", fleet.JobStatus{JobStatus: st, Tenant: "alice", Priority: 3, Worker: "127.0.0.1:8377", Requeues: 1},
			func() any { return new(fleet.JobStatus) }},
	} {
		body, err := json.Marshal(c.v)
		if err != nil {
			b.Fatal(err)
		}
		body = append(body, '\n')
		for _, dec := range []struct {
			name      string
			unmarshal func([]byte, any) error
		}{{"fast", stats.Unmarshal}, {"encoding-json", json.Unmarshal}} {
			b.Run(c.name+"/"+dec.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := dec.unmarshal(body, c.new()); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
