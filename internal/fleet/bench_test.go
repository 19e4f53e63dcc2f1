package fleet_test

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"gpushare/internal/client"
	"gpushare/internal/fleet"
	"gpushare/internal/server"
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
