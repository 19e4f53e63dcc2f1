package server_test

import (
	"context"
	"testing"

	"gpushare/internal/config"
	"gpushare/internal/server"
	"gpushare/internal/tenancy"
)

// TestSubmitTenancyJob drives a two-tenant co-scheduled submission end
// to end through the HTTP API: admitted, simulated, and returned with a
// per-tenant stats breakdown; resubmission dedups onto the same key.
func TestSubmitTenancyJob(t *testing.T) {
	_, _, c := startDaemon(t, server.Options{Workers: 1, CoreOptions: server.CoreOptions{QueueDepth: 4}})
	ctx := context.Background()

	cfg := config.Default()
	cfg.NumSMs = 4
	req := server.SubmitRequest{
		Config: &cfg,
		Tenancy: &tenancy.Spec{
			Policy: tenancy.CoSched,
			Tenants: []tenancy.TenantSpec{
				{Name: "latency", Workload: "gaussian"},
				{Name: "batch", Workload: "CONV2"},
			},
		},
	}
	st, err := c.SubmitWait(ctx, req)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if st.State != server.StateDone || st.Stats == nil {
		t.Fatalf("status = %+v, want done with stats", st)
	}
	if st.Workload != "cosched(latency+batch)" {
		t.Fatalf("workload label = %q, want cosched(latency+batch)", st.Workload)
	}
	if len(st.Stats.Tenants) != 2 {
		t.Fatalf("stats carry %d tenant entries, want 2", len(st.Stats.Tenants))
	}
	for i, ten := range st.Stats.Tenants {
		if ten.IPC() <= 0 || ten.BlocksCompleted == 0 {
			t.Errorf("tenant %d (%s): IPC %.3f, %d blocks completed — want progress",
				i, ten.Name, ten.IPC(), ten.BlocksCompleted)
		}
	}

	st2, err := c.Submit(ctx, req)
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	if st2.Key != st.Key || st2.State != server.StateDone {
		t.Fatalf("resubmit = %+v, want dedup onto %s", st2, st.Key)
	}
}
