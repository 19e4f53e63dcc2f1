package server

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gpushare/internal/config"
)

// countingBackend is a Backend whose result cache answers every key
// (hit) or none, and counts the probes.
type countingBackend struct {
	hit     bool
	lookups atomic.Int64
}

func (b *countingBackend) NewRequest() Request { return new(SubmitRequest) }
func (b *countingBackend) Lookup(string) (JobStatus, bool) {
	b.lookups.Add(1)
	return JobStatus{State: StateDone, Tier: "disk-cache"}, b.hit
}
func (b *countingBackend) Load() Load                    { return Load{Parallel: 1} }
func (b *countingBackend) Enqueue(*Job)                  {}
func (b *countingBackend) Wire(_ *Job, st JobStatus) any { return st }
func (b *countingBackend) Statusz(cs CoreStatus) any     { return cs }
func (b *countingBackend) Wait()                         {}

func newCountingCore(t *testing.T, hit bool) (*Core, *countingBackend) {
	t.Helper()
	be := &countingBackend{hit: hit}
	c, err := NewCore("test", StateRunning, CoreOptions{QueueDepth: 8}, be, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	return c, be
}

func gaussianReq() *SubmitRequest {
	cfg := config.Default()
	return &SubmitRequest{Workload: "gaussian", Config: &cfg}
}

// TestResubmitDoesNotProbeTheCache: a key the registry holds is joined
// without asking the backend's result cache, whether the first
// submission was admitted or answered from that cache.
func TestResubmitDoesNotProbeTheCache(t *testing.T) {
	for _, hit := range []bool{false, true} {
		c, be := newCountingCore(t, hit)
		first := c.Submit(gaussianReq(), time.Now())
		if first.Job == nil {
			t.Fatalf("hit=%v: first submission refused: %+v", hit, first)
		}
		for i := 0; i < 5; i++ {
			if out := c.Submit(gaussianReq(), time.Now()); out.Job != first.Job || out.Code != 200 {
				t.Fatalf("hit=%v: resubmission = %+v, want the registered job, 200", hit, out)
			}
		}
		if n := be.lookups.Load(); n != 1 {
			t.Errorf("hit=%v: %d cache probes for one first submission and 5 resubmissions, want 1", hit, n)
		}
	}
}

// TestConcurrentCacheHitRegistersOnce: submissions of one cached key
// racing each other all get the one registry entry; the first is
// counted accepted, the rest deduplicated.
func TestConcurrentCacheHitRegistersOnce(t *testing.T) {
	c, _ := newCountingCore(t, true)
	const n = 16
	outs := make([]Outcome, n)
	var wg sync.WaitGroup
	for i := range outs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i] = c.Submit(gaussianReq(), time.Now())
		}(i)
	}
	wg.Wait()
	for i, out := range outs {
		if out.Job == nil || out.Job != outs[0].Job || out.Code != 200 {
			t.Fatalf("submission %d = %+v, want the one registered job, 200", i, out)
		}
	}
	if st := outs[0].Job.State; st != StateDone {
		t.Fatalf("state %q, want done", st)
	}
	st := c.statusz()
	if st.Accepted != 1 || st.Deduped != n-1 || len(c.Jobs()) != 1 {
		t.Errorf("accepted %d deduped %d entries %d, want 1/%d/1", st.Accepted, st.Deduped, len(c.Jobs()), n-1)
	}
}
