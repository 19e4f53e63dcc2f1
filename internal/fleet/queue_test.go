package fleet

import (
	"fmt"
	"testing"

	"gpushare/internal/server"
)

// qjob builds a queued test job.
func qjob(tenant string, weight, prio int, seq int64) *fjob {
	return &fjob{
		Job:    &server.Job{Key: fmt.Sprintf("%s-%d", tenant, seq), Seq: seq, State: JobQueued},
		tenant: tenant, weight: weight, priority: prio,
	}
}

// popAll drains the queue and returns the tenants in pop order.
func popAll(q *fairQueue) []string {
	var order []string
	for {
		j := q.pop(nil)
		if j == nil {
			return order
		}
		order = append(order, j.tenant)
	}
}

// TestPriorityBandsDominate: a higher band empties completely before a
// lower one yields anything, regardless of tenant fairness.
func TestPriorityBandsDominate(t *testing.T) {
	q := newFairQueue()
	for i := int64(0); i < 3; i++ {
		q.push(qjob("a", 1, 0, i))
	}
	for i := int64(10); i < 12; i++ {
		q.push(qjob("b", 1, 5, i))
	}
	got := popAll(q)
	want := []string{"b", "b", "a", "a", "a"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop order = %v, want %v", got, want)
		}
	}
}

// TestWeightedFairShare: under sustained contention a weight-3 tenant
// receives three times the dispatch rate of a weight-1 tenant.
func TestWeightedFairShare(t *testing.T) {
	q := newFairQueue()
	for i := int64(0); i < 40; i++ {
		q.push(qjob("a", 3, 0, i))
		q.push(qjob("b", 1, 0, 100+i))
	}
	counts := map[string]int{}
	for i := 0; i < 40; i++ {
		j := q.pop(nil)
		if j == nil {
			t.Fatalf("queue dried up after %d pops", i)
		}
		counts[j.tenant]++
	}
	if counts["a"] < 28 || counts["a"] > 32 {
		t.Fatalf("weight-3 tenant got %d of 40 pops, want ~30 (weight-1 got %d)", counts["a"], counts["b"])
	}
}

// TestIdleTenantCannotBankCredit: a tenant that sat idle re-enters at
// the backlogged minimum virtual time instead of replaying its absence
// as a monopoly.
func TestIdleTenantCannotBankCredit(t *testing.T) {
	q := newFairQueue()
	for i := int64(0); i < 20; i++ {
		q.push(qjob("busy", 1, 0, i))
	}
	for i := 0; i < 10; i++ {
		q.pop(nil) // busy's vtime advances to 10
	}
	q.push(qjob("idle", 1, 0, 100))
	if got, want := q.tenants["idle"].vtime, q.tenants["busy"].vtime; got != want {
		t.Fatalf("idle tenant re-entered at vtime %f, want lifted to %f", got, want)
	}
	// From here the two tenants alternate rather than idle draining its
	// backlog first... it has one job; after it pops once both are even.
	first := q.pop(nil)
	if first == nil {
		t.Fatal("empty pop")
	}
}

// TestFIFOWithinTenant: same tenant, same band — strict admission
// order.
func TestFIFOWithinTenant(t *testing.T) {
	q := newFairQueue()
	for i := int64(0); i < 5; i++ {
		q.push(qjob("a", 1, 0, i))
	}
	for i := int64(0); i < 5; i++ {
		j := q.pop(nil)
		if j.Seq != i {
			t.Fatalf("pop %d returned seq %d, want FIFO", i, j.Seq)
		}
	}
}

// TestDeterministicTieBreak: equal vtime and band resolve by tenant
// name, so two coordinators fed the same sequence dispatch identically.
func TestDeterministicTieBreak(t *testing.T) {
	q := newFairQueue()
	q.push(qjob("zeta", 1, 0, 1))
	q.push(qjob("alpha", 1, 0, 2))
	if j := q.pop(nil); j.tenant != "alpha" {
		t.Fatalf("tie broke to %q, want alpha", j.tenant)
	}
}

// TestEligibleFilterHoldsPosition: a job held back by the filter keeps
// its FIFO slot and pops first once eligible again.
func TestEligibleFilterHoldsPosition(t *testing.T) {
	q := newFairQueue()
	for i := int64(0); i < 3; i++ {
		q.push(qjob("a", 1, 0, i))
	}
	skipFirst := func(j *fjob) bool { return j.Seq != 0 }
	if j := q.pop(skipFirst); j.Seq != 1 {
		t.Fatalf("filtered pop returned seq %d, want 1", j.Seq)
	}
	if j := q.pop(nil); j.Seq != 0 {
		t.Fatalf("unfiltered pop returned seq %d, want the held-back 0", j.Seq)
	}
	if got := q.len(); got != 1 {
		t.Fatalf("len = %d, want 1", got)
	}
}

// TestPeekPriority: reports the top eligible band without dequeuing.
func TestPeekPriority(t *testing.T) {
	q := newFairQueue()
	if got := q.peekPriority(nil); got != -1 {
		t.Fatalf("empty peek = %d, want -1", got)
	}
	q.push(qjob("a", 1, 2, 1))
	q.push(qjob("b", 1, 7, 2))
	if got := q.peekPriority(nil); got != 7 {
		t.Fatalf("peek = %d, want 7", got)
	}
	only2 := func(j *fjob) bool { return j.priority == 2 }
	if got := q.peekPriority(only2); got != 2 {
		t.Fatalf("filtered peek = %d, want 2", got)
	}
	if got := q.len(); got != 2 {
		t.Fatalf("peek consumed jobs: len = %d, want 2", got)
	}
}
