package gpu

import (
	"context"
	"errors"
	"testing"

	"gpushare/internal/config"
	"gpushare/internal/kernel"
	"gpushare/internal/simerr"
	"gpushare/internal/stats"
	"gpushare/internal/tenancy"
)

// launchVecAdd allocates inputs for an n-thread vecadd and returns its
// launch descriptor.
func launchVecAdd(t *testing.T, sim *Sim, n int) *kernel.Launch {
	t.Helper()
	k := vecAddKernel(t)
	aAddr := sim.Mem.Alloc(4 * n)
	bAddr := sim.Mem.Alloc(4 * n)
	oAddr := sim.Mem.Alloc(4 * n)
	return &kernel.Launch{
		Kernel:  k,
		GridDim: n / 128,
		Params:  []uint32{aAddr, bAddr, oAddr},
	}
}

// loopModes are the four ways into the one cycle loop: the
// single-kernel run and the three tenancy policies.
var loopModes = []string{"single", "spatial", "cosched", "timeslice"}

// stageMode stages the mode's workload on sim — a 560-block vecadd for
// "single", the two-tenant mix under the named policy otherwise, both
// far longer than 2*cancelStride cycles — and returns its run.
func stageMode(t *testing.T, sim *Sim, mode string) func(context.Context) (*stats.GPU, error) {
	t.Helper()
	if mode == "single" {
		l := launchVecAdd(t, sim, 128*560)
		return func(ctx context.Context) (*stats.GPU, error) { return sim.RunCtx(ctx, l) }
	}
	policy, err := tenancy.ParsePolicy(mode)
	if err != nil {
		t.Fatal(err)
	}
	spec := twoTenantSpec(policy)
	launches := buildTenants(t, sim, spec, 1)
	return func(ctx context.Context) (*stats.GPU, error) { return sim.RunMultiCtx(ctx, spec, launches) }
}

func TestRunCtxPreCanceled(t *testing.T) {
	for _, mode := range loopModes {
		t.Run(mode, func(t *testing.T) {
			run := stageMode(t, MustNew(config.Default()), mode)
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			_, err := run(ctx)
			if err == nil {
				t.Fatal("run with a canceled context succeeded")
			}
			se, ok := simerr.As(err)
			if !ok || se.Kind != simerr.KindCanceled {
				t.Fatalf("err = %v, want KindCanceled SimError", err)
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v does not wrap context.Canceled", err)
			}
		})
	}
}

// expiringCtx is a context whose deadline passes between two polls of
// Err: the first `polls` calls report it live, every later one expired.
// A wall-clock deadline cannot pin that moment: on a loaded host 1 ms
// can pass during machine set-up, before the cycle loop's first poll.
type expiringCtx struct {
	context.Context
	polls int
}

func (c *expiringCtx) Err() error {
	if c.polls > 0 {
		c.polls--
		return nil
	}
	return context.DeadlineExceeded
}

func TestRunCtxDeadlineStopsMidRun(t *testing.T) {
	for _, mode := range loopModes {
		t.Run(mode, func(t *testing.T) {
			run := stageMode(t, MustNew(config.Default()), mode)
			// Live at the polls of cycles 0 and cancelStride, expired at the next.
			ctx := &expiringCtx{Context: context.Background(), polls: 2}
			_, err := run(ctx)

			se, ok := simerr.As(err)
			if !ok || se.Kind != simerr.KindCanceled {
				t.Fatalf("err = %v, want KindCanceled SimError", err)
			}
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("err = %v does not wrap context.DeadlineExceeded", err)
			}
			// Mid-run, at the first poll after expiry — not at cycle 0, and not
			// simulated on towards MaxCycles.
			if se.Cycle != 2*cancelStride {
				t.Fatalf("canceled at cycle %d, want %d (the first poll after the deadline)", se.Cycle, 2*cancelStride)
			}
		})
	}
}

func TestRunEquivalentToRunCtxBackground(t *testing.T) {
	sim := MustNew(config.Default())
	l := launchVecAdd(t, sim, 128*28)
	g, err := sim.RunCtx(context.Background(), l)
	if err != nil {
		t.Fatalf("RunCtx: %v", err)
	}
	if g.Cycles <= 0 {
		t.Fatalf("cycles = %d, want > 0", g.Cycles)
	}
}
