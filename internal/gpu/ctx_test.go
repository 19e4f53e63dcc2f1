package gpu

import (
	"context"
	"errors"
	"testing"

	"gpushare/internal/config"
	"gpushare/internal/kernel"
	"gpushare/internal/simerr"
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

func TestRunCtxPreCanceled(t *testing.T) {
	sim := MustNew(config.Default())
	l := launchVecAdd(t, sim, 128*28)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := sim.RunCtx(ctx, l)
	if err == nil {
		t.Fatal("RunCtx with a canceled context succeeded")
	}
	se, ok := simerr.As(err)
	if !ok || se.Kind != simerr.KindCanceled {
		t.Fatalf("err = %v, want KindCanceled SimError", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v does not wrap context.Canceled", err)
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
	sim := MustNew(config.Default())
	// Large enough that the simulation runs far past the third poll.
	l := launchVecAdd(t, sim, 128*560)

	// Live at the polls of cycles 0 and cancelStride, expired at the next.
	ctx := &expiringCtx{Context: context.Background(), polls: 2}
	_, err := sim.RunCtx(ctx, l)

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
