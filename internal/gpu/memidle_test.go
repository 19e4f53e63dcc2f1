package gpu

import (
	"strings"
	"testing"

	"gpushare/internal/config"
	"gpushare/internal/fault"
	"gpushare/internal/kernel"
	"gpushare/internal/simerr"
)

// TestDRAMQueueOrderFaultCaught: the DRAMQueueOrder fault makes the two
// newest requests of one DRAM queue trade places, behind Enqueue's back,
// so the queue is no longer arrival-ordered and the scheduler's early
// exits would skip an arrived request. The dram-order class walks every
// queue at every audit and must name the breach — in reference mode too,
// where the scheduler is the same one.
func TestDRAMQueueOrderFaultCaught(t *testing.T) {
	for _, ref := range []bool{false, true} {
		cfg := config.Default()
		cfg.NumSMs = 4
		cfg.Reference = ref
		cfg.InvariantStride = 8 // a request spends 160 cycles in the queue before it can leave
		sim := MustNew(cfg)
		const n = 128 * 56
		a, b, out := sim.Mem.Alloc(4*n), sim.Mem.Alloc(4*n), sim.Mem.Alloc(4*n)
		plan := fault.NewPlan(fault.DRAMQueueOrder, 13, 4)
		sim.Faults = plan
		_, err := sim.Run(&kernel.Launch{Kernel: vecAddKernel(t), GridDim: n / 128, Params: []uint32{a, b, out}})
		if !plan.Injected {
			t.Fatal("dram-queue-order fault never found an injection opportunity")
		}
		se, ok := simerr.As(err)
		if !ok || se.Kind != simerr.KindInvariant || se.Dump == nil {
			t.Fatalf("reference=%v: swap injected at cycle %d ended as %v, want an invariant violation with a dump", ref, plan.Cycle, err)
		}
		if msg := err.Error(); !strings.Contains(msg, "dram-order") || !strings.Contains(msg, "DRAM queue out of arrival order") {
			t.Errorf("reference=%v: violation does not name the broken contract: %v", ref, err)
		}
		if se.Cycle < plan.Cycle || se.Cycle > plan.Cycle+cfg.InvariantStride {
			t.Errorf("reference=%v: injected at cycle %d, reported at %d: want the next audit", ref, plan.Cycle, se.Cycle)
		}
	}
}
