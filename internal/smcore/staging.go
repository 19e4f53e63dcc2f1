package smcore

import "gpushare/internal/mem"

// This file implements the SM side of the parallel cycle engine's
// deterministic memory staging. When staged mode is on, an SM ticking on
// a worker goroutine never touches shared state: global-memory stores
// are recorded in its gmemProxy and line requests accumulate in its
// outbox. After the cycle barrier the engine calls FlushMem on each SM
// in ascending SM index, which applies the stores and injects the
// requests in exactly the order the sequential engine would have
// produced them — making the interconnect arrival order, and therefore
// every downstream timing decision, bit-identical to SMWorkers=1.

// stagedStore is one word written to global memory this cycle.
type stagedStore struct{ addr, val uint32 }

// outboundLine is one line request awaiting post-barrier injection.
type outboundLine struct {
	line    uint32
	isWrite bool
}

// gmemProxy interposes on the warp executor's global-memory accesses.
// In sequential mode it is a pass-through. In staged mode stores are
// buffered; loads see this SM's own same-cycle stores (matching the
// sequential engine, where a warp's store is immediately visible to a
// later warp on the same SM in the same cycle) layered over the shared
// backing store, which the parallel phase only reads.
type gmemProxy struct {
	base   *mem.Global
	staged bool
	stores []stagedStore
}

// Load32 implements warp.GlobalMem.
func (p *gmemProxy) Load32(addr uint32) uint32 {
	if len(p.stores) != 0 {
		a := addr &^ 3
		for i := len(p.stores) - 1; i >= 0; i-- {
			if p.stores[i].addr == a {
				return p.stores[i].val
			}
		}
	}
	return p.base.Load32(addr)
}

// Store32 implements warp.GlobalMem.
func (p *gmemProxy) Store32(addr, v uint32) {
	if !p.staged {
		p.base.Store32(addr, v)
		return
	}
	p.stores = append(p.stores, stagedStore{addr &^ 3, v})
}

// SetStaged switches the SM between direct (sequential engine) and
// staged (parallel engine) memory access. Must not be called mid-cycle.
func (sm *SM) SetStaged(on bool) {
	sm.staged = on
	sm.gmem.staged = on
}

// sendLine routes one line transaction toward the memory system: sent
// immediately in sequential mode, staged for the post-barrier flush in
// parallel mode.
func (sm *SM) sendLine(line uint32, isWrite bool, now int64) {
	if sm.staged {
		sm.outbox = append(sm.outbox, outboundLine{line: line, isWrite: isWrite})
		return
	}
	req := mem.GetLineRequest()
	req.LineAddr, req.IsWrite, req.SM = line, isWrite, sm.ID
	sm.memSys.Send(req, now)
}

// FlushMem publishes the cycle's staged stores and line requests. The
// engine calls it after the cycle barrier, in ascending SM order, so the
// global interleaving matches the sequential engine exactly.
func (sm *SM) FlushMem(now int64) {
	for _, st := range sm.gmem.stores {
		sm.gmem.base.Store32(st.addr, st.val)
	}
	sm.gmem.stores = sm.gmem.stores[:0]
	for _, o := range sm.outbox {
		req := mem.GetLineRequest()
		req.LineAddr, req.IsWrite, req.SM = o.line, o.isWrite, sm.ID
		sm.memSys.Send(req, now)
	}
	sm.outbox = sm.outbox[:0]
}

// ProgressHorizon returns the earliest future cycle at which this SM's
// state can change without external input (a memory reply or a block
// launch): the next writeback deadline or the cycle a busy LSU frees
// up. math.MaxInt64 when none is pending.
//
// Completeness argument (this is what makes per-SM sleep exact): every
// other piece of SM state that gates issue — barrier arrival counts,
// scoreboard dependency masks, pair-sharing leases, scheduler ready
// sets, MSHR occupancy — changes only as a consequence of an issue, a
// writeback retiring, a memory reply draining, or a block launch. If no
// warp can issue at cycle `now` and the stall inputs are constant, no
// warp can issue at any cycle before min(horizon, next reply, next
// launch) either, so both the machine-global idle fast-forward and the
// per-SM sleep may skip the intervening cycles exactly.
func (sm *SM) ProgressHorizon(now int64) int64 {
	next := sm.wb.nextAt(now)
	if sm.lsuBusy > now && sm.lsuBusy < next {
		next = sm.lsuBusy
	}
	return next
}
