// Package invariant is the cycle-level auditor: every N cycles it
// cross-checks the simulator's redundant state against itself — sharing
// lease accounting, barrier arrival counts, scoreboard producers, SIMT
// stack shape, and memory-request conservation across the L1/L2/DRAM
// queues. A violation means the simulator (not the kernel) broke an
// internal contract; the auditor turns what would otherwise surface as
// a silent hang or a wrong-but-clean result into a typed error with a
// forensic dump attached.
package invariant

import (
	"fmt"
	"strings"

	"gpushare/internal/mem"
	"gpushare/internal/simerr"
	"gpushare/internal/smcore"
)

// Class selects which invariant families the checker audits.
type Class uint16

const (
	ClassSharing    Class = 1 << iota // register/scratchpad lease accounting
	ClassBarrier                      // barrier arrival counts
	ClassScoreboard                   // pending bits have in-flight producers
	ClassSIMT                         // reconvergence stack well-formedness
	ClassMemory                       // request conservation across queues
	ClassSnapshot                     // cached warp snapshots, ready sets, issue cards and censuses match a recompute
	ClassTenancy                      // tenant isolation: slot ownership, pair locality, cap ledgers
	ClassMemIdle                      // skipped memory work really was not due: DRAM queues are arrival-ordered, memoized horizons match scan recomputes

	ClassAll = ClassSharing | ClassBarrier | ClassScoreboard | ClassSIMT | ClassMemory | ClassSnapshot | ClassTenancy | ClassMemIdle
)

// String names the classes in a mask, for error messages.
func (c Class) String() string {
	var parts []string
	for _, e := range [...]struct {
		bit  Class
		name string
	}{
		{ClassSharing, "sharing"}, {ClassBarrier, "barrier"},
		{ClassScoreboard, "scoreboard"}, {ClassSIMT, "simt"}, {ClassMemory, "memory"},
		{ClassSnapshot, "snapshot"}, {ClassTenancy, "tenancy"}, {ClassMemIdle, "mem-idle"},
	} {
		if c&e.bit != 0 {
			parts = append(parts, e.name)
		}
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, "+")
}

// Checker audits a running GPU. Zero-cost when not constructed: the run
// loop holds a nil *Checker and Check returns immediately.
type Checker struct {
	stride  int64
	classes Class
	sms     []*smcore.SM
	ms      *mem.System

	Checks      int64 // audit passes performed
	mshrScratch map[memKey]bool
}

type memKey struct {
	sm   int
	line uint32
}

// New builds a checker auditing the given SMs and memory system every
// stride cycles. A stride <= 0 disables auditing (returns nil).
func New(stride int64, classes Class, sms []*smcore.SM, ms *mem.System) *Checker {
	if stride <= 0 || classes == 0 {
		return nil
	}
	return &Checker{stride: stride, classes: classes, sms: sms, ms: ms,
		mshrScratch: make(map[memKey]bool)}
}

// Check runs the enabled audits if now falls on the stride. The first
// violation is returned as a typed invariant error with a forensic dump;
// nil means every enabled invariant held. Read-only.
func (c *Checker) Check(now int64) error {
	if c == nil || now%c.stride != 0 {
		return nil
	}
	c.Checks++
	for _, sm := range c.sms {
		if err := c.auditSM(sm, now); err != nil {
			return c.violation(now, sm.ID, err)
		}
	}
	if c.classes&ClassMemory != 0 {
		if err := c.auditMemory(); err != nil {
			return c.violation(now, -1, err)
		}
	}
	if c.classes&ClassMemIdle != 0 {
		// Every DRAM queue must be arrival-ordered (what the scheduler's
		// early exits rest on); and when the memory system is
		// event-driven, every memoized horizon must equal a from-scratch
		// recompute — the proof that each skipped partition/cycle really
		// was workless. This is what catches a MissedMemWake or a
		// DRAMQueueOrder fault promptly.
		if err := c.ms.AuditMemIdle(now); err != nil {
			return c.violation(now, -1, err)
		}
	}
	return nil
}

// Audit runs the given invariant families once over a machine state,
// regardless of any stride. The checkpoint bisector uses it to probe
// restored states for the first checkpoint at which an internal
// contract is already broken.
func Audit(now int64, classes Class, sms []*smcore.SM, ms *mem.System) error {
	c := &Checker{stride: 1, classes: classes, sms: sms, ms: ms,
		mshrScratch: make(map[memKey]bool)}
	return c.Check(now)
}

func (c *Checker) auditSM(sm *smcore.SM, now int64) error {
	if c.classes&ClassSharing != 0 {
		if err := sm.AuditSharing(); err != nil {
			return err
		}
	}
	if c.classes&ClassBarrier != 0 {
		if err := sm.AuditBarriers(); err != nil {
			return err
		}
	}
	if c.classes&ClassScoreboard != 0 {
		if err := sm.AuditScoreboard(now); err != nil {
			return err
		}
	}
	if c.classes&ClassSIMT != 0 {
		if err := sm.AuditSIMT(); err != nil {
			return err
		}
	}
	if c.classes&ClassSnapshot != 0 {
		if err := sm.AuditSnapshots(now); err != nil {
			return err
		}
	}
	if c.classes&ClassTenancy != 0 {
		if err := sm.AuditTenancy(); err != nil {
			return err
		}
	}
	return nil
}

// auditMemory checks request conservation: every outstanding L1 miss has
// exactly one read in flight somewhere in the memory system (request
// network, partition MSHR, pending L2 hit, or reply network), and every
// in-flight read maps back to an outstanding L1 miss. A mismatch means a
// request or reply was lost or duplicated between queues.
func (c *Checker) auditMemory() (err error) {
	inflight := c.mshrScratch
	clear(inflight)
	c.ms.ForEachInFlightRead(func(req mem.LineRequest) {
		if err != nil {
			return
		}
		k := memKey{sm: req.SM, line: req.LineAddr}
		if inflight[k] {
			err = fmt.Errorf("memory system carries duplicate in-flight reads for SM%d line %#x", req.SM, req.LineAddr)
			return
		}
		inflight[k] = true
		if req.SM < 0 || req.SM >= len(c.sms) {
			err = fmt.Errorf("in-flight read for line %#x addressed to nonexistent SM%d", req.LineAddr, req.SM)
			return
		}
		if !c.sms[req.SM].HasMSHRLine(req.LineAddr) {
			err = fmt.Errorf("in-flight read for SM%d line %#x has no matching L1 MSHR entry (orphaned request)", req.SM, req.LineAddr)
		}
	})
	if err != nil {
		return err
	}
	for _, sm := range c.sms {
		id := sm.ID
		sm.ForEachMSHRLine(func(line uint32) {
			if err == nil && !inflight[memKey{sm: id, line: line}] {
				err = fmt.Errorf("SM%d L1 MSHR waits for line %#x but the memory system has no such read in flight (lost request or dropped reply)", id, line)
			}
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// violation wraps an audit failure as a typed invariant error with a
// full forensic dump attached.
func (c *Checker) violation(now int64, sm int, err error) error {
	return &simerr.SimError{
		Kind: simerr.KindInvariant, Cycle: now, SM: sm, Warp: -1,
		Msg:  fmt.Sprintf("invariant violated (classes %s, stride %d)", c.classes, c.stride),
		Dump: BuildDump(now, c.sms, c.ms),
		Err:  err,
	}
}

// BuildDump captures a forensic snapshot of every SM and the memory
// system's queue depths. Used for invariant violations, watchdog fires,
// and cycle-limit aborts.
func BuildDump(now int64, sms []*smcore.SM, ms *mem.System) *simerr.Dump {
	d := &simerr.Dump{Cycle: now}
	for _, sm := range sms {
		d.SMs = append(d.SMs, sm.Forensics(now))
	}
	d.Mem.ToMem, d.Mem.ToSM, d.Mem.L2MSHR, d.Mem.L2Pending, d.Mem.DRAMQueued = ms.Depths()
	return d
}
