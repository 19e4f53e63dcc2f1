// Package invariant is the cycle-level auditor: every N cycles it
// cross-checks the simulator's redundant state against itself — sharing
// lease accounting, barrier arrival counts, scoreboard producers, SIMT
// stack shape, and memory-request conservation across the L1/L2/DRAM
// queues. A violation means the simulator (not the kernel) broke an
// internal contract; the auditor turns what would otherwise surface as
// a silent hang or a wrong-but-clean result into a typed error with a
// forensic dump attached, naming the audit that failed.
package invariant

import (
	"fmt"

	"gpushare/internal/mem"
	"gpushare/internal/simerr"
	"gpushare/internal/smcore"
)

// smAudits are the per-SM invariant families, in audit order, under the
// name a violation reports.
var smAudits = [...]struct {
	name  string
	audit func(sm *smcore.SM, now int64) error
}{
	{"sharing", func(sm *smcore.SM, _ int64) error { return sm.AuditSharing() }},  // register/scratchpad lease accounting
	{"barrier", func(sm *smcore.SM, _ int64) error { return sm.AuditBarriers() }}, // barrier arrival counts
	{"scoreboard", (*smcore.SM).AuditScoreboard},                                  // pending bits have in-flight producers
	{"simt", func(sm *smcore.SM, _ int64) error { return sm.AuditSIMT() }},        // reconvergence stack well-formedness
	{"snapshot", (*smcore.SM).AuditSnapshots},                                     // cached views, ready sets and censuses match a recompute
	{"tenancy", func(sm *smcore.SM, _ int64) error { return sm.AuditTenancy() }},  // slot ownership, pair locality, live footprint within the SM
}

// Checker audits a running GPU. Zero-cost when not constructed: the run
// loop holds a nil *Checker and Check returns immediately.
type Checker struct {
	stride int64
	sms    []*smcore.SM
	ms     *mem.System

	Checks      int64 // audit passes performed
	mshrScratch map[memKey]bool
}

type memKey struct {
	sm   int
	line uint32
}

// New builds a checker auditing the given SMs and memory system every
// stride cycles. A stride <= 0 disables auditing (returns nil).
func New(stride int64, sms []*smcore.SM, ms *mem.System) *Checker {
	if stride <= 0 {
		return nil
	}
	return &Checker{stride: stride, sms: sms, ms: ms, mshrScratch: make(map[memKey]bool)}
}

// Check runs every audit if now falls on the stride. The first
// violation is returned as a typed invariant error with a forensic dump;
// nil means every invariant held. Read-only.
func (c *Checker) Check(now int64) error {
	if c == nil || now%c.stride != 0 {
		return nil
	}
	c.Checks++
	for _, sm := range c.sms {
		for _, a := range smAudits {
			if err := a.audit(sm, now); err != nil {
				return c.violation(now, sm.ID, a.name, err)
			}
		}
	}
	if err := c.auditMemory(); err != nil {
		return c.violation(now, -1, "memory", err)
	}
	// Every DRAM queue must be arrival-ordered: the FR-FCFS walk stops
	// at the first request that has not arrived. This is what catches a
	// DRAMQueueOrder fault promptly.
	if err := c.ms.AuditDRAMOrder(); err != nil {
		return c.violation(now, -1, "dram-order", err)
	}
	return nil
}

// Audit runs every invariant family once over a machine state,
// regardless of any stride. The checkpoint bisector uses it to probe
// restored states for the first checkpoint at which an internal
// contract is already broken.
func Audit(now int64, sms []*smcore.SM, ms *mem.System) error {
	return New(1, sms, ms).Check(now)
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
func (c *Checker) violation(now int64, sm int, audit string, err error) error {
	return &simerr.SimError{
		Kind: simerr.KindInvariant, Cycle: now, SM: sm, Warp: -1,
		Msg:  fmt.Sprintf("invariant violated (%s audit, stride %d)", audit, c.stride),
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
