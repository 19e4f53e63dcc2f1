package mem

import (
	"math/rand"
	"testing"

	"gpushare/internal/config"
	"gpushare/internal/stats"
)

// statsJSON returns the system's aggregate + per-partition statistics as
// canonical bytes (the observational-equivalence witness).
func statsJSON(t *testing.T, s *System) string {
	t.Helper()
	var g stats.GPU
	s.CollectStats(&g)
	j, err := g.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	return string(j)
}

// sendPair injects identical requests into two lockstepped systems.
func sendPair(a, b *System, addr uint32, sm int, isWrite bool, now int64) {
	for _, s := range [2]*System{a, b} {
		r := GetLineRequest()
		r.LineAddr, r.SM, r.IsWrite = addr, sm, isWrite
		s.Send(r, now)
	}
}

// TestMemEventDrivenLockstep drives an event-driven system and a
// straight-through reference with identical fuzzed traffic — bursty
// reads and writes with hot lines (L2 hits, MSHR merges), long quiet
// gaps, and full drains — and demands observational equality every
// cycle: the same SMs receive the same replies at the same cycles, the
// memoized horizons always equal their scan recomputes, and the final
// statistics (per-partition busy/peak counters included) are
// byte-identical.
func TestMemEventDrivenLockstep(t *testing.T) {
	cfg := config.Default()
	ed := NewSystem(&cfg)
	ref := NewSystem(&cfg)
	ed.SetEventDriven(true, nil)

	rng := rand.New(rand.NewSource(7))
	var now int64
	for now = 0; now < 30000; now++ {
		switch rng.Intn(40) {
		case 0: // burst of fresh lines
			for k := rng.Intn(6); k >= 0; k-- {
				addr := uint32(rng.Intn(1<<12)) * uint32(cfg.L1LineSz)
				sendPair(ed, ref, addr, rng.Intn(cfg.NumSMs), rng.Intn(8) == 0, now)
			}
		case 1: // hot line: merges and L2 hits
			sendPair(ed, ref, 0, rng.Intn(cfg.NumSMs), false, now)
		case 2, 3:
			// quiet gap: skip ahead a random span with no traffic, the
			// regime the event-driven tick early-outs through.
			gap := int64(rng.Intn(300))
			for g := int64(0); g < gap; g++ {
				ed.Tick(now)
				ref.Tick(now)
				for p := 0; p < cfg.NumSMs; p++ {
					ra, rb := ed.PopReply(p, now), ref.PopReply(p, now)
					comparePop(t, ra, rb, p, now)
				}
				now++
			}
		}
		ed.Tick(now)
		ref.Tick(now)
		for p := 0; p < cfg.NumSMs; p++ {
			ra, rb := ed.PopReply(p, now), ref.PopReply(p, now)
			comparePop(t, ra, rb, p, now)
		}
		if now%97 == 0 {
			if err := ed.AuditMemIdle(now); err != nil {
				t.Fatalf("cycle %d: %v", now, err)
			}
		}
	}
	// Drain both fully and compare the complete statistics bytes.
	for !ed.Drained() || !ref.Drained() {
		ed.Tick(now)
		ref.Tick(now)
		for p := 0; p < cfg.NumSMs; p++ {
			comparePop(t, ed.PopReply(p, now), ref.PopReply(p, now), p, now)
		}
		now++
	}
	if a, b := statsJSON(t, ed), statsJSON(t, ref); a != b {
		t.Errorf("event-driven statistics diverge from straight-through:\n sleep: %s\nnosleep: %s", a, b)
	}
}

func comparePop(t *testing.T, a, b *LineRequest, port int, now int64) {
	t.Helper()
	if (a == nil) != (b == nil) {
		t.Fatalf("cycle %d SM%d: reply presence diverges (sleep %v, nosleep %v)", now, port, a != nil, b != nil)
	}
	if a == nil {
		return
	}
	if a.LineAddr != b.LineAddr || a.SM != b.SM || a.IsWrite != b.IsWrite {
		t.Fatalf("cycle %d SM%d: reply diverges (sleep %+v, nosleep %+v)", now, port, *a, *b)
	}
	PutLineRequest(a)
	PutLineRequest(b)
}

// TestMemEventDrivenRestoreRederives proves the memoized horizons are
// derived state: a checkpoint taken mid-traffic from an event-driven
// system carries no horizon fields, yet the restored system — whose
// horizons start as "not yet derived" — re-derives them on its first
// tick and continues in perfect lockstep with the original, audits
// passing throughout.
func TestMemEventDrivenRestoreRederives(t *testing.T) {
	cfg := config.Default()
	orig := NewSystem(&cfg)
	orig.SetEventDriven(true, nil)

	rng := rand.New(rand.NewSource(3))
	var now int64
	for now = 0; now < 500; now++ {
		if rng.Intn(4) == 0 {
			r := GetLineRequest()
			r.LineAddr = uint32(rng.Intn(1<<10)) * uint32(cfg.L1LineSz)
			r.SM = rng.Intn(cfg.NumSMs)
			orig.Send(r, now)
		}
		orig.Tick(now)
		for p := 0; p < cfg.NumSMs; p++ {
			if r := orig.PopReply(p, now); r != nil {
				PutLineRequest(r)
			}
		}
	}

	restored := NewSystem(&cfg)
	restored.SetEventDriven(true, nil)
	if err := restored.RestoreState(orig.Checkpoint()); err != nil {
		t.Fatal(err)
	}
	if err := restored.AuditMemIdle(now); err != nil {
		t.Fatalf("restored system audits before first tick: %v", err)
	}
	for ; now < 3000; now++ {
		orig.Tick(now)
		restored.Tick(now)
		for p := 0; p < cfg.NumSMs; p++ {
			comparePop(t, restored.PopReply(p, now), orig.PopReply(p, now), p, now)
		}
		if err := restored.AuditMemIdle(now); err != nil {
			t.Fatalf("cycle %d: restored horizons diverge from scans: %v", now, err)
		}
	}
	if a, b := statsJSON(t, restored), statsJSON(t, orig); a != b {
		t.Errorf("restored statistics diverge from original:\nrestored: %s\noriginal: %s", a, b)
	}
}
