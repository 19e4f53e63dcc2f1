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
		s.Send(LineRequest{LineAddr: addr, SM: sm, IsWrite: isWrite}, now)
	}
}

// roundTrip returns a fresh system restored from s's checkpoint (its
// backing store adopts s's pages).
func roundTrip(t *testing.T, cfg *config.Config, s *System) *System {
	t.Helper()
	r := NewSystem(cfg)
	if err := r.RestoreState(s.Checkpoint(), s.Global.Checkpoint()); err != nil {
		t.Fatal(err)
	}
	return r
}

// TestMemEventDrivenLockstep drives two systems with identical fuzzed
// traffic — bursty reads and writes with hot lines (L2 hits, MSHR
// merges), long quiet gaps, and full drains — one straight through and
// one replaced every few hundred cycles by a fresh system restored from
// its own checkpoint, and demands observational equality every cycle:
// the same SMs receive the same replies at the same cycles, and the
// final statistics (per-partition busy/peak counters included) are
// byte-identical.
func TestMemEventDrivenLockstep(t *testing.T) {
	cfg := config.Default()
	straight, rt := NewSystem(&cfg), NewSystem(&cfg)
	trips := 0
	step := func(now int64) {
		straight.Tick(now)
		rt.Tick(now)
		for p := 0; p < cfg.NumSMs; p++ {
			comparePop(t, rt, straight, p, now)
		}
		if now%331 == 0 {
			rt, trips = roundTrip(t, &cfg, rt), trips+1
		}
	}

	rng := rand.New(rand.NewSource(7))
	var now int64
	for now = 0; now < 30000; now++ {
		switch rng.Intn(40) {
		case 0: // burst of fresh lines
			for k := rng.Intn(6); k >= 0; k-- {
				addr := uint32(rng.Intn(1<<12)) * uint32(cfg.L1LineSz)
				sendPair(straight, rt, addr, rng.Intn(cfg.NumSMs), rng.Intn(8) == 0, now)
			}
		case 1: // hot line: merges and L2 hits
			sendPair(straight, rt, 0, rng.Intn(cfg.NumSMs), false, now)
		case 2, 3: // quiet gap: a random span with no traffic
			for end := now + int64(rng.Intn(300)); now < end; now++ {
				step(now)
			}
		}
		step(now)
		if err := rt.AuditDRAMOrder(); err != nil {
			t.Fatalf("cycle %d: %v", now, err)
		}
	}
	if trips < 50 {
		t.Fatalf("only %d checkpoint round trips: the restore was barely exercised", trips)
	}
	// Drain both fully and compare the complete statistics bytes.
	for ; !straight.Drained() || !rt.Drained(); now++ {
		step(now)
	}
	if a, b := statsJSON(t, rt), statsJSON(t, straight); a != b {
		t.Errorf("round-tripped statistics diverge from straight-through:\nround-tripped: %s\n     straight: %s", a, b)
	}
}

// comparePop pops SM port's reply of cycle now from both systems and
// demands the same presence and the same request.
func comparePop(t *testing.T, sa, sb *System, port int, now int64) {
	t.Helper()
	a, okA := sa.PopReply(port, now)
	b, okB := sb.PopReply(port, now)
	if okA != okB {
		t.Fatalf("cycle %d SM%d: reply presence diverges (%v vs %v)", now, port, okA, okB)
	}
	if a != b {
		t.Fatalf("cycle %d SM%d: reply diverges (%+v vs %+v)", now, port, a, b)
	}
}

// TestMemEventDrivenRestoreRederives: a checkpoint taken mid-traffic
// restores into a fresh system that continues in perfect lockstep with
// the original, audits passing from its first cycle.
func TestMemEventDrivenRestoreRederives(t *testing.T) {
	cfg := config.Default()
	orig := NewSystem(&cfg)

	rng := rand.New(rand.NewSource(3))
	var now int64
	for now = 0; now < 500; now++ {
		if rng.Intn(4) == 0 {
			addr := uint32(rng.Intn(1<<10)) * uint32(cfg.L1LineSz)
			orig.Send(LineRequest{LineAddr: addr, SM: rng.Intn(cfg.NumSMs)}, now)
		}
		orig.Tick(now)
		for p := 0; p < cfg.NumSMs; p++ {
			orig.PopReply(p, now)
		}
	}

	restored := roundTrip(t, &cfg, orig)
	if err := restored.AuditDRAMOrder(); err != nil {
		t.Fatalf("restored system audits before first tick: %v", err)
	}
	for ; now < 3000; now++ {
		orig.Tick(now)
		restored.Tick(now)
		for p := 0; p < cfg.NumSMs; p++ {
			comparePop(t, restored, orig, p, now)
		}
		if err := restored.AuditDRAMOrder(); err != nil {
			t.Fatalf("cycle %d: %v", now, err)
		}
	}
	if a, b := statsJSON(t, restored), statsJSON(t, orig); a != b {
		t.Errorf("restored statistics diverge from original:\nrestored: %s\noriginal: %s", a, b)
	}
}

// TestSustainedL2HitStreamStaysBounded: a partition that is handed an
// L2 hit every cycle never drains its hit pipeline (160 in flight at any
// time). The slice the pipeline used to be only reset when it emptied,
// so under such a stream it grew for the length of the run (73.6 MB of a
// 15 s sim_memory run's 607 MB); the ring it is now wraps in place.
// Steady state must allocate nothing, for as long as the stream lasts.
func TestSustainedL2HitStreamStaysBounded(t *testing.T) {
	cfg := config.Default()
	s := NewSystem(&cfg)
	var now int64
	step := func(send bool) {
		if send {
			for pi := 0; pi < cfg.L2Partitions; pi++ {
				s.Send(LineRequest{LineAddr: uint32(pi * 128), SM: int(now) % cfg.NumSMs}, now)
			}
		}
		if err := s.Tick(now); err != nil {
			t.Fatal(err)
		}
		for p := 0; p < cfg.NumSMs; p++ {
			s.PopReply(p, now)
		}
		now++
	}
	for !(now > 0 && s.Drained()) { // one cold miss per partition warms the lines
		step(now == 0)
	}
	for i := 0; i < 2000; i++ { // fill the pipeline, size the rings
		step(true)
	}
	if _, _, _, hits, _ := s.Depths(); hits < cfg.L2Partitions*cfg.L2HitLat/2 {
		t.Fatalf("only %d L2 hits in flight: the stream is not sustained", hits)
	}
	allocs := testing.AllocsPerRun(3, func() {
		for i := 0; i < 20000; i++ {
			step(true)
		}
	})
	if allocs != 0 {
		t.Errorf("20000 cycles of a sustained L2-hit stream allocate %.0f times, want 0", allocs)
	}
	if _, _, _, hits, _ := s.Depths(); hits > cfg.L2Partitions*(cfg.L2HitLat+cfg.IcntLat+2) {
		t.Errorf("%d L2 hits in flight: the pipeline is backing up", hits)
	}
}

// TestDrainedSystemHoldsNothing is the leak check. Line requests and
// DRAM requests are values inside the queues of the one system that was
// sent them, so "handed back to its owner" is "no queue still holds
// it": after mixed traffic and a drain every depth is zero, and doing
// it all again — same system, same traffic — allocates nothing, which
// is what the recycling pools were for.
func TestDrainedSystemHoldsNothing(t *testing.T) {
	cfg := config.Default()
	s := NewSystem(&cfg)
	var now int64
	rng := rand.New(rand.NewSource(11))
	round := func() {
		rng.Seed(11) // the same traffic every round, without a new generator
		for end := now + 4000; now < end || !s.Drained(); now++ {
			if now < end && rng.Intn(3) == 0 {
				addr := uint32(rng.Intn(1<<9)) * uint32(cfg.L1LineSz)
				s.Send(LineRequest{LineAddr: addr, SM: rng.Intn(cfg.NumSMs), IsWrite: rng.Intn(6) == 0}, now)
			}
			if err := s.Tick(now); err != nil {
				t.Fatal(err)
			}
			for p := 0; p < cfg.NumSMs; p++ {
				s.PopReply(p, now)
			}
		}
	}
	round()
	toMem, toSM, mshr, hits, dramq := s.Depths()
	if toMem+toSM+mshr+hits+dramq != 0 {
		t.Fatalf("drained system still holds: req-net %d reply-net %d L2-MSHR %d L2-hits %d DRAM %d", toMem, toSM, mshr, hits, dramq)
	}
	s.ForEachInFlightRead(func(r LineRequest) { t.Errorf("drained system reports %+v in flight", r) })
	if err := s.AuditDRAMOrder(); err != nil {
		t.Error(err)
	}
	if allocs := testing.AllocsPerRun(3, round); allocs != 0 {
		t.Errorf("a repeat of the same traffic allocates %.0f times, want 0", allocs)
	}
}
