package mem

import (
	"testing"

	"gpushare/internal/config"
)

// BenchmarkMemSystemTick measures one memory-system cycle under a
// steady stream of read traffic: each iteration injects one read from a
// rotating SM at a striding line address (so DRAM banks, L2 sets, and
// both interconnect directions stay busy), ticks the system once, and
// drains any ready replies.
func BenchmarkMemSystemTick(b *testing.B) {
	cfg := config.Default()
	s := NewSystem(&cfg)
	b.ReportAllocs()
	b.ResetTimer()
	var now int64
	addr := uint32(0)
	for i := 0; i < b.N; i++ {
		s.Send(LineRequest{LineAddr: addr, SM: int(now) % cfg.NumSMs}, now)
		addr += uint32(cfg.L1LineSz)
		if addr >= 1<<24 {
			addr = 0
		}
		s.Tick(now)
		for p := 0; p < cfg.NumSMs; p++ {
			s.PopReply(p, now)
		}
		now++
	}
}

// BenchmarkMemSystemTickIdle measures the cost of a memory-system cycle
// with traffic in flight but nothing due: a burst of L2-hitting reads
// is injected so every partition holds pending replies maturing ~160
// cycles out, then the benchmark ticks through the idle window. The
// event-driven tick (sleep) pays one memoized comparison per cycle; the
// straight-through tick (nosleep) walks every partition. This is the
// dominant regime for compute-bound kernels, where the memory system is
// armed but idle for almost every cycle.
func BenchmarkMemSystemTickIdle(b *testing.B) {
	run := func(b *testing.B, eventDriven bool) {
		cfg := config.Default()
		s := NewSystem(&cfg)
		s.SetEventDriven(eventDriven, nil)
		// Warm the L2 so the idle-window traffic hits: each partition
		// caches one line per SM.
		var now int64
		warm := func() {
			for sm := 0; sm < cfg.NumSMs; sm++ {
				for pi := 0; pi < cfg.L2Partitions; pi++ {
					s.Send(LineRequest{LineAddr: uint32((sm*cfg.L2Partitions + pi) * 128), SM: sm}, now)
				}
			}
			for !s.Drained() {
				s.Tick(now)
				for p := 0; p < cfg.NumSMs; p++ {
					s.PopReply(p, now)
				}
				now++
			}
		}
		warm()
		b.ReportAllocs()
		b.ResetTimer()
		const window = 128 // idle cycles per injected burst
		for i := 0; i < b.N; i += window {
			// One L2-hitting read per partition: the replies mature
			// after the hit latency, leaving the window in between
			// provably workless.
			for pi := 0; pi < cfg.L2Partitions; pi++ {
				s.Send(LineRequest{LineAddr: uint32(pi * 128)}, now)
			}
			for w := 0; w < window; w++ {
				s.Tick(now)
				s.PopReply(0, now)
				now++
			}
		}
	}
	b.Run("sleep", func(b *testing.B) { run(b, true) })
	b.Run("nosleep", func(b *testing.B) { run(b, false) })
}
