package sched

import (
	"testing"

	"gpushare/internal/config"
	"gpushare/internal/core"
)

// BenchmarkSchedOrder measures one cycle of scheduler ranking over 48
// warps — one view change, a walk of the whole ranking through the
// cursor, one issue — the way the SM issue stage drives it, except that
// the issue stage usually stops after a few warps. GTO and OWF walk
// their incremental ready lists (Sync + Begin); lrr and two-level rotate
// their views directly. Every policy must be allocation-free in steady
// state.
func BenchmarkSchedOrder(b *testing.B) {
	policies := []struct {
		name string
		pol  config.SchedPolicy
	}{
		{"lrr", config.SchedLRR}, {"gto", config.SchedGTO},
		{"two-level", config.SchedTwoLevel}, {"owf", config.SchedOWF},
	}
	for _, p := range policies {
		b.Run(p.name, func(b *testing.B) {
			const n = 48
			s := New(p.pol, 8)
			ws := make([]WarpInfo, n)
			for i := range ws {
				ws[i] = WarpInfo{
					Slot: i, DynID: int64(i),
					Category: core.Category(i % 3),
					HasWork:  i%4 != 0,
				}
			}
			inc, isInc := s.(Incremental)
			if isInc {
				for i := range ws {
					inc.Sync(ws[i])
				}
			}
			var c Cursor
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w := &ws[i%n]
				w.HasWork = !w.HasWork
				if isInc {
					inc.Sync(*w)
				}
				s.Begin(ws, &c)
				first := c.Next()
				for c.Next() >= 0 {
				}
				if first >= 0 {
					s.Issued(first)
				}
			}
		})
	}
}
