package sched

import (
	"testing"

	"gpushare/internal/config"
	"gpushare/internal/core"
)

// BenchmarkSchedOrder measures one cycle of scheduler ranking over 48
// warps — one view change, the ranking's runs, a walk of every index in
// them, one issue of the first warp with work — the way the SM issue
// stage drives it, except that the issue stage walks only the indices
// its masks leave. GTO and OWF rank their incremental ready lists (Sync
// + Begin); lrr and two-level rotate their views directly. Every policy
// must be allocation-free in steady state.
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
			s := New(p.pol, 8, func(int) bool { return false })
			ws := make([]WarpInfo, n)
			for i := range ws {
				ws[i] = WarpInfo{
					Slot: i, DynID: int64(i),
					Category: core.Category(i % 3),
					HasWork:  i%4 != 0,
				}
			}
			var inc *ReadyList
			if i, ok := s.(Incremental); ok {
				inc = i.Ready()
			}
			isInc := inc != nil
			if isInc {
				for i := range ws {
					inc.Sync(ws[i])
				}
			}
			var r Ranking
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w := &ws[i%n]
				w.HasWork = !w.HasWork
				if isInc {
					inc.Sync(*w)
				}
				s.Begin(ws, &r)
				first, firstPos := -1, -1
				for _, rg := range r.Ranges() {
					for i := int(rg.Lo); i < int(rg.Hi); i++ {
						var slot int
						switch {
						case isInc:
							slot = inc.Slot(i)
						case ws[i].HasWork:
							slot = ws[i].Slot
						default:
							continue
						}
						if first < 0 {
							first, firstPos = slot, i
						}
					}
				}
				if first >= 0 {
					s.Issued(first, firstPos)
				}
			}
		})
	}
}
