package workloads_test

import (
	"testing"

	"gpushare/internal/mem"
	"gpushare/internal/workloads"
)

// BenchmarkBuildSetup builds and sets up all 19 paper proxies at scale 1
// on fresh global memories: the per-job work before a simulation's
// first cycle. Its B/op and allocs/op are the proxies' own, plus the
// pages their inputs fill.
func BenchmarkBuildSetup(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, s := range workloads.All() {
			s.Build(1).Setup(mem.NewGlobal())
		}
	}
}
