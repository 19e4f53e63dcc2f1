// Package calibrate holds the host-speed yardstick of tools/bench.sh: a
// fixed integer loop that runs no simulator code, so a benchmark row's
// ratio to it survives a change of host or a host running slower for a
// while, where the row's raw ns/op does not.
package calibrate

import "testing"

var sink uint64

// BenchmarkCalibrate runs 4096 rounds of xorshift64 per op: dependent
// integer ALU work only, no memory traffic, no allocation. Its cost must
// never change; tools/bench.sh divides every row's ns/op by it.
func BenchmarkCalibrate(b *testing.B) {
	x := uint64(88172645463325252)
	for i := 0; i < b.N; i++ {
		for j := 0; j < 4096; j++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
	}
	sink = x
}
