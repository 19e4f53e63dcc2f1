package isa

import (
	"flag"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

var exhaustive = flag.Bool("exhaustive", false, "TestSFUKernelsMatchLibm checks every float32 the SFU kernels accept (check.sh -full)")

// sfuCase is one SFU kernel, the opcode whose Eval definition it must
// reproduce, and the arguments it decides itself (the rest go to libm).
type sfuCase struct {
	name   string
	op     Opcode
	kernel func(uint32) (uint32, bool)
	// accepts reports whether the kernel attempts x at all; the bit
	// ranges [lo, hi] are the same set, as the exhaustive sweep walks it.
	accepts func(float32) bool
	ranges  [][2]uint32
}

const sinMaxArg = 1 << sinMaxExp

var sfuCases = []sfuCase{
	{
		name: "sin", op: FSIN, kernel: sinKernel,
		accepts: func(x float32) bool { return math.Abs(float64(x)) < sinMaxArg },
		ranges: [][2]uint32{
			{0, f32bits(sinMaxArg) - 1},
			{0x80000000, f32bits(-sinMaxArg) - 1},
		},
	},
	{
		name: "exp2", op: FEXP, kernel: exp2Kernel,
		accepts: func(x float32) bool { return x > exp2Min && x < exp2Max },
		ranges: [][2]uint32{
			{0, f32bits(exp2Max) - 1},
			{0x80000000, f32bits(exp2Min) - 1},
		},
	},
}

// sfuTally counts, over some arguments, how many a kernel accepted and
// how many of those its margin test handed back to libm.
type sfuTally struct{ accepted, fellBack uint64 }

// check compares the kernel and the row path (kernel plus fallback)
// with Eval on the argument with bits b and returns false on any
// difference.
func (c *sfuCase) check(t *testing.T, b uint32, tally *sfuTally) bool {
	x := f32frombits(b)
	want := Eval(c.op, b, 0, 0)
	var src, dst Row
	src[0] = b
	if EvalRow(c.op, &dst, &src, nil, nil, 1); dst[0] != want {
		t.Errorf("%s row(%g = %#x) = %#x, Eval says %#x", c.name, x, b, dst[0], want)
		return false
	}
	y, ok := c.kernel(b)
	if ok && !c.accepts(x) {
		t.Errorf("%s kernel decided %g (%#x), outside the range it accepts", c.name, x, b)
		return false
	}
	if ok && y != want {
		t.Errorf("%s kernel(%g = %#x) = %#x, libm definition says %#x", c.name, x, b, y, want)
		return false
	}
	if c.accepts(x) {
		tally.accepted++
		if !ok {
			tally.fellBack++
		}
	}
	return true
}

// sfuBoundaries are the arguments where a kernel is most likely to be
// wrong: specials, the accepted range's edges, subnormal and overflowing
// exp2 results, ties of exp2's rounding, and sin near multiples of π/2
// (where the reduction cancels) and on both sides of its quadrant
// boundaries.
func sfuBoundaries() []uint32 {
	var bs []uint32
	around := func(x float32, n int) {
		b := f32bits(x)
		for d := -n; d <= n; d++ {
			bs = append(bs, b+uint32(d))
		}
	}
	span := func(from, to float32) { // every float32 of one sign from |from| to |to|
		for b := f32bits(from); b <= f32bits(to); b++ {
			bs = append(bs, b)
		}
	}
	inf := float32(math.Inf(1))
	bs = append(bs, 0, 0x80000000, f32bits(inf), f32bits(-inf),
		0x7fc00000, 0xffc00000, 0x7f800001, 0x7fc12345, 0xffbfffff)
	for b := uint32(1); b < 1024; b++ { // subnormal arguments
		bs = append(bs, b, b|0x80000000)
	}
	around(sinMaxArg, 8)
	around(-sinMaxArg, 8)
	around(exp2Min, 8)
	around(exp2Max, 8)
	around(math.MaxFloat32, 2)
	span(-148, -150)     // results from 2^-148 down through the last subnormal to 0
	span(-125.5, -126.5) // the normal/subnormal edge of the result
	span(127.5, 128)     // results rounding up to +Inf
	for n := exp2Min; n < exp2Max; n++ {
		around(float32(n)+0.5, 4)
	}
	for k := 1; k < 2000; k++ {
		around(float32(float64(k)*math.Pi/2), 3)
		around(-float32(float64(k)*math.Pi/2), 3)
		around(float32((float64(k)+0.5)*math.Pi/2), 3)
	}
	for k := 2000; k < sinMaxArg; k = k*5/4 + 1 {
		around(float32(float64(k)*math.Pi/2), 3)
	}
	return bs
}

// TestSFUKernelsMatchLibm is the SFU kernels' exactness proof: for every
// argument the kernel decides itself, its float32 equals the libm
// definition's (Eval) bit for bit, and the row wrapper equals Eval for
// every argument at all. Tier-1 checks a strided sample of all 2^32 bit
// patterns plus sfuBoundaries; -exhaustive checks every accepted float32,
// in parallel. It also bounds the share of accepted arguments handed
// back to libm, which is what the kernels' speed rests on.
func TestSFUKernelsMatchLibm(t *testing.T) {
	bounds := sfuBoundaries()
	for i := range sfuCases {
		c := &sfuCases[i]
		t.Run(c.name, func(t *testing.T) {
			var tally sfuTally
			for _, b := range bounds {
				c.check(t, b, &tally)
			}
			if *exhaustive {
				tally = c.sweep(t)
			} else {
				tally = sfuTally{}
				const stride = 1021
				for b := uint64(0); b < 1<<32; b += stride {
					if !c.check(t, uint32(b), &tally) {
						return
					}
				}
			}
			share := float64(tally.fellBack) / float64(tally.accepted)
			t.Logf("%d accepted arguments, %d decided by libm (%.3g, 2^%.1f)",
				tally.accepted, tally.fellBack, share, math.Log2(share))
			if share > 1.0/64 {
				t.Errorf("%s: %.3g of accepted arguments fall back to libm, want at most 1/64", c.name, share)
			}
		})
	}
}

// sweep checks every accepted argument, split into chunks over
// GOMAXPROCS workers, and stops at the first mismatch.
func (c *sfuCase) sweep(t *testing.T) sfuTally {
	type chunk struct{ lo, hi uint32 }
	chunks := make(chan chunk)
	go func() {
		defer close(chunks)
		for _, r := range c.ranges {
			for lo := uint64(r[0]); lo <= uint64(r[1]); lo += 1 << 20 {
				chunks <- chunk{uint32(lo), uint32(min(lo+1<<20-1, uint64(r[1])))}
			}
		}
	}()
	var (
		mu    sync.Mutex
		total sfuTally
		wg    sync.WaitGroup
		stop  bool
	)
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ch := range chunks {
				mu.Lock()
				done := stop
				mu.Unlock()
				if done {
					continue // drain
				}
				var tally sfuTally
				ok := true
				for b := uint64(ch.lo); b <= uint64(ch.hi) && ok; b++ {
					ok = c.check(t, uint32(b), &tally)
				}
				mu.Lock()
				total.accepted += tally.accepted
				total.fellBack += tally.fellBack
				stop = stop || !ok
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return total
}

// BenchmarkEvalRowSFU times one full-mask SFU row over the argument
// ranges the paper kernels feed it: mri-q's sin(k·x) with k·x in [0, 2)
// and lavaMD's exp2(-d²) with -d² in (-4, 0].
func BenchmarkEvalRowSFU(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, bc := range []struct {
		name string
		op   Opcode
		lo   float32
		hi   float32
	}{
		{"sin", FSIN, 0, 2},
		{"exp2", FEXP, -4, 0},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var src [64]Row
			for i := range src {
				for l := range src[i] {
					src[i][l] = f32bits(bc.lo + (bc.hi-bc.lo)*rng.Float32())
				}
			}
			var dst Row
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				EvalRow(bc.op, &dst, &src[i&63], nil, nil, FullMask)
			}
		})
	}
}
