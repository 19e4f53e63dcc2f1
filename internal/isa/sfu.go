package isa

import "math"

// SFU kernels for FSIN and FEXP (see DESIGN.md "SFU kernels").
//
// The ISA defines FSIN and FEXP as float32(math.Sin(float64(x))) and
// float32(math.Exp2(float64(x))); Eval is that definition and stays the
// reference. Both libm calls compute a float64 to within about one
// double ulp, and the float32 rounding then throws 29 of its 53 bits
// away. The kernels compute only what that rounding can see: a cheap
// argument reduction and a short float64 polynomial, good to about 2^-37
// (sin) or 2^-34 (exp2) relative. Then comes Ziv's rounding test. With y
// the kernel's value, t the true value and L the libm value,
//
//	|y - t| <= m_kernel   and   |L - t| <= m_libm,
//
// so L lies strictly inside [y-m, y+m] for any m > m_kernel + m_libm.
// Rounding is monotone, so when y-m and y+m round to the same float32, L
// rounds to it too and the kernel's answer is exactly the definition's.
// Otherwise the interval holds a float32 rounding boundary and the lane
// falls back to the libm expression itself. The margins:
//
//   - polynomial: the minimax error of each polynomial on its reduced
//     interval, measured on a 10^6-point grid (sin 2^-37.50, cos 2^-43.6,
//     exp2 2^-34.53, all relative);
//   - evaluation: Horner's roundings, < 2^-50 relative for sin and cos
//     and < 2^-48 for exp2's eight terms. An architecture that contracts
//     a multiply-add into an FMA drops a rounding, which the same bounds
//     cover;
//   - reduction: sin's two-constant π/2 reduction is exact up to its last
//     subtraction (relative 2^-53, counted above) but for |k|·2^-81.5
//     absolute, from pio2Lo's own rounding and the rounding of k·pio2Lo.
//     exp2's reduction is exact;
//   - libm: Go's sources give math.Sin (from Cephes) a measured peak
//     relative error of 2.2e-16 and math.Exp2's exp kernel (from FreeBSD)
//     an error analysis of under one ulp; an architecture's assembly
//     version may differ. The budget is 2^-48 relative, sixteen double
//     ulps, plus |k|·2^-98 absolute for math.Sin's own three-constant
//     π/4 reduction;
//   - the test: y±m is one more double rounding, 2^-53 relative.
//
// Summed and rounded up: m = |y|·2^-37 + k²·2^-80 for sin (k² >= |k|)
// and m = y·2^-34 for exp2. A margin that is too wide costs only fallbacks
// (over every accepted float32, 2^-14.4 of sin's and 2^-11.5 of exp2's);
// one that is too narrow would be a wrong answer, and
// TestSFUKernelsMatchLibm (under -exhaustive, every accepted float32)
// compares the kernels with the definition.
//
// The kernels take and return float32 bits and convert to and from
// float64 with integer operations: on amd64 the scalar conversion
// instructions merge into their destination register, which chained
// every lane of a row behind the previous lane's result and cost more
// than the whole polynomial.

const (
	// roundMagic rounds a float64 of magnitude < 2^51 to an integer
	// (ties to even) when added and subtracted again; the integer also
	// sits in the low mantissa bits of the sum, offset by 2^51.
	roundMagic = 0x1.8p52

	// pio2Hi is π/2 to 31 significant bits, so k·pio2Hi is exact for
	// |k| < 2^22; pio2Lo is the rest, rounded to double (Go evaluates the
	// constant expression exactly).
	pio2Hi = 0x1.921fb544p+0
	pio2Lo = math.Pi/2 - pio2Hi

	// The arguments the kernels take: |x| < 2^sinMaxExp for sin, where
	// k·pio2Hi stays exact; exp2Min < x < exp2Max for exp2, where the
	// result is a normal float32 (round32's condition) and the scale 2^k
	// a normal double.
	sinMaxExp = 21
	exp2Min   = -126
	exp2Max   = 128

	sinRel  = 0x1p-37
	sinAbsK = 0x1p-80
	exp2Rel = 0x1p-34
)

// Minimax coefficients: sin r = r·(1 + z·S(z)) and cos r = 1 + z·C(z),
// z = r², on |r| <= π/4; 2^f = E(f) on |f| <= 1/2.
const (
	s1 = -0.16666666640796773
	s2 = 0.0083333293048111472
	s3 = -0.00019839312259335251
	s4 = 2.7181215306603251e-06

	c1 = -0.49999999999489447
	c2 = 0.04166666655344068
	c3 = -0.0013888880660209253
	c4 = 2.4798960902847799e-05
	c5 = -2.7174801963021437e-07

	e0 = 0.99999999996168298
	e1 = 0.69314718072844494
	e2 = 0.24022651198157058
	e3 = 0.055504103534554004
	e4 = 0.0096180272537384169
	e5 = 0.001333392255683579
	e6 = 0.00015469291119417147
	e7 = 1.5201923279547629e-05
)

// widen converts the bits of a normal float32 to the float64 it is.
func widen(a uint32) float64 {
	return math.Float64frombits(uint64(a&0x80000000)<<32 | (uint64(a&0x7fffffff)<<29 + (1023-127)<<52))
}

// round32 returns the bits of the float32 nearest to the positive y, or
// false when y-m and y+m round differently. Both kernels' results have
// y >= 2^-126, where float32 is normal, and there it is exact: a carry
// out of the top binade gives +Inf, and y-m dipping below 2^-126 can
// only round like y+m by carrying up to 2^-126 itself.
func round32(y, m float64) (uint32, bool) {
	lo := (math.Float64bits(y-m) + 1<<28) >> 29
	if hi := (math.Float64bits(y+m) + 1<<28) >> 29; lo != hi {
		return 0, false
	}
	return uint32(lo - (1023-127)<<23), true
}

// sinKernel returns the bits of sin(x) rounded to float32 and true when
// it can decide them; false means the caller must use libm.
func sinKernel(a uint32) (uint32, bool) {
	switch e := a >> 23 & 0xff; {
	case e == 0:
		// ±0 and subnormals: sin x = x·(1 - x²/6 + …) rounds to x.
		return a, true
	case e >= 127+sinMaxExp: // also Inf and NaN
		return 0, false
	}
	d := widen(a)
	// k = round(x·2/π); the conversion keeps the product from fusing
	// into the rounding add.
	t := float64(d*(2/math.Pi)) + roundMagic
	k := t - roundMagic
	r := (d - k*pio2Hi) - k*pio2Lo
	z := r * r
	q := math.Float64bits(t) // low bits: k mod 4
	var y float64
	if q&1 == 0 {
		y = r * (1 + z*(s1+z*(s2+z*(s3+z*s4))))
	} else {
		y = 1 + z*(c1+z*(c2+z*(c3+z*(c4+z*c5))))
	}
	yb := math.Float64bits(y)
	sign := uint32(yb>>32)&0x80000000 ^ uint32(q&2)<<30
	y = math.Float64frombits(yb &^ (1 << 63))
	// k² >= |k| for an integer k, and costs no absolute value.
	bits, ok := round32(y, y*sinRel+k*k*sinAbsK)
	return bits | sign, ok
}

// exp2Kernel returns the bits of 2^x rounded to float32 and true when
// it can decide them; false means the caller must use libm.
func exp2Kernel(a uint32) (uint32, bool) {
	if a&0x7fffffff < 0x00800000 {
		// ±0 and subnormals: 2^x = 1 + x·ln 2 + … rounds to 1.
		return 0x3f800000, true
	}
	d := widen(a) // Inf and NaN widen to magnitudes >= 2^128
	if !(d > exp2Min && d < exp2Max) {
		return 0, false
	}
	t := d + roundMagic
	k := t - roundMagic
	f := d - k // exact: |f| <= 1/2, and f is a multiple of x's last bit
	p := e0 + f*(e1+f*(e2+f*(e3+f*(e4+f*(e5+f*(e6+f*e7))))))
	// 2^k from k's bits in t: (2^51 + k + 1023) mod 2^12 is k + 1023.
	y := p * math.Float64frombits((math.Float64bits(t)+1023)<<52)
	return round32(y, y*exp2Rel)
}
