package isa

import (
	"math"
	"math/rand"
	"testing"
)

// randRow mixes arbitrary bit patterns with the values that matter to
// particular opcodes: small shift counts, equal operands, float
// specials.
func randRow(rng *rand.Rand) Row {
	specials := []uint32{0, 1, 31, 32, 0x80000000, 0xffffffff, f32bits(1.5), f32bits(-2),
		f32bits(float32(math.Inf(1))), f32bits(float32(math.NaN())), 0x7fc12345}
	var r Row
	for i := range r {
		switch rng.Intn(3) {
		case 0:
			r[i] = rng.Uint32()
		case 1:
			r[i] = specials[rng.Intn(len(specials))]
		default:
			r[i] = f32bits(rng.Float32()*200 - 100)
		}
	}
	return r
}

func isNaNBits(v uint32) bool { return v&0x7f800000 == 0x7f800000 && v&0x007fffff != 0 }

// TestEvalRowMatchesEval checks every row kernel against the scalar
// evaluator lane by lane, over the whole opcode byte space, under full,
// empty, single-lane and random masks, with the destination aliasing
// each source in turn. Lanes outside the mask must keep their value.
func TestEvalRowMatchesEval(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for opb := 0; opb < 256; opb++ {
		op := Opcode(opb)
		if op == SELP {
			continue // SelRow, checked below
		}
		for trial := 0; trial < 40; trial++ {
			mask := []uint32{FullMask, 0, 1 << uint(rng.Intn(Lanes)), rng.Uint32(), 0x0fffffff}[trial%5]
			rows := [4]Row{randRow(rng), randRow(rng), randRow(rng), randRow(rng)} // a, b, c, dst
			a, b, c, dst := &rows[0], &rows[1], &rows[2], &rows[3]
			switch trial / 5 % 5 { // aliasing
			case 1:
				dst = a
			case 2:
				dst = b
			case 3:
				dst = c
			case 4:
				b, c, dst = a, a, a
			}
			wantA, wantB, wantC, before := *a, *b, *c, *dst
			EvalRow(op, dst, a, b, c, mask)
			for i := 0; i < Lanes; i++ {
				want := before[i]
				if mask>>uint(i)&1 != 0 {
					want = Eval(op, wantA[i], wantB[i], wantC[i])
				}
				if dst[i] == want {
					continue
				}
				if (op == FADD || op == FSUB || op == FMUL || op == FFMA) && isNaNBits(dst[i]) && isNaNBits(want) {
					continue // payload choice between several NaN operands: see aluRow
				}
				t.Fatalf("%s lane %d mask %#x alias %d: got %#x want %#x (a=%#x b=%#x c=%#x)",
					op, i, mask, trial/5%5, dst[i], want, wantA[i], wantB[i], wantC[i])
			}
		}
	}
}

// TestCmpRowAndSelRow checks the compare and select kernels against
// their scalar definitions, over the whole CmpOp byte space.
func TestCmpRowAndSelRow(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		a, b := randRow(rng), randRow(rng)
		if trial%4 == 0 {
			b = a
		}
		for cb := 0; cb < 256; cb++ {
			got := CmpRow(CmpOp(cb), &a, &b)
			for i := 0; i < Lanes; i++ {
				if want := EvalCmp(CmpOp(cb), a[i], b[i]); (got>>uint(i)&1 != 0) != want {
					t.Fatalf("%s lane %d (%#x, %#x): got %v want %v", CmpOp(cb), i, a[i], b[i], !want, want)
				}
			}
		}
		pred, mask := rng.Uint32(), rng.Uint32()
		dst := randRow(rng)
		before := dst
		SelRow(&dst, &a, &b, pred, mask)
		for i := 0; i < Lanes; i++ {
			want := before[i]
			if mask>>uint(i)&1 != 0 {
				want = Eval(SELP, a[i], b[i], pred>>uint(i)&1)
			}
			if dst[i] != want {
				t.Fatalf("selp lane %d: got %#x want %#x", i, dst[i], want)
			}
		}
	}
}
