package xrand

import "testing"

// kernelStop returns where zigguratAVX512 must stop on n cells from a
// generator at state: before the first cell whose draw needs math.Log
// (the base layer's tail) or math.Exp (a wedge y inside the squeeze
// band), or after all n, with the generator state at that point. Every
// other draw, rejected wedges included, the kernel finishes itself. A
// cell whose draw was rejected before it needed math.Exp or math.Log is
// handed over at its fresh word: zigguratRow draws it from there as it
// would have after the rejection.
func kernelStop(state uint64, n int) (done int, next uint64) {
	r := RNG{state: state}
	for i := 0; i < n; i++ {
		before := r
		u := r.Uint64()
		for {
			j, k := int32(u), u>>32&0x7F
			if uint32(max(j, -j)) < kn[k] {
				break
			}
			if k == 0 {
				return i, before.state
			}
			c := squeezeClass(r, u)
			r.Uint64() // y
			if c == 0 {
				return i, before.state
			}
			if c < 0 {
				break
			}
			// A rejected draw starts over with a fresh word, as a new
			// cell would: the kernel hands the cell over from there.
			before = r
			u = r.Uint64()
		}
	}
	return n, r.state
}

// TestZigguratAVX512StopsAtFirstSlowCell holds the kernel to its
// contract: it fills exactly the cells before the first whose draw
// needs math.Exp or math.Log, or all of them, and returns that count
// with the state after them. A kernel that stops early still yields the
// right bits through zigguratRow, so only this catches it.
func TestZigguratAVX512StopsAtFirstSlowCell(t *testing.T) {
	if !haveAVX512() {
		t.Skip("this CPU lacks AVX-512 F, DQ or VL: only the generic path runs")
	}
	dst := make([]float32, 1200)
	for seed := uint64(0); seed < 2000; seed++ {
		n := int(seed*7919) % (len(dst) + 1)
		want, wantState := kernelStop(seed, n)
		done, next := zigguratAVX512(dst[:n], nil, seed, 1)
		if done != want || next != wantState {
			t.Fatalf("seed %d, %d cells: kernel filled %d, state %#x; want %d, state %#x", seed, n, done, next, want, wantState)
		}
	}
}
