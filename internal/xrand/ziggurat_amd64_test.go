package xrand

import "testing"

// TestZigguratAVX512StopsAtFirstSlowCell holds the kernel to its
// contract: it fills exactly the cells before the first whose draw
// leaves the fast path, or all of them, and returns that count with the
// state after them. A kernel that stops early still yields the right
// bits through zigguratRow, so only this catches it.
func TestZigguratAVX512StopsAtFirstSlowCell(t *testing.T) {
	if !haveAVX512() {
		t.Skip("this CPU lacks AVX-512 F, DQ or VL: only the generic path runs")
	}
	dst := make([]float32, 64)
	for seed := uint64(0); seed < 2000; seed++ {
		n := int(seed % 65)
		g := New(seed)
		want := n
		for i := 0; i < n; i++ {
			u := g.Uint64()
			if j, k := int32(u), u>>32&0x7F; uint32(max(j, -j)) >= kn[k] {
				want = i
				break
			}
		}
		done, next := zigguratAVX512(dst[:n], nil, seed, 1)
		if wantState := seed + uint64(want)*0x9e3779b97f4a7c15; done != want || next != wantState {
			t.Fatalf("seed %d, %d cells: kernel filled %d, state %#x; want %d, state %#x", seed, n, done, next, want, wantState)
		}
	}
}
