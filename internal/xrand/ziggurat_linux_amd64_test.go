package xrand

import (
	"math"
	"syscall"
	"testing"
	"unsafe"
)

// TestZigguratAVX512StaysInBounds runs the AVX-512 row fills on rows of
// every length up to 24 that end where an inaccessible page starts: a
// kernel that loads or stores a lane past its row faults.
func TestZigguratAVX512StaysInBounds(t *testing.T) {
	if !haveAVX512() {
		t.Skip("this CPU lacks AVX-512 F, DQ or VL: only the generic path runs")
	}
	page := syscall.Getpagesize()
	mem, err := syscall.Mmap(-1, 0, 2*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skipf("mmap: %v", err)
	}
	defer syscall.Munmap(mem)
	if err := syscall.Mprotect(mem[page:], syscall.PROT_NONE); err != nil {
		t.Skipf("mprotect: %v", err)
	}
	cells := unsafe.Slice((*float32)(unsafe.Pointer(&mem[0])), page/4)
	for n := 0; n <= 24; n++ {
		end, mid := cells[len(cells)-n:], cells[len(cells)/2-n:len(cells)/2]
		for i := range mid {
			mid[i], end[i] = float32(i), float32(-i)
		}
		for seed := uint64(0); seed < 50; seed++ {
			// The source, then the destination, then a fill's
			// destination at the page's end.
			for _, c := range []struct{ dst, src []float32 }{{mid, end}, {end, mid}, {end, nil}} {
				want := make([]float32, n)
				r, g := New(seed), New(seed)
				g.zigguratRow(want, c.src, 0.5)
				r.zigguratVector(c.dst, c.src, 0.5)
				for i := range want {
					if math.Float32bits(c.dst[i]) != math.Float32bits(want[i]) {
						t.Fatalf("%d cells, seed %d: cell %d = %v, generic %v", n, seed, i, c.dst[i], want[i])
					}
				}
			}
		}
	}
}
