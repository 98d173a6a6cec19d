package xrand

// haveAVX512 reports whether the CPU runs the AVX-512 kernels
// (zigguratAVX512 here, landscape's conditionalAVX512): it has AVX-512
// F, DQ and VL, and the operating system saves the opmask and ZMM
// registers across context switches (XCR0 bits 1, 2 and 5–7). It runs
// once, at start-up (cpuAVX512).
func haveAVX512() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	if _, _, ecx, _ := cpuid(1, 0); ecx&(1<<27) == 0 { // OSXSAVE: XGETBV is available
		return false
	}
	if xgetbv()&0xe6 != 0xe6 {
		return false
	}
	const f, dq, vl = 1 << 16, 1 << 17, 1 << 31
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(f|dq|vl) == f|dq|vl
}

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax uint32)

// zigguratAVX512 fills dst from its first cell as zigguratRow would:
// src nil for a fill, else src at least as long as dst. It draws 16
// words a step and finishes the draws that leave the fast path itself —
// wedge draws the squeeze band decides, rejections and restarts
// included — so it stops only before the first cell whose draw needs
// math.Log (the base layer's tail) or math.Exp (a wedge y inside the
// band), about one cell in 400. It returns the cells filled and the
// generator state to go on from: after them, or, for a stopped cell
// whose draw was rejected and restarted, at its fresh word, from which
// zigguratRow draws it as it would have after the rejection.
//
//go:noescape
func zigguratAVX512(dst, src []float32, state uint64, std float64) (done int, next uint64)

// zigguratVector is zigguratRow on the AVX-512 kernel. Each cell the
// kernel stops at is finished by zigguratRow, which draws it exactly as
// the generic path does; the kernel then resumes after it.
func (r *RNG) zigguratVector(dst, src []float32, std float64) {
	for {
		n, s := zigguratAVX512(dst, src, r.state, std)
		r.state = s
		if n == len(dst) {
			return
		}
		var in []float32
		if src != nil {
			in, src = src[n:n+1], src[n+1:]
		}
		r.zigguratRow(dst[n:n+1], in, std)
		dst = dst[n+1:]
	}
}
