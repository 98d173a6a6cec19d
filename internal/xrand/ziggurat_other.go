//go:build !amd64

package xrand

// haveAVX512 is false off amd64: the row fills take zigguratRow and
// landscape's ConditionalEnergies its Go loop.
func haveAVX512() bool { return false }

// zigguratVector is zigguratRow where no vector kernel is built.
func (r *RNG) zigguratVector(dst, src []float32, std float64) {
	r.zigguratRow(dst, src, std)
}
