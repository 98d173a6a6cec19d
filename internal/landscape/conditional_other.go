//go:build !amd64

package landscape

import "impress/internal/protein"

// conditionalAVX512 is never called off amd64, where xrand selects no
// AVX-512 kernel.
func conditionalAVX512(out *[protein.NumAA]float64, field *[protein.NumAA]float32, adj []halfEdge, full []byte) bool {
	return false
}
