package landscape

import "impress/internal/protein"

// residueIndex maps a residue letter to its alphabet index for the
// AVX-512 kernel, 0xff for a byte that is not a canonical residue code.
var residueIndex = func() (t [256]uint8) {
	for c := range t {
		t[c] = uint8(protein.Index(byte(c)))
	}
	return t
}()

// conditionalAVX512 is the body of ConditionalEnergies on AVX-512: out
// starts as the field row and each half-edge of adj adds its row or
// column, widened to float64, in adjacency order, so every out[a] is
// the Go loop's sum bit for bit. It returns false, with out partly
// written, when a residue adj reaches in full is not a canonical code;
// the Go loop then panics on it.
//
//go:noescape
func conditionalAVX512(out *[protein.NumAA]float64, field *[protein.NumAA]float32, adj []halfEdge, full []byte) (ok bool)
