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

// weightsAVX512 is the body of boltzmannWeights on AVX-512: it runs
// boltzmann's steps on 20 float64 lanes, so every weight is weightsGo's
// bit for bit. It returns false, with w written, when a lane's argument
// -(cond[a]-minE)/temp is NaN or outside [-708, 708], where boltzmann
// may take a tail; weightsGo then rewrites w.
//
//go:noescape
func weightsAVX512(w, cond *[protein.NumAA]float64, minE, temp float64) (ok bool)
