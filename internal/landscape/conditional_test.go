package landscape

import (
	"math"
	"slices"
	"testing"

	"impress/internal/protein"
	"impress/internal/xrand"
)

// fuzzModel builds a model of n positions from seed: random fields and
// edges between random pairs, listed in random order, so positions take
// any degree — 0 (the last position has no edge), odd or even — and
// mix row and column views in any order. Tables hold normals scaled
// over a wide exponent range.
func fuzzModel(seed uint64, n, edges int) *Model {
	g := xrand.New(seed)
	cell := func() float32 { return float32(g.NormFloat64() * math.Ldexp(1, g.Intn(40)-20)) }
	m := &Model{Name: "fuzz", RecLen: n, Fields: make([][protein.NumAA]float32, n+1), cfg: DefaultConfig()}
	m.PepLen = 1
	for i := range m.Fields {
		for a := range m.Fields[i] {
			m.Fields[i][a] = cell()
		}
	}
	m.Edges = make([]Edge, edges)
	for k := range m.Edges {
		e := &m.Edges[k]
		e.I = g.Intn(n)
		if e.J = g.Intn(n - 1); e.J >= e.I {
			e.J++
		}
		for a := range e.W {
			for b := range e.W[a] {
				e.W[a][b] = cell()
			}
		}
	}
	m.buildAdjacency()
	return m
}

// FuzzConditionalEnergies holds the AVX-512 kernel to conditionalGo bit
// for bit: every position of a random model, with random residues.
func FuzzConditionalEnergies(f *testing.F) {
	if !slices.Contains(xrand.Kernels(), "avx512") {
		f.Skip("this CPU lacks AVX-512 F, DQ or VL (or the OS does not save its registers): only the generic path runs")
	}
	f.Add(uint64(1), uint8(2), uint8(1), uint64(2))
	f.Add(uint64(3), uint8(9), uint8(30), uint64(4))
	f.Add(uint64(5), uint8(40), uint8(200), uint64(6))
	f.Add(uint64(7), uint8(3), uint8(0), uint64(8))
	f.Fuzz(func(t *testing.T, seed uint64, n, edges uint8, seqSeed uint64) {
		m := fuzzModel(seed, 2+int(n%48), int(edges))
		g := xrand.New(seqSeed)
		full := make(protein.Sequence, m.Len())
		for i := range full {
			full[i] = protein.Alphabet[g.Intn(protein.NumAA)]
		}
		defer xrand.UseKernel("avx512")()
		var got, want [protein.NumAA]float64
		for pos := 0; pos < m.Len(); pos++ {
			m.ConditionalEnergies(full, pos, got[:])
			m.conditionalGo(full, pos, &want)
			if !sameBits(got[:], want[:]) {
				t.Fatalf("seed %d, %d positions, %d edges, position %d (degree %d): kernel %v, Go %v", seed, m.Len(), len(m.Edges), pos, len(m.adj[pos]), got, want)
			}
		}
	})
}

// TestConditionalEnergiesRejectsBadResidue: on every kernel path, a
// residue that is not a canonical code at a coupled position panics, as
// the Go loop's index check does.
func TestConditionalEnergiesRejectsBadResidue(t *testing.T) {
	m := fuzzModel(9, 6, 12)
	full := protein.Sequence("ACDEFGH")
	for _, kernel := range xrand.Kernels() {
		restore := xrand.UseKernel(kernel)
		for pos := 0; pos < m.Len()-1; pos++ {
			bad := slices.Clone(full)
			bad[m.adj[pos][0].other] = 'x'
			if !panics(func() { m.ConditionalEnergies(bad, pos, make([]float64, protein.NumAA)) }) {
				t.Errorf("%s: position %d: no panic on a non-canonical residue", kernel, pos)
			}
		}
		restore()
	}
}
