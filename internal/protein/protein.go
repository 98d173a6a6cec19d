// Package protein provides the molecular substrate of the IMPRESS
// reproduction: amino-acid alphabets, sequences, chains, receptor–peptide
// complexes, FASTA I/O, and synthetic backbone geometry with contact
// graphs.
//
// The paper designs PDZ-domain binders against the C-terminus of
// α-synuclein. Real PDB coordinates are not available offline, so
// backbones are generated deterministically per target (see Backbone):
// a compact self-avoiding walk with secondary-structure segments whose
// contact graph plays the role the true fold plays for ProteinMPNN and
// AlphaFold — it defines which residue pairs interact.
package protein

import (
	"fmt"
	"math"

	"impress/internal/xrand"
)

// Alphabet is the canonical 20-letter amino-acid alphabet, in the
// conventional alphabetical one-letter-code order.
const Alphabet = "ACDEFGHIKLMNPQRSTVWY"

// NumAA is the alphabet size.
const NumAA = len(Alphabet)

var aaIndex [256]int8

func init() {
	for i := range aaIndex {
		aaIndex[i] = -1
	}
	for i := 0; i < NumAA; i++ {
		aaIndex[Alphabet[i]] = int8(i)
	}
}

// Index returns the 0..19 index of an amino-acid letter, or -1 if the byte
// is not a canonical residue code.
func Index(aa byte) int {
	return int(aaIndex[aa])
}

// Letter returns the one-letter code for an alphabet index.
func Letter(idx int) byte {
	if idx < 0 || idx >= NumAA {
		panic(fmt.Sprintf("protein: alphabet index %d out of range", idx))
	}
	return Alphabet[idx]
}

// Sequence is an amino-acid sequence. Sequences are value-like: mutating
// methods return copies so that trajectories in the design protocol can
// share history safely.
type Sequence []byte

// ParseSequence validates s and returns it as a Sequence.
func ParseSequence(s string) (Sequence, error) {
	seq := Sequence(s)
	if err := seq.Validate(); err != nil {
		return nil, err
	}
	return seq, nil
}

// Validate checks that every residue is a canonical amino-acid code.
func (s Sequence) Validate() error {
	if len(s) == 0 {
		return fmt.Errorf("protein: empty sequence")
	}
	for i, aa := range s {
		if Index(aa) < 0 {
			return fmt.Errorf("protein: invalid residue %q at position %d", aa, i)
		}
	}
	return nil
}

func (s Sequence) String() string { return string(s) }

// Clone returns an independent copy.
func (s Sequence) Clone() Sequence {
	c := make(Sequence, len(s))
	copy(c, s)
	return c
}

// Hash returns a stable 64-bit hash of the sequence, used to derive
// deterministic per-design substreams (e.g. AlphaFold observation noise).
func (s Sequence) Hash() uint64 {
	return xrand.HashBytes(s)
}

// RandomSequence draws a uniform random sequence of length n.
func RandomSequence(rng *xrand.RNG, n int) Sequence {
	s := make(Sequence, n)
	for i := range s {
		s[i] = Alphabet[rng.Intn(NumAA)]
	}
	return s
}

// Chain is a named polypeptide chain within a complex.
type Chain struct {
	// ID is the single-letter chain identifier (PDB convention: receptor
	// "A", peptide "B").
	ID string
	// Seq is the chain's residue sequence.
	Seq Sequence
}

// Coord is a 3D position in Ångström.
type Coord struct {
	X, Y, Z float64
}

// Dist returns the Euclidean distance between two coordinates.
func (c Coord) Dist(o Coord) float64 {
	dx, dy, dz := c.X-o.X, c.Y-o.Y, c.Z-o.Z
	return math.Sqrt(dx*dx + dy*dy + dz*dz)
}

// Contact is a residue-residue spatial contact. Indices address the
// concatenated residue list of a Structure: receptor residues first, then
// peptide residues.
type Contact struct {
	I, J       int
	Interchain bool
}

// Structure is a designed (or starting) three-dimensional model: chains
// plus backbone coordinates. The Generation counter tracks how many design
// cycles refined this backbone; the ProteinMPNN simulator uses it to model
// "refined backbones inform the sequence model better".
type Structure struct {
	Name       string
	Receptor   Chain
	Peptide    Chain // zero-value Chain (empty Seq) in monomer mode
	RecXYZ     []Coord
	PepXYZ     []Coord
	Generation int
}

// Len returns the total residue count (receptor + peptide).
func (st *Structure) Len() int {
	return len(st.Receptor.Seq) + len(st.Peptide.Seq)
}

// IsComplex reports whether the structure carries a peptide chain.
func (st *Structure) IsComplex() bool { return len(st.Peptide.Seq) > 0 }

// FullSequence returns receptor and peptide residues concatenated, in the
// index convention used by Contact.
func (st *Structure) FullSequence() Sequence {
	full := make(Sequence, 0, st.Len())
	full = append(full, st.Receptor.Seq...)
	full = append(full, st.Peptide.Seq...)
	return full
}

// Clone returns a deep copy of the structure.
func (st *Structure) Clone() *Structure {
	c := *st
	c.Receptor.Seq = st.Receptor.Seq.Clone()
	if st.Peptide.Seq != nil {
		c.Peptide.Seq = st.Peptide.Seq.Clone()
	}
	c.RecXYZ = append([]Coord(nil), st.RecXYZ...)
	c.PepXYZ = append([]Coord(nil), st.PepXYZ...)
	return &c
}

// WithReceptorSequence returns a copy carrying a new receptor sequence
// (the output of one design cycle) and an incremented Generation. The
// peptide — the design target — is never modified.
func (st *Structure) WithReceptorSequence(seq Sequence) *Structure {
	if len(seq) != len(st.Receptor.Seq) {
		panic(fmt.Sprintf("protein: receptor length changed %d -> %d", len(st.Receptor.Seq), len(seq)))
	}
	c := st.Clone()
	c.Receptor.Seq = seq.Clone()
	c.Generation = st.Generation + 1
	return c
}

// AllXYZ returns the concatenated coordinate list (receptor then peptide).
func (st *Structure) AllXYZ() []Coord {
	all := make([]Coord, 0, len(st.RecXYZ)+len(st.PepXYZ))
	all = append(all, st.RecXYZ...)
	all = append(all, st.PepXYZ...)
	return all
}

// Contacts returns all residue pairs whose backbone positions lie within
// cutoff Ångström, excluding trivially adjacent pairs (|i-j| < 2 within a
// chain). Pairs spanning the receptor/peptide boundary are flagged
// Interchain; those are the couplings that drive the inter-chain pAE
// metric.
func (st *Structure) Contacts(cutoff float64) []Contact {
	all := st.AllXYZ()
	nRec := len(st.RecXYZ)
	var out []Contact
	for i := 0; i < len(all); i++ {
		for j := i + 2; j < len(all); j++ {
			inter := i < nRec && j >= nRec
			if !inter && j-i < 2 {
				continue
			}
			if all[i].Dist(all[j]) <= cutoff {
				out = append(out, Contact{I: i, J: j, Interchain: inter})
			}
		}
	}
	return out
}
