package protein

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// FuzzParsePDB asserts ParsePDB never panics, and that every structure it
// accepts is usable downstream: finite coordinates and B-factors, one
// B-factor per residue, and a coordinate per residue on each chain. The
// seed corpus (testdata/fuzz/FuzzParsePDB) holds WritePDB output plus the
// non-finite and malformed records the parser once accepted or must
// refuse.
func FuzzParsePDB(f *testing.F) {
	var sb strings.Builder
	if err := WritePDB(&sb, pdbTestStructure(3, 12, 4), nil); err != nil {
		f.Fatal(err)
	}
	f.Add(sb.String())
	f.Fuzz(func(t *testing.T, in string) {
		st, bfactors, err := ParsePDB(strings.NewReader(in))
		if err != nil {
			return
		}
		if len(bfactors) != st.Len() {
			t.Fatalf("%d B-factors for %d residues", len(bfactors), st.Len())
		}
		if len(st.RecXYZ) != len(st.Receptor.Seq) || len(st.PepXYZ) != len(st.Peptide.Seq) {
			t.Fatalf("coordinates do not match residues: %d/%d receptor, %d/%d peptide",
				len(st.RecXYZ), len(st.Receptor.Seq), len(st.PepXYZ), len(st.Peptide.Seq))
		}
		finite := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
		for _, xyz := range [][]Coord{st.RecXYZ, st.PepXYZ} {
			for _, c := range xyz {
				if !finite(c.X) || !finite(c.Y) || !finite(c.Z) {
					t.Fatalf("accepted non-finite coordinate %+v", c)
				}
			}
		}
		for _, b := range bfactors {
			if !finite(b) {
				t.Fatalf("accepted non-finite B-factor %v", b)
			}
		}
	})
}

// FuzzParseSequence asserts ParseSequence never panics, that an accepted
// sequence is non-empty, spells the input back and indexes every residue,
// and that a rejection names the first non-residue byte's position. The
// seed corpus (testdata/fuzz/FuzzParseSequence) holds the full alphabet,
// lowercase, gap, stop, whitespace, non-ASCII and empty inputs.
func FuzzParseSequence(f *testing.F) {
	f.Fuzz(func(t *testing.T, in string) {
		seq, err := ParseSequence(in)
		bad := -1 // byte offset of the first non-residue
		for i := 0; i < len(in); i++ {
			if !strings.Contains(Alphabet, in[i:i+1]) {
				bad = i
				break
			}
		}
		switch {
		case in == "":
			if err == nil {
				t.Fatal("accepted the empty sequence")
			}
		case bad >= 0:
			if err == nil {
				t.Fatalf("accepted %q with an invalid residue at %d", in, bad)
			}
			if want := fmt.Sprintf("at position %d", bad); !strings.Contains(err.Error(), want) {
				t.Fatalf("rejection %q of %q does not name position %d", err, in, bad)
			}
		default:
			if err != nil {
				t.Fatalf("rejected valid %q: %v", in, err)
			}
			if len(seq) == 0 || string(seq) != in {
				t.Fatalf("accepted %q as %q", in, seq)
			}
			for i, aa := range seq {
				if Index(aa) < 0 {
					t.Fatalf("accepted residue %q at %d has no index", aa, i)
				}
			}
		}
	})
}
