package protein

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Three-letter codes for PDB output, indexed like Alphabet.
var threeLetter = [NumAA]string{
	"ALA", "CYS", "ASP", "GLU", "PHE", "GLY", "HIS", "ILE", "LYS", "LEU",
	"MET", "ASN", "PRO", "GLN", "ARG", "SER", "THR", "VAL", "TRP", "TYR",
}

var oneLetterOf = func() map[string]byte {
	m := make(map[string]byte, NumAA)
	for i, code := range threeLetter {
		m[code] = Alphabet[i]
	}
	return m
}()

// ThreeLetter returns the PDB residue code for a one-letter amino acid.
func ThreeLetter(aa byte) string {
	idx := Index(aa)
	if idx < 0 {
		panic(fmt.Sprintf("protein: invalid residue %q", aa))
	}
	return threeLetter[idx]
}

// WritePDB emits a Cα-trace PDB model of the structure: one ATOM record
// per residue, receptor as chain A and peptide as chain B. bfactors, when
// non-nil, fills the B-factor column — by AlphaFold convention this
// carries per-residue pLDDT; it must cover all residues (receptor then
// peptide). A HEADER, TER per chain, and END are included.
func WritePDB(w io.Writer, st *Structure, bfactors []float64) error {
	if bfactors != nil && len(bfactors) != st.Len() {
		return fmt.Errorf("protein: %d B-factors for %d residues", len(bfactors), st.Len())
	}
	if len(st.RecXYZ) != len(st.Receptor.Seq) {
		return fmt.Errorf("protein: receptor has %d coordinates for %d residues", len(st.RecXYZ), len(st.Receptor.Seq))
	}
	if len(st.PepXYZ) != len(st.Peptide.Seq) {
		return fmt.Errorf("protein: peptide has %d coordinates for %d residues", len(st.PepXYZ), len(st.Peptide.Seq))
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "HEADER    DE NOVO PROTEIN                         %-10s\n", st.Name)
	fmt.Fprintf(bw, "TITLE     IMPRESS DESIGN %s GENERATION %d\n", st.Name, st.Generation)

	serial := 1
	writeChain := func(chainID string, seq Sequence, xyz []Coord, offset int) {
		for i := range seq {
			b := 0.0
			if bfactors != nil {
				b = bfactors[offset+i]
			}
			// Columns per the PDB v3.3 ATOM record layout.
			fmt.Fprintf(bw, "ATOM  %5d  CA  %3s %1s%4d    %8.3f%8.3f%8.3f%6.2f%6.2f           C\n",
				serial, ThreeLetter(seq[i]), chainID, i+1,
				xyz[i].X, xyz[i].Y, xyz[i].Z, 1.0, b)
			serial++
		}
		fmt.Fprintf(bw, "TER   %5d      %3s %1s%4d\n", serial, ThreeLetter(seq[len(seq)-1]), chainID, len(seq))
		serial++
	}
	writeChain("A", st.Receptor.Seq, st.RecXYZ, 0)
	if st.IsComplex() {
		writeChain("B", st.Peptide.Seq, st.PepXYZ, len(st.Receptor.Seq))
	}
	fmt.Fprintln(bw, "END")
	return bw.Flush()
}

// parseFinite parses one fixed-width numeric column. NaN and ±Inf, which
// strconv accepts, are rejected: no structure has them.
func parseFinite(field string) (float64, bool) {
	v, err := strconv.ParseFloat(strings.TrimSpace(field), 64)
	return v, err == nil && !math.IsNaN(v) && !math.IsInf(v, 0)
}

// ParsePDB reads a Cα-trace PDB written by WritePDB (or any PDB whose CA
// records follow the standard columns) back into a Structure. Chain A
// becomes the receptor; chain B, when present, the peptide. B-factors are
// returned in residue order. No command reads PDBs back; TestPDBRoundTrip
// and FuzzParsePDB check WritePDB with it.
func ParsePDB(r io.Reader) (*Structure, []float64, error) {
	sc := bufio.NewScanner(r)
	st := &Structure{Receptor: Chain{ID: "A"}, Peptide: Chain{ID: "B"}}
	var bfactors []float64
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		switch {
		case strings.HasPrefix(text, "HEADER"):
			if len(text) >= 50 {
				st.Name = strings.TrimSpace(text[49:])
			}
		case strings.HasPrefix(text, "ATOM"):
			if len(text) < 66 {
				return nil, nil, fmt.Errorf("protein: line %d: short ATOM record", line)
			}
			atomName := strings.TrimSpace(text[12:16])
			if atomName != "CA" {
				continue
			}
			resName := strings.TrimSpace(text[17:20])
			chain := strings.TrimSpace(text[20:22])
			aa, ok := oneLetterOf[resName]
			if !ok {
				return nil, nil, fmt.Errorf("protein: line %d: unknown residue %q", line, resName)
			}
			x, ok1 := parseFinite(text[30:38])
			y, ok2 := parseFinite(text[38:46])
			z, ok3 := parseFinite(text[46:54])
			b, ok4 := parseFinite(text[60:66])
			if !ok1 || !ok2 || !ok3 || !ok4 {
				return nil, nil, fmt.Errorf("protein: line %d: bad or non-finite coordinates or B-factor", line)
			}
			c := Coord{X: x, Y: y, Z: z}
			switch chain {
			case "A":
				st.Receptor.Seq = append(st.Receptor.Seq, aa)
				st.RecXYZ = append(st.RecXYZ, c)
			case "B":
				st.Peptide.Seq = append(st.Peptide.Seq, aa)
				st.PepXYZ = append(st.PepXYZ, c)
			default:
				return nil, nil, fmt.Errorf("protein: line %d: unexpected chain %q", line, chain)
			}
			bfactors = append(bfactors, b)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	if len(st.Receptor.Seq) == 0 {
		return nil, nil, fmt.Errorf("protein: no CA atoms in chain A")
	}
	if len(st.Peptide.Seq) == 0 {
		st.Peptide = Chain{}
		st.PepXYZ = nil
	}
	return st, bfactors, nil
}
