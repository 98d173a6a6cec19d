package protein

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"impress/internal/xrand"
)

func pdbTestStructure(seed uint64, recLen, pepLen int) *Structure {
	cfg := DefaultBackboneConfig(recLen, pepLen)
	rec, pep := Backbone(seed, cfg)
	rng := xrand.New(xrand.Derive(seed, "pdbseq"))
	st := &Structure{
		Name:       "PDZTEST",
		Receptor:   Chain{ID: "A", Seq: RandomSequence(rng, recLen)},
		RecXYZ:     rec,
		PepXYZ:     pep,
		Generation: 2,
	}
	if pepLen > 0 {
		st.Peptide = Chain{ID: "B", Seq: RandomSequence(rng, pepLen)}
	}
	return st
}

func TestThreeLetterRoundTrip(t *testing.T) {
	for i := 0; i < NumAA; i++ {
		aa := Alphabet[i]
		code := ThreeLetter(aa)
		if len(code) != 3 {
			t.Fatalf("ThreeLetter(%c) = %q", aa, code)
		}
		if oneLetterOf[code] != aa {
			t.Fatalf("round trip failed for %c", aa)
		}
	}
}

func TestThreeLetterPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	ThreeLetter('X')
}

func TestPDBRoundTrip(t *testing.T) {
	st := pdbTestStructure(1, 40, 6)
	bf := make([]float64, st.Len())
	for i := range bf {
		bf[i] = 50 + float64(i)
	}
	var sb strings.Builder
	if err := WritePDB(&sb, st, bf); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"HEADER", "TITLE", "ATOM", "TER", "END", "PDZTEST", "GENERATION 2"} {
		if !strings.Contains(out, want) {
			t.Fatalf("PDB missing %q", want)
		}
	}
	parsed, gotBF, err := ParsePDB(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if !parsed.Receptor.Seq.Equal(st.Receptor.Seq) {
		t.Fatal("receptor sequence lost")
	}
	if !parsed.Peptide.Seq.Equal(st.Peptide.Seq) {
		t.Fatal("peptide sequence lost")
	}
	if parsed.Name != "PDZTEST" {
		t.Fatalf("name = %q", parsed.Name)
	}
	if len(gotBF) != len(bf) {
		t.Fatalf("got %d B-factors", len(gotBF))
	}
	for i := range bf {
		if math.Abs(gotBF[i]-bf[i]) > 0.01 {
			t.Fatalf("B-factor %d: %v vs %v", i, gotBF[i], bf[i])
		}
	}
	// Coordinates survive to 3 decimals.
	for i := range st.RecXYZ {
		if math.Abs(parsed.RecXYZ[i].X-st.RecXYZ[i].X) > 0.001 ||
			math.Abs(parsed.RecXYZ[i].Y-st.RecXYZ[i].Y) > 0.001 ||
			math.Abs(parsed.RecXYZ[i].Z-st.RecXYZ[i].Z) > 0.001 {
			t.Fatalf("coordinate %d drifted", i)
		}
	}
}

func TestPDBMonomer(t *testing.T) {
	st := pdbTestStructure(2, 30, 0)
	var sb strings.Builder
	if err := WritePDB(&sb, st, nil); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), " B ") {
		t.Fatal("monomer PDB has chain B atoms")
	}
	parsed, _, err := ParsePDB(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if parsed.IsComplex() {
		t.Fatal("monomer parsed as complex")
	}
	if len(parsed.Receptor.Seq) != 30 {
		t.Fatalf("parsed %d residues", len(parsed.Receptor.Seq))
	}
}

func TestPDBColumnLayout(t *testing.T) {
	// ATOM records must be fixed-width (80-col PDB convention): check
	// the residue name, chain and coordinate columns of the first atom.
	st := pdbTestStructure(3, 5, 0)
	var sb strings.Builder
	if err := WritePDB(&sb, st, nil); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(sb.String(), "\n") {
		if !strings.HasPrefix(line, "ATOM") {
			continue
		}
		if len(line) < 66 {
			t.Fatalf("short ATOM record: %q", line)
		}
		if strings.TrimSpace(line[12:16]) != "CA" {
			t.Fatalf("atom name columns wrong: %q", line)
		}
		if got := strings.TrimSpace(line[20:22]); got != "A" {
			t.Fatalf("chain column wrong: %q in %q", got, line)
		}
		break
	}
}

func TestWritePDBValidation(t *testing.T) {
	st := pdbTestStructure(4, 10, 4)
	var sb strings.Builder
	if err := WritePDB(&sb, st, []float64{1, 2}); err == nil {
		t.Fatal("short B-factor slice accepted")
	}
	bad := st.Clone()
	bad.RecXYZ = bad.RecXYZ[:5]
	if err := WritePDB(&sb, bad, nil); err == nil {
		t.Fatal("mismatched coordinates accepted")
	}
}

func TestParsePDBErrors(t *testing.T) {
	if _, _, err := ParsePDB(strings.NewReader("ATOM  short\n")); err == nil {
		t.Fatal("short record accepted")
	}
	if _, _, err := ParsePDB(strings.NewReader("END\n")); err == nil {
		t.Fatal("empty model accepted")
	}
	bad := "ATOM      1  CA  XXX A   1       0.000   0.000   0.000  1.00  0.00           C\n"
	if _, _, err := ParsePDB(strings.NewReader(bad)); err == nil {
		t.Fatal("unknown residue accepted")
	}
}

// TestParsePDBRejectsNonFinite: strconv.ParseFloat accepts "NaN" and
// "Inf", so a coordinate or B-factor column holding one must be refused
// explicitly, with the offending line number.
func TestParsePDBRejectsNonFinite(t *testing.T) {
	atom := func(x, y, z, b string) string {
		return fmt.Sprintf("ATOM      1  CA  ALA A   1    %8s%8s%8s  1.00%6s           C\n", x, y, z, b)
	}
	if _, _, err := ParsePDB(strings.NewReader(atom("1.000", "2.000", "3.000", "90.00"))); err != nil {
		t.Fatalf("finite record rejected: %v", err)
	}
	for _, rec := range []string{
		atom("NaN", "0.000", "+Inf", "NaN"),
		atom("NaN", "0.000", "0.000", "0.00"),
		atom("0.000", "-Inf", "0.000", "0.00"),
		atom("0.000", "0.000", "+Inf", "0.00"),
		atom("0.000", "0.000", "0.000", "NaN"),
		atom("0.000", "0.000", "0.000", "Inf"),
	} {
		_, _, err := ParsePDB(strings.NewReader("HEADER\n" + rec))
		if err == nil || !strings.Contains(err.Error(), "line 2") {
			t.Errorf("non-finite record %q: err = %v, want a line 2 error", rec, err)
		}
	}
}
