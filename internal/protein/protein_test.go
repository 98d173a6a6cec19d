package protein

import (
	"strings"
	"testing"
	"testing/quick"

	"impress/internal/xrand"
)

func TestAlphabetRoundTrip(t *testing.T) {
	if NumAA != 20 {
		t.Fatalf("NumAA = %d", NumAA)
	}
	for i := 0; i < NumAA; i++ {
		if Index(Letter(i)) != i {
			t.Fatalf("round trip failed for index %d", i)
		}
	}
	for _, bad := range []byte{'B', 'J', 'O', 'U', 'X', 'Z', 'a', '*', ' '} {
		if Index(bad) != -1 {
			t.Errorf("Index(%q) = %d, want -1", bad, Index(bad))
		}
	}
}

func TestLetterPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Letter(20) did not panic")
		}
	}()
	Letter(20)
}

func TestParseSequence(t *testing.T) {
	s, err := ParseSequence("ACDEFGHIKLMNPQRSTVWY")
	if err != nil {
		t.Fatal(err)
	}
	if s.String() != Alphabet {
		t.Fatalf("String = %q", s.String())
	}
	if _, err := ParseSequence("ACDX"); err == nil {
		t.Fatal("invalid residue accepted")
	}
	if _, err := ParseSequence(""); err == nil {
		t.Fatal("empty sequence accepted")
	}
}

func TestSequenceCloneIndependence(t *testing.T) {
	s := Sequence("ACDEF")
	c := s.Clone()
	c[0] = 'W'
	if s[0] != 'A' {
		t.Fatal("Clone shares storage")
	}
}

func TestHashDistinguishesSequences(t *testing.T) {
	a := Sequence("ACDEFGHIKL")
	b := Sequence("ACDEFGHIKM")
	if a.Hash() == b.Hash() {
		t.Fatal("hash collision on single mutation (suspicious)")
	}
	if a.Hash() != a.Clone().Hash() {
		t.Fatal("hash not stable under clone")
	}
}

func TestRandomSequenceValid(t *testing.T) {
	rng := xrand.New(5)
	s := RandomSequence(rng, 200)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(s) != 200 {
		t.Fatalf("len = %d", len(s))
	}
}

func TestEqual(t *testing.T) {
	a := Sequence("ACD")
	if !a.Equal(Sequence("ACD")) {
		t.Fatal("Equal false negative")
	}
	if a.Equal(Sequence("ACDE")) || a.Equal(Sequence("ACW")) {
		t.Fatal("Equal false positive")
	}
}

func newTestStructure(t *testing.T, seed uint64, recLen, pepLen int) *Structure {
	t.Helper()
	cfg := DefaultBackboneConfig(recLen, pepLen)
	rec, pep := Backbone(seed, cfg)
	rng := xrand.New(xrand.Derive(seed, "seq"))
	st := &Structure{
		Name:     "TEST",
		Receptor: Chain{ID: "A", Seq: RandomSequence(rng, recLen)},
		RecXYZ:   rec,
		PepXYZ:   pep,
	}
	if pepLen > 0 {
		st.Peptide = Chain{ID: "B", Seq: RandomSequence(rng, pepLen)}
	}
	return st
}

func TestBackboneDeterminism(t *testing.T) {
	cfg := DefaultBackboneConfig(90, 10)
	r1, p1 := Backbone(42, cfg)
	r2, p2 := Backbone(42, cfg)
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatal("receptor backbone not deterministic")
		}
	}
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatal("peptide backbone not deterministic")
		}
	}
	r3, _ := Backbone(43, cfg)
	same := 0
	for i := range r1 {
		if r1[i] == r3[i] {
			same++
		}
	}
	if same > 1 {
		t.Fatalf("different seeds give %d identical coordinates", same)
	}
}

func TestBackboneStepLength(t *testing.T) {
	cfg := DefaultBackboneConfig(80, 0)
	rec, _ := Backbone(7, cfg)
	for i := 1; i < len(rec); i++ {
		d := rec[i].Dist(rec[i-1])
		if d < cfg.StepLen-0.01 || d > cfg.StepLen+0.01 {
			t.Fatalf("step %d has length %v, want ~%v", i, d, cfg.StepLen)
		}
	}
}

func TestBackboneIsCompact(t *testing.T) {
	cfg := DefaultBackboneConfig(90, 0)
	rec, _ := Backbone(11, cfg)
	// Radius of gyration must be far below the extended-chain length.
	var cen Coord
	for _, c := range rec {
		cen.X += c.X
		cen.Y += c.Y
		cen.Z += c.Z
	}
	n := float64(len(rec))
	cen = Coord{cen.X / n, cen.Y / n, cen.Z / n}
	var rg float64
	for _, c := range rec {
		d := c.Dist(cen)
		rg += d * d
	}
	rg = rg / n
	extended := cfg.StepLen * float64(len(rec))
	if rg > extended*extended/16 {
		t.Fatalf("fold not compact: Rg^2 = %v vs extended %v", rg, extended)
	}
}

func TestContactsProperties(t *testing.T) {
	st := newTestStructure(t, 99, 90, 10)
	contacts := st.Contacts(8.0)
	if len(contacts) == 0 {
		t.Fatal("no contacts in compact fold")
	}
	nRec := len(st.RecXYZ)
	all := st.AllXYZ()
	inter := 0
	for _, c := range contacts {
		if c.I >= c.J {
			t.Fatalf("contact not ordered: %+v", c)
		}
		if all[c.I].Dist(all[c.J]) > 8.0 {
			t.Fatalf("contact beyond cutoff: %+v", c)
		}
		wantInter := c.I < nRec && c.J >= nRec
		if c.Interchain != wantInter {
			t.Fatalf("interchain flag wrong: %+v", c)
		}
		if !c.Interchain && c.J-c.I < 2 {
			t.Fatalf("trivially adjacent intra-chain contact: %+v", c)
		}
		if c.Interchain {
			inter++
		}
	}
	if inter == 0 {
		t.Fatal("peptide placed with no interchain contacts; groove placement broken")
	}
}

func TestPeptidePlacementTouchesGroove(t *testing.T) {
	// The majority of interchain contacts should involve groove residues.
	cfg := DefaultBackboneConfig(90, 10)
	st := newTestStructure(t, 123, 90, 10)
	contacts := st.Contacts(9.0)
	grooveHits, interTotal := 0, 0
	for _, c := range contacts {
		if !c.Interchain {
			continue
		}
		interTotal++
		if c.I >= cfg.GrooveStart && c.I < cfg.GrooveEnd {
			grooveHits++
		}
	}
	if interTotal == 0 {
		t.Fatal("no interchain contacts")
	}
	if float64(grooveHits)/float64(interTotal) < 0.4 {
		t.Fatalf("only %d/%d interchain contacts touch the groove", grooveHits, interTotal)
	}
}

func TestStructureCloneAndMutateIndependence(t *testing.T) {
	st := newTestStructure(t, 1, 50, 6)
	c := st.Clone()
	c.Receptor.Seq[0] = 'W'
	c.RecXYZ[0].X += 100
	if st.Receptor.Seq[0] == 'W' || st.RecXYZ[0].X == c.RecXYZ[0].X {
		t.Fatal("Clone shares storage with original")
	}
}

func TestWithReceptorSequence(t *testing.T) {
	st := newTestStructure(t, 2, 40, 5)
	newSeq := RandomSequence(xrand.New(77), 40)
	st2 := st.WithReceptorSequence(newSeq)
	if st2.Generation != st.Generation+1 {
		t.Fatalf("Generation = %d", st2.Generation)
	}
	if !st2.Receptor.Seq.Equal(newSeq) {
		t.Fatal("sequence not applied")
	}
	if !st2.Peptide.Seq.Equal(st.Peptide.Seq) {
		t.Fatal("peptide changed")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("length change did not panic")
			}
		}()
		st.WithReceptorSequence(Sequence("ACD"))
	}()
}

func TestMonomer(t *testing.T) {
	st := newTestStructure(t, 3, 40, 5)
	m := st.Monomer()
	if m.IsComplex() {
		t.Fatal("Monomer still a complex")
	}
	if m.Len() != 40 {
		t.Fatalf("monomer Len = %d", m.Len())
	}
	for _, c := range m.Contacts(8.0) {
		if c.Interchain {
			t.Fatal("monomer has interchain contact")
		}
	}
	if !st.IsComplex() {
		t.Fatal("Monomer modified original")
	}
}

func TestFullSequence(t *testing.T) {
	st := newTestStructure(t, 4, 30, 4)
	full := st.FullSequence()
	if len(full) != 34 {
		t.Fatalf("FullSequence len = %d", len(full))
	}
	if !full[:30].Equal(st.Receptor.Seq) || !full[30:].Equal(st.Peptide.Seq) {
		t.Fatal("FullSequence order wrong")
	}
}

func TestFastaRoundTripProperty(t *testing.T) {
	check := func(seed uint64, nRaw, lenRaw uint8) bool {
		rng := xrand.New(seed)
		n := int(nRaw%5) + 1
		records := make([]FastaRecord, n)
		for i := range records {
			l := int(lenRaw%150) + 1
			records[i] = FastaRecord{
				Header: "design_" + string(rune('a'+i)),
				Seq:    RandomSequence(rng, l).String(),
			}
		}
		var sb strings.Builder
		if err := WriteFasta(&sb, records); err != nil {
			return false
		}
		parsed := readFasta(sb.String())
		if len(parsed) != n {
			return false
		}
		for i := range records {
			if parsed[i].Header != records[i].Header || parsed[i].Seq != records[i].Seq {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFastaWrapsLongLines(t *testing.T) {
	rec := []FastaRecord{{Header: "x", Seq: strings.Repeat("A", 150)}}
	out := FastaString(rec)
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if len(line) > 60 && !strings.HasPrefix(line, ">") {
			t.Fatalf("unwrapped line of length %d", len(line))
		}
	}
}

func TestWriteFastaErrors(t *testing.T) {
	var sb strings.Builder
	if err := WriteFasta(&sb, []FastaRecord{{Header: "a\nb", Seq: "ACD"}}); err == nil {
		t.Fatal("newline header accepted")
	}
	if err := WriteFasta(&sb, []FastaRecord{{Header: "a", Seq: ""}}); err == nil {
		t.Fatal("empty sequence accepted")
	}
}

func BenchmarkBackbone90(b *testing.B) {
	cfg := DefaultBackboneConfig(90, 10)
	for i := 0; i < b.N; i++ {
		Backbone(uint64(i), cfg)
	}
}

func BenchmarkContacts(b *testing.B) {
	cfg := DefaultBackboneConfig(90, 10)
	rec, pep := Backbone(1, cfg)
	st := &Structure{
		Receptor: Chain{ID: "A", Seq: RandomSequence(xrand.New(1), 90)},
		Peptide:  Chain{ID: "B", Seq: RandomSequence(xrand.New(2), 10)},
		RecXYZ:   rec, PepXYZ: pep,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = st.Contacts(8.0)
	}
}

// Equal reports residue-wise equality.
func (s Sequence) Equal(o Sequence) bool {
	if len(s) != len(o) {
		return false
	}
	for i := range s {
		if s[i] != o[i] {
			return false
		}
	}
	return true
}

// Monomer returns a copy with the peptide removed, for the paper's
// future-work protease mode where designs are predicted in monomeric form.
func (st *Structure) Monomer() *Structure {
	c := st.Clone()
	c.Peptide = Chain{}
	c.PepXYZ = nil
	return c
}

// readFasta reads WriteFasta's output back: one record per '>' line,
// with its wrapped sequence lines joined.
func readFasta(text string) []FastaRecord {
	var recs []FastaRecord
	for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		if h, ok := strings.CutPrefix(line, ">"); ok {
			recs = append(recs, FastaRecord{Header: h})
		} else if len(recs) > 0 {
			recs[len(recs)-1].Seq += line
		}
	}
	return recs
}
