package workload

import (
	"bytes"
	"testing"

	"impress/internal/stats"
)

func TestNamedTargets(t *testing.T) {
	targets, err := NamedTargets(1, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(targets) != 4 {
		t.Fatalf("got %d targets", len(targets))
	}
	names := map[string]bool{}
	for _, tg := range targets {
		names[tg.Name] = true
		if !tg.Structure.IsComplex() {
			t.Fatalf("%s is not a complex", tg.Name)
		}
		if got := tg.Structure.Peptide.Seq.String(); got != AlphaSynucleinTail10 {
			t.Fatalf("%s peptide = %q", tg.Name, got)
		}
		if tg.Structure.Generation != 0 {
			t.Fatalf("%s starts at generation %d", tg.Name, tg.Structure.Generation)
		}
		if err := tg.Structure.Receptor.Seq.Validate(); err != nil {
			t.Fatalf("%s native sequence invalid: %v", tg.Name, err)
		}
		if tg.Truth.Len() != tg.Structure.Len() {
			t.Fatalf("%s landscape length mismatch", tg.Name)
		}
	}
	for _, want := range []string{"NHERF3", "HTRA1", "SCRIB", "SHANK1"} {
		if !names[want] {
			t.Fatalf("missing target %s", want)
		}
	}
}

func TestTargetsDeterministic(t *testing.T) {
	a, _ := NamedTargets(7, DefaultConfig())
	b, _ := NamedTargets(7, DefaultConfig())
	for i := range a {
		if !bytes.Equal(a[i].Structure.Receptor.Seq, b[i].Structure.Receptor.Seq) {
			t.Fatal("native sequences not deterministic")
		}
		fa := a[i].Structure.FullSequence()
		ea, _ := a[i].Truth.Energies(fa)
		eb, _ := b[i].Truth.Energies(fa)
		if ea != eb {
			t.Fatal("landscapes not deterministic")
		}
	}
	c, _ := NamedTargets(8, DefaultConfig())
	if bytes.Equal(a[0].Structure.Receptor.Seq, c[0].Structure.Receptor.Seq) {
		t.Fatal("different seeds give identical targets")
	}
}

func TestNativeQualityInStartingRegime(t *testing.T) {
	// Native designs must be decent but leave headroom: the paper's
	// starting medians are pLDDT ≈ 70, pTM ≈ 0.4–0.5 and improve by
	// +5..8 pLDDT over four cycles.
	targets, _ := NamedTargets(3, DefaultConfig())
	var plddts, ptms []float64
	for _, tg := range targets {
		m := tg.StartingMetrics()
		plddts = append(plddts, m.PLDDT)
		ptms = append(ptms, m.PTM)
	}
	if med := stats.Median(plddts); med < 60 || med > 82 {
		t.Fatalf("starting pLDDT median = %v, want 60..82", med)
	}
	if med := stats.Median(ptms); med < 0.3 || med > 0.65 {
		t.Fatalf("starting pTM median = %v, want 0.3..0.65", med)
	}
}

func TestMinedScreen(t *testing.T) {
	screen, err := MinedScreen(5, 70, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(screen) != 70 {
		t.Fatalf("screen size %d", len(screen))
	}
	seenNames := map[string]bool{}
	lens := map[int]bool{}
	for _, tg := range screen {
		if seenNames[tg.Name] {
			t.Fatalf("duplicate target name %s", tg.Name)
		}
		seenNames[tg.Name] = true
		if got := tg.Structure.Peptide.Seq.String(); got != AlphaSynucleinTail4 {
			t.Fatalf("%s peptide = %q, want %q", tg.Name, got, AlphaSynucleinTail4)
		}
		l := len(tg.Structure.Receptor.Seq)
		if l < 82 || l > 105 {
			t.Fatalf("%s receptor length %d outside PDZ range", tg.Name, l)
		}
		lens[l] = true
	}
	if len(lens) < 5 {
		t.Fatal("screen receptor lengths not varied")
	}
}

func TestMinedScreenErrors(t *testing.T) {
	if _, err := MinedScreen(1, 0, DefaultConfig()); err == nil {
		t.Fatal("zero-size screen accepted")
	}
}

func TestNewTargetErrors(t *testing.T) {
	if _, err := NewTarget(1, "X", 0, "EPEA", DefaultConfig()); err == nil {
		t.Fatal("zero-length receptor accepted")
	}
	if _, err := NewTarget(1, "X", 50, "EPE4", DefaultConfig()); err == nil {
		t.Fatal("invalid peptide accepted")
	}
}

func TestProteaseTarget(t *testing.T) {
	tg, triad, err := ProteaseTarget(1, "PROT1", 120, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if tg.Structure.IsComplex() {
		t.Fatal("protease target has a peptide chain")
	}
	if len(triad) != 3 {
		t.Fatalf("triad = %v", triad)
	}
	for _, p := range triad {
		if p < 0 || p >= 120 {
			t.Fatalf("triad position %d out of range", p)
		}
	}
	if triad[0] >= triad[1] || triad[1] >= triad[2] {
		t.Fatalf("triad not separated: %v", triad)
	}
}

func TestPeptideConstants(t *testing.T) {
	// α-synuclein's last four residues are the last four of the 10-mer.
	if AlphaSynucleinTail10[len(AlphaSynucleinTail10)-4:] != AlphaSynucleinTail4 {
		t.Fatal("peptide constants inconsistent")
	}
}
