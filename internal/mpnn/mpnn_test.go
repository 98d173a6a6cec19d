package mpnn

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"impress/internal/landscape"
	"impress/internal/protein"
	"impress/internal/stats"
	"impress/internal/xrand"
)

func testTarget(seed uint64) (*protein.Structure, *landscape.Model) {
	return sizedTarget("PDZ-TEST", seed, 60, 8)
}

func sizedTarget(name string, seed uint64, recLen, pepLen int) (*protein.Structure, *landscape.Model) {
	cfg := protein.DefaultBackboneConfig(recLen, pepLen)
	rec, pep := protein.Backbone(seed, cfg)
	rng := xrand.New(xrand.Derive(seed, "seq"))
	st := &protein.Structure{
		Name:     name,
		Receptor: protein.Chain{ID: "A", Seq: protein.RandomSequence(rng, recLen)},
		Peptide:  protein.Chain{ID: "B", Seq: protein.RandomSequence(rng, pepLen)},
		RecXYZ:   rec,
		PepXYZ:   pep,
	}
	model := landscape.New(st, seed, landscape.DefaultConfig())
	return st, model
}

func newSampler(t *testing.T, model *landscape.Model, cfg Config) *Sampler {
	t.Helper()
	s, err := New(model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestDesignBasics(t *testing.T) {
	st, model := testTarget(1)
	s := newSampler(t, model, DefaultConfig())
	designs := s.Design(st, 42)
	if len(designs) != 10 {
		t.Fatalf("got %d designs, want 10", len(designs))
	}
	for i, d := range designs {
		if d.Index != i {
			t.Errorf("design %d has index %d", i, d.Index)
		}
		if err := d.Full.Validate(); err != nil {
			t.Fatalf("invalid design sequence: %v", err)
		}
		if len(d.Receptor) != 60 || len(d.Full) != 68 {
			t.Fatalf("design lengths wrong: rec %d full %d", len(d.Receptor), len(d.Full))
		}
		// Peptide must be the target peptide, untouched.
		if !d.Full[60:].Equal(st.Peptide.Seq) {
			t.Fatal("design modified the peptide")
		}
		if !d.Full[:60].Equal(d.Receptor) {
			t.Fatal("Receptor field inconsistent with Full")
		}
	}
}

func TestDesignDeterministicAcrossParallelism(t *testing.T) {
	st, model := testTarget(2)
	serial := DefaultConfig()
	serial.Parallelism = 1
	parallel := DefaultConfig()
	parallel.Parallelism = 8
	a := newSampler(t, model, serial).Design(st, 7)
	b := newSampler(t, model, parallel).Design(st, 7)
	for i := range a {
		if !a[i].Full.Equal(b[i].Full) || a[i].LogLikelihood != b[i].LogLikelihood {
			t.Fatalf("design %d differs between serial and parallel sampling", i)
		}
	}
	// Different stage seeds must differ.
	c := newSampler(t, model, serial).Design(st, 8)
	same := 0
	for i := range a {
		if a[i].Full.Equal(c[i].Full) {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced identical design sets")
	}
}

// TestConcurrentDesignAcrossTargets: Design calls on differently sized
// targets running at once share the landscape package's surrogate free
// list, so each call may be handed a buffer another target just used.
// The designs must equal those of the same calls run one after another
// (run it under -race).
func TestConcurrentDesignAcrossTargets(t *testing.T) {
	type target struct {
		st *protein.Structure
		s  *Sampler
	}
	var targets []target
	for i, shape := range [][2]int{{60, 8}, {90, 10}, {40, 6}, {75, 0}} {
		st, model := sizedTarget(fmt.Sprintf("T%d", i), uint64(30+i), shape[0], shape[1])
		cfg := DefaultConfig()
		cfg.Parallelism = 2
		targets = append(targets, target{st, newSampler(t, model, cfg)})
	}
	const rounds = 3
	design := func(tg target, r int) []Design { return tg.s.Design(tg.st, uint64(100+r)) }
	want := make([][][]Design, len(targets))
	for i, tg := range targets {
		for r := 0; r < rounds; r++ {
			want[i] = append(want[i], design(tg, r))
		}
	}
	got := make([][][]Design, len(targets))
	var wg sync.WaitGroup
	for i, tg := range targets {
		got[i] = make([][]Design, rounds)
		for r := 0; r < rounds; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i][r] = design(tg, r)
			}()
		}
	}
	wg.Wait()
	for i := range targets {
		for r := 0; r < rounds; r++ {
			for k, d := range got[i][r] {
				w := want[i][r][k]
				if !d.Full.Equal(w.Full) || math.Float64bits(d.LogLikelihood) != math.Float64bits(w.LogLikelihood) || d.Index != w.Index {
					t.Fatalf("target %d round %d design %d: concurrent %+v, sequential %+v", i, r, k, d, w)
				}
			}
		}
	}
}

func TestDesignsBeatRandomSequences(t *testing.T) {
	st, model := testTarget(3)
	s := newSampler(t, model, DefaultConfig())
	designs := s.Design(st, 1)
	var designZ []float64
	for _, d := range designs {
		z, _ := model.ZScores(model.Energies(d.Full))
		designZ = append(designZ, z)
	}
	// MPNN proposals must be clearly better than random (z=0) on average.
	if m := stats.Mean(designZ); m < 0.5 {
		t.Fatalf("mean design z = %v, want > 0.5", m)
	}
}

func TestFixedPositionsRespected(t *testing.T) {
	st, model := testTarget(4)
	cfg := DefaultConfig()
	cfg.FixedPositions = []int{3, 17, 41} // catalytic residues
	s := newSampler(t, model, cfg)
	for _, d := range s.Design(st, 5) {
		for _, p := range cfg.FixedPositions {
			if d.Full[p] != st.Receptor.Seq[p] {
				t.Fatalf("fixed position %d changed", p)
			}
		}
	}
}

func TestCorruptionDecayWithGeneration(t *testing.T) {
	_, model := testTarget(5)
	s := newSampler(t, model, DefaultConfig())
	prev := s.CorruptionFor(0)
	if prev != s.Config().CorruptionBase {
		t.Fatalf("gen-0 corruption = %v", prev)
	}
	for g := 1; g <= 5; g++ {
		cur := s.CorruptionFor(g)
		if cur >= prev {
			t.Fatalf("corruption not decaying at gen %d: %v >= %v", g, cur, prev)
		}
		prev = cur
	}
}

func TestLaterGenerationsProposeBetterDesigns(t *testing.T) {
	st, model := testTarget(6)
	s := newSampler(t, model, DefaultConfig())
	meanZAt := func(gen int) float64 {
		stGen := st.Clone()
		stGen.Generation = gen
		var zs []float64
		for trial := uint64(0); trial < 6; trial++ {
			for _, d := range s.Design(stGen, trial) {
				z, _ := model.ZScores(model.Energies(d.Full))
				zs = append(zs, z)
			}
		}
		return stats.Mean(zs)
	}
	early, late := meanZAt(0), meanZAt(6)
	if late <= early {
		t.Fatalf("refined backbone (gen 6) designs not better: %v vs %v", late, early)
	}
}

func TestLogLikelihoodImperfectlyTracksTruth(t *testing.T) {
	// The whole point of Stage 6: MPNN ranking correlates with true
	// quality but not perfectly.
	st, model := testTarget(7)
	s := newSampler(t, model, DefaultConfig())
	var lls, zs []float64
	for trial := uint64(0); trial < 8; trial++ {
		for _, d := range s.Design(st, trial) {
			lls = append(lls, d.LogLikelihood)
			z, _ := model.ZScores(model.Energies(d.Full))
			zs = append(zs, z)
		}
	}
	rho := stats.Spearman(lls, zs)
	if rho < 0.05 {
		t.Fatalf("loglik carries no signal: Spearman = %v", rho)
	}
	if rho > 0.9 {
		t.Fatalf("loglik suspiciously perfect (corruption ineffective): Spearman = %v", rho)
	}
}

func TestConfigValidation(t *testing.T) {
	_, model := testTarget(8)
	bad := []Config{
		{NumSequences: 0, Temperature: 1, Sweeps: 1, CorruptionDecay: 1},
		{NumSequences: 1, Temperature: 0, Sweeps: 1, CorruptionDecay: 1},
		{NumSequences: 1, Temperature: 1, Sweeps: 0, CorruptionDecay: 1},
		{NumSequences: 1, Temperature: 1, Sweeps: 1, CorruptionDecay: 0},
		{NumSequences: 1, Temperature: 1, Sweeps: 1, CorruptionDecay: 1.5},
		{NumSequences: 1, Temperature: 1, Sweeps: 1, CorruptionDecay: 1, CorruptionBase: -1},
	}
	for i, cfg := range bad {
		if _, err := New(model, cfg); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, cfg)
		}
	}
	if _, err := New(nil, DefaultConfig()); err == nil {
		t.Error("nil landscape accepted")
	}
	cfg := DefaultConfig()
	cfg.FixedPositions = []int{999}
	if _, err := New(model, cfg); err == nil {
		t.Error("out-of-range fixed position accepted")
	}
}

func TestLengthMismatchPanics(t *testing.T) {
	_, model := testTarget(9)
	other, _ := testTarget(10)
	short := other.Clone()
	short.Receptor.Seq = short.Receptor.Seq[:30]
	short.RecXYZ = short.RecXYZ[:30]
	s := newSampler(t, model, DefaultConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on length mismatch")
		}
	}()
	s.Design(short, 1)
}

func BenchmarkDesign10(b *testing.B) {
	st, model := testTarget(1)
	s, _ := New(model, DefaultConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Design(st, uint64(i))
	}
}
