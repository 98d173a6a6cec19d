package fold

import (
	"math"
	"testing"

	"impress/internal/landscape"
	"impress/internal/protein"
	"impress/internal/stats"
	"impress/internal/xrand"
)

func testTarget(seed uint64) (*protein.Structure, *landscape.Model) {
	cfg := protein.DefaultBackboneConfig(60, 8)
	rec, pep := protein.Backbone(seed, cfg)
	rng := xrand.New(xrand.Derive(seed, "seq"))
	st := &protein.Structure{
		Name:     "PDZ-TEST",
		Receptor: protein.Chain{ID: "A", Seq: protein.RandomSequence(rng, 60)},
		Peptide:  protein.Chain{ID: "B", Seq: protein.RandomSequence(rng, 8)},
		RecXYZ:   rec,
		PepXYZ:   pep,
	}
	return st, landscape.New(st, seed, landscape.DefaultConfig())
}

func newPredictor(t *testing.T, m *landscape.Model, cfg Config, seed uint64) *Predictor {
	t.Helper()
	p, err := New(m, cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPredictBasics(t *testing.T) {
	st, model := testTarget(1)
	p := newPredictor(t, model, DefaultConfig(), 1)
	pred := p.Predict(st.FullSequence(), st.IsComplex())
	if len(pred.Models) != 5 {
		t.Fatalf("got %d models, want 5", len(pred.Models))
	}
	for i, m := range pred.Models {
		if m.Rank != i {
			t.Errorf("model %d has rank %d", i, m.Rank)
		}
		if i > 0 && m.Metrics.PTM > pred.Models[i-1].Metrics.PTM {
			t.Fatal("models not sorted by pTM descending")
		}
		if m.Metrics.PLDDT < 0 || m.Metrics.PLDDT > 100 || m.Metrics.PTM < 0 || m.Metrics.PTM > 1 {
			t.Fatalf("metrics out of range: %+v", m.Metrics)
		}
		if len(m.PerResiduePLDDT) != st.Len() {
			t.Fatalf("per-residue pLDDT length %d", len(m.PerResiduePLDDT))
		}
	}
	if pred.Best().Rank != 0 {
		t.Fatal("Best() is not rank 0")
	}
}

func TestPredictionDeterministicPerSequence(t *testing.T) {
	st, model := testTarget(2)
	p := newPredictor(t, model, DefaultConfig(), 7)
	a := p.Predict(st.FullSequence(), st.IsComplex())
	b := p.Predict(st.FullSequence(), st.IsComplex())
	if a.Best().Metrics != b.Best().Metrics {
		t.Fatal("prediction not deterministic for same sequence")
	}
	// A different sequence must give a different noise stream.
	st2 := st.WithReceptorSequence(protein.RandomSequence(xrand.New(5), 60))
	c := p.Predict(st2.FullSequence(), st2.IsComplex())
	if a.Best().Metrics == c.Best().Metrics {
		t.Fatal("different sequences gave identical predictions")
	}
}

func TestObservationNoiseBounded(t *testing.T) {
	st, model := testTarget(3)
	p := newPredictor(t, model, DefaultConfig(), 3)
	truth := model.TrueMetrics(st.FullSequence())
	pred := p.Predict(st.FullSequence(), st.IsComplex())
	// Median-of-models metrics should sit near the truth.
	var plddts []float64
	for _, m := range pred.Models {
		plddts = append(plddts, m.Metrics.PLDDT)
	}
	if d := math.Abs(stats.Median(plddts) - truth.PLDDT); d > 8 {
		t.Fatalf("prediction far from truth: Δ pLDDT = %v", d)
	}
}

func TestBetterDesignsScoreBetter(t *testing.T) {
	st, model := testTarget(4)
	p := newPredictor(t, model, DefaultConfig(), 4)
	full := st.FullSequence()
	improved := model.Anneal(full, 25, 2.0, 0.2, 9)
	predBad := p.Predict(full, true)
	predGood := p.Predict(improved, true)
	if !predGood.Best().Metrics.BetterThan(predBad.Best().Metrics) {
		t.Fatalf("annealed design not predicted better: %+v vs %+v",
			predGood.Best().Metrics, predBad.Best().Metrics)
	}
}

func TestPerResidueMeanMatchesGlobal(t *testing.T) {
	st, model := testTarget(5)
	p := newPredictor(t, model, DefaultConfig(), 5)
	best := p.Predict(st.FullSequence(), st.IsComplex()).Best()
	mean := stats.Mean(best.PerResiduePLDDT)
	if math.Abs(mean-best.Metrics.PLDDT) > 1.5 {
		t.Fatalf("per-residue mean %v vs global %v", mean, best.Metrics.PLDDT)
	}
	for _, v := range best.PerResiduePLDDT {
		if v < 0 || v > 100 {
			t.Fatalf("per-residue pLDDT out of range: %v", v)
		}
	}
}

func TestSingleSequenceModeNoisier(t *testing.T) {
	st, model := testTarget(6)
	msaCfg := DefaultConfig()
	ssCfg := DefaultConfig()
	ssCfg.SingleSequence = true
	truth := model.TrueMetrics(st.FullSequence())

	spread := func(cfg Config) float64 {
		var devs []float64
		for seed := uint64(0); seed < 30; seed++ {
			p := newPredictor(t, model, cfg, seed)
			pred := p.Predict(st.FullSequence(), st.IsComplex())
			devs = append(devs, math.Abs(pred.Best().Metrics.PLDDT-truth.PLDDT))
		}
		return stats.Mean(devs)
	}
	if sMSA, sSS := spread(msaCfg), spread(ssCfg); sSS <= sMSA {
		t.Fatalf("single-sequence mode not noisier: %v vs %v", sSS, sMSA)
	}
}

func TestMonomerMode(t *testing.T) {
	st, model := testTarget(7)
	_ = st
	p := newPredictor(t, model, DefaultConfig(), 7)
	pred := p.Predict(st.FullSequence(), false)
	// Monomer ipAE is the neutral constant, identical across models.
	first := pred.Models[0].Metrics.IPAE
	for _, m := range pred.Models {
		if m.Metrics.IPAE != first {
			t.Fatal("monomer ipAE varies across models")
		}
	}
}

func TestConfigValidation(t *testing.T) {
	_, model := testTarget(8)
	bad := []Config{
		{NumModels: 0},
		{NumModels: 5, ObservationNoise: -1},
		{NumModels: 5, SingleSequence: true, SingleSequenceNoiseFactor: 0.5},
	}
	for i, cfg := range bad {
		if _, err := New(model, cfg, 1); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	if _, err := New(nil, DefaultConfig(), 1); err == nil {
		t.Error("nil landscape accepted")
	}
}

func TestTrueZExposedForOracles(t *testing.T) {
	st, model := testTarget(9)
	p := newPredictor(t, model, DefaultConfig(), 9)
	pred := p.Predict(st.FullSequence(), st.IsComplex())
	z, zi := model.NormScores(model.Energies(st.FullSequence()))
	if pred.TrueZ != z || pred.TrueZInter != zi {
		t.Fatal("TrueZ does not match landscape")
	}
}

func BenchmarkPredict(b *testing.B) {
	st, model := testTarget(1)
	p, _ := New(model, DefaultConfig(), 1)
	full := st.FullSequence()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.Predict(full, true)
	}
}
