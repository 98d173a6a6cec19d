// Package fold simulates AlphaFold2 (Jumper et al., Nature 2021) as used
// by Stage 4–5 of the IMPRESS pipeline: predict the structure of a
// designed complex, rank candidate models by pTM, and emit the confidence
// and error metrics the protocol optimizes (pLDDT, pTM, inter-chain pAE).
//
// Computationally, the simulator reveals the hidden landscape's true
// quality with observation noise: each of the NumModels candidate models
// perturbs the design's true z-scores independently, metrics are derived
// from the perturbed scores, and models are ranked by pTM exactly as
// AlphaFold's ranking does. A design's prediction is deterministic in
// (predictor seed, sequence), matching AlphaFold's seeded inference.
//
// The execution cost structure — the part that drives the paper's
// utilization story — is two-phased: an expensive CPU-bound MSA/feature
// construction ("takes hours to finish due to large databases and I/O
// bottlenecks" [ParaFold]) and a GPU inference phase. Package pipeline
// maps these onto pilot tasks either monolithically (CONT-V) or split
// (IM-RP).
package fold

import (
	"fmt"
	"sort"

	"impress/internal/landscape"
	"impress/internal/protein"
	"impress/internal/xrand"
)

// Config controls the predictor.
type Config struct {
	// NumModels is how many candidate models one prediction produces
	// (AlphaFold default: 5); the best by pTM is returned first.
	NumModels int
	// ObservationNoise is the standard deviation of per-model prediction
	// error on the normalized score scale (0 = random, 1 = optimal).
	ObservationNoise float64
	// SingleSequence disables MSA information (the EvoPro shortcut
	// discussed in Related Work): inference gets faster but observation
	// noise grows, degrading AlphaFold's value as a design classifier.
	SingleSequence bool
	// SingleSequenceNoiseFactor scales ObservationNoise in
	// single-sequence mode.
	SingleSequenceNoiseFactor float64
}

// DefaultConfig returns the standard 5-model MSA-backed configuration.
func DefaultConfig() Config {
	return Config{
		NumModels:                 5,
		ObservationNoise:          0.055,
		SingleSequenceNoiseFactor: 2.5,
	}
}

// Validate rejects unusable configurations.
func (c Config) Validate() error {
	switch {
	case c.NumModels <= 0:
		return fmt.Errorf("fold: NumModels must be positive, got %d", c.NumModels)
	case c.ObservationNoise < 0:
		return fmt.Errorf("fold: negative ObservationNoise")
	case c.SingleSequence && c.SingleSequenceNoiseFactor < 1:
		return fmt.Errorf("fold: SingleSequenceNoiseFactor must be >= 1")
	}
	return nil
}

// ModelOut is one candidate model's output.
type ModelOut struct {
	// Rank is the model's position after pTM ranking (0 = best).
	Rank int
	// Metrics are the model's confidence/error scores.
	Metrics landscape.Metrics
	// PerResiduePLDDT holds per-position confidence for the full
	// complex; its mean tracks Metrics.PLDDT. No pipeline stage reads
	// it, but drawing it advances the prediction's noise stream, so
	// dropping it would shift every later draw and every golden.
	PerResiduePLDDT []float64
}

// Prediction is the result of one AlphaFold run over a design.
type Prediction struct {
	// Models are the candidate models sorted by pTM, best first.
	Models []ModelOut
	// TrueZ and TrueZInter record the noise-free normalized scores
	// behind the prediction (see landscape.Model.NormScores); used by
	// oracle ablations and tests, never by the protocol itself.
	TrueZ, TrueZInter float64
}

// Best returns the top-ranked model.
func (p Prediction) Best() ModelOut { return p.Models[0] }

// Predictor simulates AlphaFold for one target landscape. Safe for
// concurrent use.
type Predictor struct {
	truth *landscape.Model
	cfg   Config
	seed  uint64
}

// New builds a predictor. seed fixes the observation-noise stream.
func New(truth *landscape.Model, cfg Config, seed uint64) (*Predictor, error) {
	if truth == nil {
		return nil, fmt.Errorf("fold: nil landscape")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Predictor{truth: truth, cfg: cfg, seed: seed}, nil
}

// noiseStd returns the effective observation noise.
func (p *Predictor) noiseStd() float64 {
	std := p.cfg.ObservationNoise
	if p.cfg.SingleSequence {
		std *= p.cfg.SingleSequenceNoiseFactor
	}
	return std
}

// Predict runs the simulated AlphaFold over a full complex sequence.
// isComplex selects multimer vs monomer metric behaviour (the paper's
// future-work protease mode predicts monomers).
func (p *Predictor) Predict(full protein.Sequence, isComplex bool) Prediction {
	total, inter := p.truth.Energies(full)
	z, zi := p.truth.NormScores(total, inter)
	rng := xrand.New(xrand.Derive(p.seed^full.Hash(), "fold"))
	std := p.noiseStd()

	// The per-residue fit profile is a pure function of the sequence —
	// computed once and shared across the NumModels models, which differ
	// only in their observation-noise draws. The rng consumes exactly the
	// same stream as before (fits never drew from it), so predictions are
	// bit-identical to the per-model recomputation.
	fits := p.residueFits(full)
	models := make([]ModelOut, p.cfg.NumModels)
	for m := range models {
		zm := z + rng.NormFloat64()*std
		zim := zi + rng.NormFloat64()*std
		met := landscape.ClampMetrics(landscape.MetricsFromZ(zm, zim, isComplex))
		models[m] = ModelOut{
			Metrics:         met,
			PerResiduePLDDT: p.perResiduePLDDT(fits, met.PLDDT, rng),
		}
	}
	sort.SliceStable(models, func(a, b int) bool {
		return models[a].Metrics.PTM > models[b].Metrics.PTM
	})
	for i := range models {
		models[i].Rank = i
	}
	return Prediction{Models: models, TrueZ: z, TrueZInter: zi}
}

// residueFits scores how well each residue fits its local conditional
// energy landscape, in [0,1]: 1 when the residue is the locally optimal
// choice. This is the deterministic, kernel-heavy half of the
// per-residue confidence model, shared by every model of one prediction.
func (p *Predictor) residueFits(full protein.Sequence) []float64 {
	n := p.truth.Len()
	fits := make([]float64, n)
	cond := make([]float64, protein.NumAA)
	for i := 0; i < n; i++ {
		p.truth.ConditionalEnergies(full, i, cond)
		self := cond[protein.Index(full[i])]
		lo, hi := cond[0], cond[0]
		for _, e := range cond[1:] {
			if e < lo {
				lo = e
			}
			if e > hi {
				hi = e
			}
		}
		fit := 0.5
		if hi > lo {
			fit = (hi - self) / (hi - lo)
		}
		fits[i] = fit
	}
	return fits
}

// perResiduePLDDT spreads the global confidence across positions:
// residues whose local conditional energy fits well score above the mean,
// poorly fitting ones below — mimicking how AlphaFold's confidence dips
// around problematic regions.
func (p *Predictor) perResiduePLDDT(fits []float64, mean float64, rng *xrand.RNG) []float64 {
	n := len(fits)
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		v := mean + (fits[i]-0.5)*14 + rng.NormFloat64()*2.5
		if v < 0 {
			v = 0
		}
		if v > 100 {
			v = 100
		}
		out[i] = v
	}
	// Re-center so the per-residue mean matches the global score, like
	// AlphaFold's reported pLDDT.
	var s float64
	for _, v := range out {
		s += v
	}
	shift := mean - s/float64(n)
	for i := range out {
		v := out[i] + shift
		if v < 0 {
			v = 0
		}
		if v > 100 {
			v = 100
		}
		out[i] = v
	}
	return out
}
