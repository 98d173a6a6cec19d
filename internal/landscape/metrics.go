package landscape

import "impress/internal/protein"

// Metrics are the AlphaFold confidence and error measures the paper
// evaluates designs by (Section III): pLDDT and pTM (higher is better) and
// inter-chain pAE (lower is better).
type Metrics struct {
	// PLDDT is the predicted local distance difference test score, 0–100.
	PLDDT float64
	// PTM is the predicted TM-score, 0–1. AlphaFold ranks candidate
	// models by pTM (pipeline Stage 4).
	PTM float64
	// IPAE is the inter-chain predicted aligned error in Å (lower is
	// better); NaN-free: monomers report a neutral mid-scale value.
	IPAE float64
}

// Quality folds the three metrics into one scalar for Stage 6's
// "compare result to previous result" decision. Each term is normalized
// to roughly [0,1]; ipAE enters inverted since lower is better.
func (m Metrics) Quality() float64 {
	return 0.35*(m.PLDDT/100) + 0.40*m.PTM + 0.25*((ipaeCeil-m.IPAE)/ipaeCeil)
}

// BetterThan reports whether m improves on o under the composite quality.
func (m Metrics) BetterThan(o Metrics) bool {
	return m.Quality() > o.Quality()
}

// Metric conversion constants, on the normalized score scale s (0 =
// random sequence, 1 = annealed optimum; see Model.NormScores).
// Calibrated so that (a) a native-like starting design (s ≈ 0.4) scores
// pLDDT ≈ 70, pTM ≈ 0.45, ipAE ≈ 17, and (b) four adaptive design cycles
// (s ≈ 0.8) land near pLDDT ≈ 82, pTM ≈ 0.72, ipAE ≈ 10.5 — matching the
// magnitudes behind Table I's net deltas (pLDDT +5.8..7.7, pTM
// +0.28..0.32, ipAE −6.6..−6.7).
const (
	plddtBase  = 48.0
	plddtSpan  = 46.0
	plddtGain  = 2.82
	plddtShift = 0.43

	ptmBase  = 0.17
	ptmSpan  = 0.76
	ptmGain  = 3.76
	ptmShift = 0.54

	ipaeCeil  = 30.0
	ipaeFloor = 4.5
	ipaeGain  = 4.2
	ipaeShift = 0.48
)

func sigmoid(x float64) float64 { return 1 / (1 + boltzmann(-x)) }

// TrueMetrics converts the full sequence's energies into noise-free
// metrics. The AlphaFold simulator adds observation noise on top; tests
// and oracles use the true values directly.
func (m *Model) TrueMetrics(full protein.Sequence) Metrics {
	total, inter := m.Energies(full)
	s, si := m.NormScores(total, inter)
	return metricsFromScore(s, si, m.PepLen > 0)
}

func metricsFromScore(s, si float64, isComplex bool) Metrics {
	var met Metrics
	met.PLDDT = plddtBase + plddtSpan*sigmoid(plddtGain*(s-plddtShift))
	met.PTM = ptmBase + ptmSpan*sigmoid(ptmGain*(s-ptmShift))
	if isComplex {
		met.IPAE = ipaeCeil - (ipaeCeil-ipaeFloor)*sigmoid(ipaeGain*(si-ipaeShift))
	} else {
		// Monomer predictions (protease mode) have no inter-chain error;
		// report the neutral mid-scale so comparisons stay well defined.
		met.IPAE = (ipaeCeil + ipaeFloor) / 2
	}
	return met
}

// MetricsFromZ converts normalized quality scores (see Model.NormScores:
// 0 = random, 1 = optimal) into metrics. The AlphaFold simulator perturbs
// the scores with observation noise before calling this.
func MetricsFromZ(s, si float64, isComplex bool) Metrics {
	return metricsFromScore(s, si, isComplex)
}

// ClampMetrics forces the metrics into their legal ranges; the AlphaFold
// simulator applies it after adding observation noise.
func ClampMetrics(m Metrics) Metrics {
	m.PLDDT = clamp(m.PLDDT, 0, 100)
	m.PTM = clamp(m.PTM, 0, 1)
	m.IPAE = clamp(m.IPAE, 0.5, ipaeCeil+5)
	return m
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
