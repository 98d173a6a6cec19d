// Package mpnn simulates ProteinMPNN (Dauparas et al., Science 2022), the
// sequence-design model that Stage 1 of the IMPRESS pipeline runs: given a
// backbone, generate K candidate sequences with per-sequence
// log-likelihood scores that Stage 2 ranks.
//
// The simulator Gibbs-samples from a *corrupted* copy of the target's
// hidden Potts landscape (see landscape.Corrupt). That reproduces the two
// properties the protocol depends on:
//
//  1. Proposals are biased toward good designs (MPNN is far better than
//     random mutagenesis) but imperfect — its likelihood ranking only
//     partially correlates with AlphaFold's verdict, which is why Stage 6's
//     alternate-sequence retries and pruning earn their keep.
//  2. Backbone refinement helps: each accepted design cycle increments the
//     structure Generation, and the corruption level decays with it —
//     refined backbones give the sequence model a sharper view, the
//     mechanism behind the paper's "iterative runs of ProteinMPNN and
//     backbone refinement techniques".
//
// Sampling fans out across goroutines (one deterministic substream per
// candidate), so wide design stages use the host's cores while remaining
// bit-for-bit reproducible.
package mpnn

import (
	"fmt"
	"runtime"
	"sync"

	"impress/internal/landscape"
	"impress/internal/protein"
	"impress/internal/xrand"
)

// Config controls sequence generation, mirroring ProteinMPNN's
// user-facing knobs (number of sequences, sampling temperature, fixed
// positions) plus the surrogate-fidelity model.
type Config struct {
	// NumSequences is K, the designs per call (paper: 10 per structure).
	NumSequences int
	// Temperature is the sampling temperature; higher explores more.
	Temperature float64
	// Sweeps is the number of Gibbs passes per sample.
	Sweeps int
	// CorruptionBase is the surrogate-model error at Generation 0.
	CorruptionBase float64
	// CorruptionDecay multiplies the corruption per backbone generation
	// (0 < decay <= 1); refined backbones inform the model better.
	CorruptionDecay float64
	// RedesignFraction is the fraction of designable positions each
	// candidate resamples (0 < f <= 1). ProteinMPNN conditions on the
	// refined backbone, so proposals are local moves around the current
	// design rather than independent redraws; this is what lets accepted
	// improvements compound across cycles.
	RedesignFraction float64
	// FixedPositions lists receptor positions that must not be designed
	// (the protease protocol fixes catalytic residues). Peptide positions
	// are always fixed.
	FixedPositions []int
	// Parallelism bounds sampling goroutines; 0 means GOMAXPROCS.
	Parallelism int
}

// DefaultConfig returns the pipeline's standard Stage-1 settings.
func DefaultConfig() Config {
	return Config{
		NumSequences:     10,
		Temperature:      1.35,
		Sweeps:           3,
		CorruptionBase:   0.65,
		CorruptionDecay:  0.85,
		RedesignFraction: 0.35,
	}
}

// Validate rejects unusable configurations.
func (c Config) Validate() error {
	switch {
	case c.NumSequences <= 0:
		return fmt.Errorf("mpnn: NumSequences must be positive, got %d", c.NumSequences)
	case c.Temperature <= 0:
		return fmt.Errorf("mpnn: Temperature must be positive, got %v", c.Temperature)
	case c.Sweeps <= 0:
		return fmt.Errorf("mpnn: Sweeps must be positive, got %d", c.Sweeps)
	case c.CorruptionBase < 0:
		return fmt.Errorf("mpnn: negative CorruptionBase")
	case c.CorruptionDecay <= 0 || c.CorruptionDecay > 1:
		return fmt.Errorf("mpnn: CorruptionDecay must be in (0,1], got %v", c.CorruptionDecay)
	case c.RedesignFraction <= 0 || c.RedesignFraction > 1:
		return fmt.Errorf("mpnn: RedesignFraction must be in (0,1], got %v", c.RedesignFraction)
	}
	return nil
}

// Design is one generated candidate.
type Design struct {
	// Full is the complete complex sequence (receptor ++ peptide).
	Full protein.Sequence
	// Receptor is the designed receptor portion.
	Receptor protein.Sequence
	// LogLikelihood is the model's per-residue average log-likelihood —
	// the score Stage 2 sorts by. Higher is better.
	LogLikelihood float64
	// Index is the sample's position in generation order.
	Index int
}

// Sampler generates designs for one target. It is safe for concurrent
// use; all mutable state lives on the stack of each call. Surrogate
// models come from and return to the landscape package's process-wide
// free list (landscape.Corrupt, Recycle), so all targets share one
// reusable corruption buffer per concurrent Design call instead of
// allocating multi-MB models per stage.
type Sampler struct {
	truth *landscape.Model
	cfg   Config
}

// New builds a sampler over the target's true landscape. The sampler
// never reads the true model directly during design — every call corrupts
// it first according to the structure generation.
func New(truth *landscape.Model, cfg Config) (*Sampler, error) {
	if truth == nil {
		return nil, fmt.Errorf("mpnn: nil landscape")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	for _, p := range cfg.FixedPositions {
		if p < 0 || p >= truth.RecLen {
			return nil, fmt.Errorf("mpnn: fixed position %d outside receptor [0,%d)", p, truth.RecLen)
		}
	}
	return &Sampler{truth: truth, cfg: cfg}, nil
}

// Config returns the sampler's configuration.
func (s *Sampler) Config() Config { return s.cfg }

// CorruptionFor returns the surrogate error level used at a given
// backbone generation.
func (s *Sampler) CorruptionFor(generation int) float64 {
	level := s.cfg.CorruptionBase
	for g := 0; g < generation; g++ {
		level *= s.cfg.CorruptionDecay
	}
	return level
}

// maskScratch holds one worker's reusable redesign-mask buffers. Each
// Design worker owns one, so mask construction — once two allocations per
// candidate — allocates only on each worker's first candidate.
type maskScratch struct {
	mask       []bool
	designable []int
}

// redesignMask selects which positions a candidate may redesign: a
// random RedesignFraction subset of the designable receptor positions.
// The returned mask (sc.mask, rebuilt in place) marks everything else
// fixed; it is only valid until the worker's next call.
func (s *Sampler) redesignMask(alwaysFixed []bool, seed uint64, sc *maskScratch) []bool {
	if cap(sc.mask) < len(alwaysFixed) {
		sc.mask = make([]bool, len(alwaysFixed))
	}
	mask := sc.mask[:len(alwaysFixed)]
	copy(mask, alwaysFixed)
	if s.cfg.RedesignFraction >= 1 {
		return mask
	}
	rng := xrand.Seeded(xrand.Derive(seed, "redesign"))
	designable := sc.designable[:0]
	for pos := 0; pos < s.truth.RecLen; pos++ {
		if !alwaysFixed[pos] {
			designable = append(designable, pos)
		}
	}
	sc.designable = designable
	keep := int(float64(len(designable))*s.cfg.RedesignFraction + 0.5)
	if keep < 1 {
		keep = 1
	}
	rng.ShuffleInts(designable)
	// Positions beyond the redesign budget stay fixed at their current
	// residues.
	for _, pos := range designable[keep:] {
		mask[pos] = true
	}
	return mask
}

// Design generates cfg.NumSequences candidates conditioned on st. The
// same (structure sequence, generation, seed) triple always returns the
// same designs, regardless of parallelism.
func (s *Sampler) Design(st *protein.Structure, seed uint64) []Design {
	if st.Len() != s.truth.Len() {
		panic(fmt.Sprintf("mpnn: structure length %d does not match landscape %d", st.Len(), s.truth.Len()))
	}
	level := s.CorruptionFor(st.Generation)
	// The corrupted view is frozen per (target, generation, stage seed):
	// every candidate within one Stage-1 call sees the same surrogate.
	// The surrogate's memory is recycled through the process-wide free
	// list, possibly from another target — the corruption stream rewrites
	// every cell, so reuse is bit-identical.
	surrogateSeed := xrand.Derive(seed, fmt.Sprintf("surrogate:%s:gen%d", st.Name, st.Generation))
	surrogate := s.truth.Corrupt(level, surrogateSeed)
	defer s.truth.Recycle(surrogate)

	alwaysFixed := make([]bool, s.truth.Len())
	for _, p := range s.cfg.FixedPositions {
		alwaysFixed[p] = true
	}
	start := st.FullSequence()

	k := s.cfg.NumSequences
	designs := make([]Design, k)
	workers := s.cfg.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > k {
		workers = k
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sc maskScratch
			for i := range next {
				candSeed := xrand.DeriveN(seed, uint64(i))
				full := surrogate.Sample(start, landscape.SampleOptions{
					Sweeps:      s.cfg.Sweeps,
					Temperature: s.cfg.Temperature,
					Fixed:       s.redesignMask(alwaysFixed, candSeed, &sc),
					Seed:        candSeed,
				})
				designs[i] = Design{
					Full:          full,
					Receptor:      full[:s.truth.RecLen].Clone(),
					LogLikelihood: surrogate.LogLikelihood(full, s.cfg.Temperature),
					Index:         i,
				}
			}
		}()
	}
	for i := 0; i < k; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	return designs
}
