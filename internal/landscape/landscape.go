// Package landscape implements the hidden fitness landscape that stands in
// for physical reality in the IMPRESS reproduction.
//
// The paper's protocol alternates ProteinMPNN (propose sequences for a
// backbone) and AlphaFold (reveal quality metrics) and claims that adaptive
// selection over those metrics beats random selection. For that claim to be
// reproducible rather than hard-coded, there must be a ground truth that
// both tools observe imperfectly. We use a Potts model — the standard
// statistical-mechanics model of protein sequence landscapes — built from
// each target's backbone contact graph:
//
//	E(s) = Σ_i h_i(s_i) + Σ_(i,j)∈contacts J_ij(s_i, s_j)
//
// Lower energy means a better design. Inter-chain contact couplings define
// the binding energy scored by inter-chain pAE. The ProteinMPNN simulator
// samples from a corrupted copy of the model (imperfect proposals, see
// Corrupt); the AlphaFold simulator converts true energies into
// pLDDT/pTM/ipAE with observation noise. Epistasis (the coupling terms)
// makes greedy single-shot design suboptimal, which is exactly why the
// paper's iterative genetic protocol helps.
package landscape

import (
	"fmt"
	"math"
	"sync"

	"impress/internal/protein"
	"impress/internal/xrand"
)

// Config controls landscape construction.
type Config struct {
	// ContactCutoff is the Å distance defining coupled residue pairs.
	ContactCutoff float64
	// FieldStd scales per-position preferences.
	FieldStd float64
	// CouplingStd scales intra-chain epistatic couplings.
	CouplingStd float64
	// InterCouplingStd scales receptor–peptide couplings; stronger than
	// intra-chain so binding dominates design quality, as in the paper's
	// binder-design objective.
	InterCouplingStd float64
	// CalibrationSamples is the number of random receptor sequences used
	// to standardize energies into z-scores for metric conversion.
	CalibrationSamples int
}

// DefaultConfig returns the configuration used by all experiments.
func DefaultConfig() Config {
	return Config{
		ContactCutoff:      8.0,
		FieldStd:           1.0,
		CouplingStd:        0.45,
		InterCouplingStd:   0.9,
		CalibrationSamples: 192,
	}
}

// Edge is one coupled residue pair with its 20×20 coupling table. Indices
// follow the Structure convention: receptor residues first, then peptide.
type Edge struct {
	I, J       int
	Interchain bool
	W          [protein.NumAA][protein.NumAA]float64
	// wt is W transposed (wt[b][a] = W[a][b]), built by buildAdjacency so
	// the Gibbs kernel reads a contiguous row from whichever side of the
	// edge it stands on instead of striding down a column.
	wt [protein.NumAA][protein.NumAA]float64
}

// halfEdge is one directed view of an edge: rows is oriented so that
// rows[other][a] is the coupling added to candidate residue a at this
// position when the far position holds residue other — &W on the J side,
// &wt on the I side. The kernel therefore always sums a contiguous row.
type halfEdge struct {
	other int
	rows  *[protein.NumAA][protein.NumAA]float64
}

// Model is a target-specific Potts landscape. It is immutable after
// construction and safe for concurrent readers.
type Model struct {
	Name   string
	RecLen int
	PepLen int
	Fields [][protein.NumAA]float64
	Edges  []Edge

	adj [][]halfEdge

	// Calibration statistics over random receptor sequences (peptide held
	// at the target's native peptide): total and inter-chain energies.
	EnergyMean, EnergyStd float64
	InterMean, InterStd   float64
	// EnergyOpt and InterOpt estimate the achievable optimum (via
	// annealing), anchoring the normalized score scale that metrics are
	// derived from: 0 = random sequence, 1 = optimal design.
	EnergyOpt, InterOpt float64

	seed uint64
	cfg  Config

	// spare is a retired corrupted copy of this model awaiting reuse by
	// the next Corrupt call (see Recycle). It deliberately holds a strong
	// reference: a sync.Pool would be drained by exactly the GC pressure
	// the slot exists to remove. Guarded by mu; everything else in the
	// model stays immutable after construction.
	mu    sync.Mutex
	spare *Model
}

// New builds the landscape for a structure. The same (structure geometry,
// peptide sequence, seed) always yields an identical model.
func New(st *protein.Structure, seed uint64, cfg Config) *Model {
	if cfg.ContactCutoff <= 0 {
		panic("landscape: non-positive contact cutoff")
	}
	n := st.Len()
	m := &Model{
		Name:   st.Name,
		RecLen: len(st.Receptor.Seq),
		PepLen: len(st.Peptide.Seq),
		Fields: make([][protein.NumAA]float64, n),
		seed:   seed,
		cfg:    cfg,
	}
	// Bulk draws take ziggurat normals, one per cell in row-major order:
	// fields, then each edge's W.
	rng := xrand.New(xrand.Derive(seed, "landscape:"+st.Name))
	for i := range m.Fields {
		for a := range m.Fields[i] {
			m.Fields[i][a] = rng.Ziggurat() * cfg.FieldStd
		}
	}
	contacts := st.Contacts(cfg.ContactCutoff)
	m.Edges = make([]Edge, len(contacts))
	for k, c := range contacts {
		e := &m.Edges[k]
		e.I, e.J, e.Interchain = c.I, c.J, c.Interchain
		std := cfg.CouplingStd
		if c.Interchain {
			std = cfg.InterCouplingStd
		}
		for a := 0; a < protein.NumAA; a++ {
			for b := 0; b < protein.NumAA; b++ {
				w := rng.Ziggurat() * std
				e.W[a][b] = w
				e.wt[b][a] = w
			}
		}
	}
	m.buildAdjacency()
	m.calibrate(st)
	return m
}

// buildAdjacency derives the per-position half-edge lists. The lists live
// in one flat backing array (two counted passes instead of per-position
// append growth), which cuts model construction from ~2·E·log(deg) small
// allocations to three. Within each position, half-edges keep edge order
// — the same order the old append loop produced — so the kernel's float
// additions are bit-identical. Writers of Edge tables (New, CorruptInto)
// maintain wt = Wᵀ as they fill W.
func (m *Model) buildAdjacency() {
	n := m.RecLen + m.PepLen
	start := make([]int, n+1)
	for k := range m.Edges {
		start[m.Edges[k].I+1]++
		start[m.Edges[k].J+1]++
	}
	for i := 0; i < n; i++ {
		start[i+1] += start[i]
	}
	flat := make([]halfEdge, 2*len(m.Edges))
	fill := make([]int, n)
	for k := range m.Edges {
		e := &m.Edges[k]
		flat[start[e.I]+fill[e.I]] = halfEdge{other: e.J, rows: &e.wt}
		fill[e.I]++
		flat[start[e.J]+fill[e.J]] = halfEdge{other: e.I, rows: &e.W}
		fill[e.J]++
	}
	m.adj = make([][]halfEdge, n)
	for i := 0; i < n; i++ {
		m.adj[i] = flat[start[i]:start[i+1]:start[i+1]]
	}
}

// calibrate standardizes the energy scale using random receptor sequences
// paired with the target's native peptide, so that z-scores (and hence
// metrics) are comparable across targets with different graph densities.
func (m *Model) calibrate(st *protein.Structure) {
	rng := xrand.New(xrand.Derive(m.seed, "calibrate:"+m.Name))
	k := m.cfg.CalibrationSamples
	if k < 2 {
		k = 2
	}
	totals := make([]float64, k)
	inters := make([]float64, k)
	full := st.FullSequence()
	for s := 0; s < k; s++ {
		for i := 0; i < m.RecLen; i++ {
			full[i] = protein.Alphabet[rng.Intn(protein.NumAA)]
		}
		totals[s], inters[s] = m.Energies(full)
	}
	m.EnergyMean, m.EnergyStd = meanStd(totals)
	m.InterMean, m.InterStd = meanStd(inters)
	if m.EnergyStd < 1e-9 {
		m.EnergyStd = 1
	}
	if m.InterStd < 1e-9 {
		m.InterStd = 1
	}

	// Estimate the achievable optimum with two independent anneals; the
	// best defines the top of the normalized score scale. Without this
	// anchor, metric sigmoids calibrated on the random ensemble saturate
	// long before a design campaign's working regime.
	optSeed := xrand.Derive(m.seed, "calibrate-opt:"+m.Name)
	m.EnergyOpt, m.InterOpt = m.EnergyMean, m.InterMean
	for k := uint64(0); k < 2; k++ {
		opt := m.Anneal(full, 28, 2.0, 0.15, xrand.DeriveN(optSeed, k))
		e, ei := m.Energies(opt)
		if e < m.EnergyOpt {
			m.EnergyOpt, m.InterOpt = e, ei
		}
	}
}

// NormScores converts raw energies into normalized quality scores on the
// calibrated scale: 0 at the random-sequence mean, 1 at the annealed
// optimum. Metric conversion (TrueMetrics, MetricsFromZ) works on this
// scale. Monomer landscapes report a zero inter-chain score.
func (m *Model) NormScores(total, inter float64) (s, si float64) {
	denom := m.EnergyMean - m.EnergyOpt
	if denom < 1e-9 {
		denom = m.EnergyStd
	}
	s = (m.EnergyMean - total) / denom
	idenom := m.InterMean - m.InterOpt
	if idenom < 1e-9 {
		return s, 0
	}
	si = (m.InterMean - inter) / idenom
	return s, si
}

func meanStd(xs []float64) (mean, std float64) {
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	std = math.Sqrt(ss / float64(len(xs)-1))
	return mean, std
}

// Seed returns the construction seed (used to derive corruption streams).
func (m *Model) Seed() uint64 { return m.seed }

// Len returns the total number of positions.
func (m *Model) Len() int { return m.RecLen + m.PepLen }

// checkLen panics when a sequence does not span the full complex — passing
// a receptor-only sequence here is the most likely caller bug.
func (m *Model) checkLen(full protein.Sequence) {
	if len(full) != m.Len() {
		panic(fmt.Sprintf("landscape: sequence length %d, model wants %d (receptor+peptide)", len(full), m.Len()))
	}
}

// Energy returns the total Potts energy of the full (receptor+peptide)
// sequence. Lower is better.
func (m *Model) Energy(full protein.Sequence) float64 {
	e, _ := m.Energies(full)
	return e
}

// Energies returns total and inter-chain energy in one pass.
func (m *Model) Energies(full protein.Sequence) (total, inter float64) {
	m.checkLen(full)
	for i := range full {
		total += m.Fields[i][protein.Index(full[i])]
	}
	for k := range m.Edges {
		e := &m.Edges[k]
		w := e.W[protein.Index(full[e.I])][protein.Index(full[e.J])]
		total += w
		if e.Interchain {
			inter += w
		}
	}
	return total, inter
}

// ConditionalEnergies fills out[a] with the energy contribution of placing
// amino acid a at position pos, holding the rest of full fixed. This is
// the Gibbs-sampling kernel shared by the ProteinMPNN simulator and the
// annealer. out must have length protein.NumAA.
func (m *Model) ConditionalEnergies(full protein.Sequence, pos int, out []float64) {
	m.checkLen(full)
	if len(out) != protein.NumAA {
		panic("landscape: ConditionalEnergies buffer size")
	}
	// Fixed-size array views eliminate per-iteration bounds checks in the
	// kernel; every half-edge contributes one contiguous 20-float row.
	o := (*[protein.NumAA]float64)(out)
	*o = m.Fields[pos]
	for _, he := range m.adj[pos] {
		row := &he.rows[protein.Index(full[he.other])]
		for a := 0; a < protein.NumAA; a++ {
			o[a] += row[a]
		}
	}
}

// Degree returns the number of couplings touching position pos.
func (m *Model) Degree(pos int) int { return len(m.adj[pos]) }

// ZScores converts raw energies to standardized quality scores: z > 0
// means better (lower energy) than a random sequence, in units of the
// random-ensemble standard deviation.
func (m *Model) ZScores(total, inter float64) (z, zInter float64) {
	return (m.EnergyMean - total) / m.EnergyStd, (m.InterMean - inter) / m.InterStd
}

// Zero-allocation scratch for samplers: fixed-size arrays a caller keeps
// on its stack.
type scratch struct {
	cond    [protein.NumAA]float64
	weights [protein.NumAA]float64
}

// SampleOptions configures Gibbs sampling over the model.
type SampleOptions struct {
	// Sweeps is the number of full passes over designable positions.
	Sweeps int
	// Temperature scales the Boltzmann factor; higher samples more
	// diversely (ProteinMPNN's sampling temperature).
	Temperature float64
	// Fixed marks positions that must not change (peptide positions are
	// always fixed; the protease protocol also fixes catalytic residues).
	// May be nil. Length must equal Len() when set.
	Fixed []bool
	// Seed drives the sampling stream.
	Seed uint64
}

// Sample runs Gibbs sampling from start and returns the sampled full
// sequence. Peptide positions are always held fixed regardless of
// opts.Fixed. The input is not modified.
func (m *Model) Sample(start protein.Sequence, opts SampleOptions) protein.Sequence {
	m.checkLen(start)
	if opts.Sweeps <= 0 {
		panic("landscape: non-positive sweep count")
	}
	if opts.Temperature <= 0 {
		panic("landscape: non-positive temperature")
	}
	if opts.Fixed != nil && len(opts.Fixed) != m.Len() {
		panic("landscape: Fixed mask length mismatch")
	}
	seq := start.Clone()
	rng := xrand.Seeded(opts.Seed)
	var sc scratch
	for sweep := 0; sweep < opts.Sweeps; sweep++ {
		for pos := 0; pos < m.RecLen; pos++ {
			if opts.Fixed != nil && opts.Fixed[pos] {
				continue
			}
			m.gibbsStep(seq, pos, opts.Temperature, &rng, &sc)
		}
	}
	return seq
}

func (m *Model) gibbsStep(seq protein.Sequence, pos int, temp float64, rng *xrand.RNG, sc *scratch) {
	m.ConditionalEnergies(seq, pos, sc.cond[:])
	minE := sc.cond[0]
	for _, e := range sc.cond[1:] {
		if e < minE {
			minE = e
		}
	}
	var total float64
	for a, e := range &sc.cond {
		w := math.Exp(-(e - minE) / temp)
		sc.weights[a] = w
		total += w
	}
	t := rng.Float64() * total
	pick := protein.NumAA - 1
	for a, w := range &sc.weights {
		t -= w
		if t < 0 {
			pick = a
			break
		}
	}
	seq[pos] = protein.Letter(pick)
}

// LogLikelihood returns the model's per-residue average log-likelihood of
// the receptor design under the Boltzmann distribution at the given
// temperature — the score ProteinMPNN reports and Stage 2 ranks by.
// Higher is better.
func (m *Model) LogLikelihood(full protein.Sequence, temp float64) float64 {
	m.checkLen(full)
	if temp <= 0 {
		panic("landscape: non-positive temperature")
	}
	var sc scratch
	var ll float64
	for pos := 0; pos < m.RecLen; pos++ {
		m.ConditionalEnergies(full, pos, sc.cond[:])
		minE := sc.cond[0]
		for _, e := range sc.cond[1:] {
			if e < minE {
				minE = e
			}
		}
		var z float64
		for _, e := range &sc.cond {
			z += math.Exp(-(e - minE) / temp)
		}
		self := sc.cond[protein.Index(full[pos])]
		ll += -(self-minE)/temp - math.Log(z)
	}
	return ll / float64(m.RecLen)
}

// Anneal performs simulated annealing from start, returning a
// progressively optimized sequence. Used by the workload generator to
// produce native sequences of tunable quality (a native protein should be
// decent but leave headroom for design).
func (m *Model) Anneal(start protein.Sequence, sweeps int, tHi, tLo float64, seed uint64) protein.Sequence {
	if sweeps <= 0 {
		panic("landscape: non-positive sweeps")
	}
	seq := start.Clone()
	rng := xrand.Seeded(seed)
	var sc scratch
	for sweep := 0; sweep < sweeps; sweep++ {
		frac := float64(sweep) / float64(sweeps)
		temp := tHi * math.Pow(tLo/tHi, frac)
		for pos := 0; pos < m.RecLen; pos++ {
			m.gibbsStep(seq, pos, temp, &rng, &sc)
		}
	}
	return seq
}

// Corrupt returns an independent model whose fields and couplings are the
// true ones plus Gaussian noise of the given relative level. This is the
// ProteinMPNN simulator's imperfect view of reality: at level 0 the
// sampler would propose near-optimal designs immediately; at high levels
// its log-likelihood ranking decorrelates from true quality. The noise is
// frozen by seed so one design stage sees one consistent surrogate model.
// Calibration statistics are copied (not recomputed): z-scores always
// refer to the true landscape's scale.
func (m *Model) Corrupt(level float64, seed uint64) *Model {
	m.mu.Lock()
	reuse := m.spare
	m.spare = nil
	m.mu.Unlock()
	return m.CorruptInto(reuse, level, seed)
}

// Recycle offers a surrogate produced by Corrupt back to this truth model
// for memory reuse by the next Corrupt call. The caller must own c
// exclusively and stop using it afterwards; the next corruption rewrites
// it in place. Recycling keeps design stages — which corrupt a multi-MB
// model per call — off the allocator for the lifetime of a target.
func (m *Model) Recycle(c *Model) {
	if c == nil || c == m {
		return
	}
	m.mu.Lock()
	m.spare = c
	m.mu.Unlock()
}

// CorruptInto is Corrupt recycling a previous surrogate's memory: when
// reuse is a model of the same shape (same lengths and edge topology —
// any earlier corruption of the same truth qualifies), its field table,
// edge tables, and adjacency lists are overwritten in place instead of
// allocated fresh. Every cell is rewritten from the truth model and the
// seed's noise stream, so the result is bit-identical to Corrupt; only
// the allocator traffic differs. A nil or mismatched reuse model falls
// back to fresh allocation.
func (m *Model) CorruptInto(reuse *Model, level float64, seed uint64) *Model {
	if level < 0 {
		panic("landscape: negative corruption level")
	}
	c := reuse
	sameShape := c != nil &&
		c.RecLen == m.RecLen && c.PepLen == m.PepLen &&
		len(c.Fields) == len(m.Fields) && len(c.Edges) == len(m.Edges)
	if !sameShape {
		c = &Model{
			Fields: make([][protein.NumAA]float64, len(m.Fields)),
			Edges:  make([]Edge, len(m.Edges)),
		}
	}
	c.Name = m.Name
	c.RecLen, c.PepLen = m.RecLen, m.PepLen
	c.EnergyMean, c.EnergyStd = m.EnergyMean, m.EnergyStd
	c.InterMean, c.InterStd = m.InterMean, m.InterStd
	c.EnergyOpt, c.InterOpt = m.EnergyOpt, m.InterOpt
	c.seed, c.cfg = seed, m.cfg

	// The noise takes ziggurat normals in New's cell order.
	rng := xrand.Seeded(xrand.Derive(seed, "corrupt:"+m.Name))
	fStd := m.cfg.FieldStd * level
	for i := range m.Fields {
		for a, f := range &m.Fields[i] {
			c.Fields[i][a] = f + rng.Ziggurat()*fStd
		}
	}
	sameTopology := sameShape
	for k := range m.Edges {
		src := &m.Edges[k]
		dst := &c.Edges[k]
		if dst.I != src.I || dst.J != src.J {
			sameTopology = false
		}
		dst.I, dst.J, dst.Interchain = src.I, src.J, src.Interchain
		std := m.cfg.CouplingStd * level
		if src.Interchain {
			std = m.cfg.InterCouplingStd * level
		}
		for a := 0; a < protein.NumAA; a++ {
			srcRow := &src.W[a]
			dstRow := &dst.W[a]
			for b, w := range srcRow {
				w += rng.Ziggurat() * std
				dstRow[b] = w
				dst.wt[b][a] = w
			}
		}
	}
	// A reused model with unchanged topology keeps its adjacency lists:
	// the half-edge row pointers aim into c.Edges, whose backing array was
	// recycled, and the tables behind them were just rewritten.
	if !sameTopology || c.adj == nil {
		c.buildAdjacency()
	}
	return c
}
