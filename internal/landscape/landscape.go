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
	"slices"
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
// W[a][b] couples residue a at I with residue b at J; the table is stored
// once and read from both ends (see halfEdge).
type Edge struct {
	I, J       int
	Interchain bool
	W          [protein.NumAA][protein.NumAA]float64
}

// halfEdge is one directed view of an edge from the position it is listed
// under. On the J side the coupling added to candidate residue a, when the
// far position holds residue other, is the row W[other][a]; on the I side
// (col set) it is the column W[a][other]. Both sides read the one table.
type halfEdge struct {
	w     *[protein.NumAA][protein.NumAA]float64
	other int32
	col   bool
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

	// halfEdges is the flat backing array of adj, kept so a recycled
	// surrogate rebuilds its adjacency without allocating.
	halfEdges []halfEdge
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
				e.W[a][b] = rng.Ziggurat() * std
			}
		}
	}
	m.buildAdjacency()
	m.calibrate(st)
	return m
}

// buildAdjacency derives the per-position half-edge lists. The lists live
// in one flat backing array carved into exactly-sized, capacity-capped
// slices, and both reuse whatever capacity the model already holds, so a
// recycled surrogate rebuilds them without allocating. Within each
// position, half-edges keep edge order, which fixes the order of the
// kernel's float additions.
func (m *Model) buildAdjacency() {
	m.adj = resize(m.adj, m.RecLen+m.PepLen)
	m.halfEdges = resize(m.halfEdges, 2*len(m.Edges))
	// Count each position's degree in the length of its list; the flat
	// array's capacity bounds every degree.
	for i := range m.adj {
		m.adj[i] = m.halfEdges[:0]
	}
	for k := range m.Edges {
		e := &m.Edges[k]
		m.adj[e.I] = m.adj[e.I][:len(m.adj[e.I])+1]
		m.adj[e.J] = m.adj[e.J][:len(m.adj[e.J])+1]
	}
	off := 0
	for i, l := range m.adj {
		m.adj[i] = m.halfEdges[off : off : off+len(l)]
		off += len(l)
	}
	for k := range m.Edges {
		e := &m.Edges[k]
		m.adj[e.I] = append(m.adj[e.I], halfEdge{w: &e.W, other: int32(e.J), col: true})
		m.adj[e.J] = append(m.adj[e.J], halfEdge{w: &e.W, other: int32(e.I)})
	}
}

// resize returns s re-sliced to length n, allocating only when its
// capacity is short. Contents are not cleared.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
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
	// Draw every sample first, in sample order, into position-major
	// residue columns: idx[i*k+s] is sample s's residue index at i. The
	// last sample stays in full as the anneal start below.
	n := m.Len()
	idx := make([]uint8, n*k)
	full := st.FullSequence()
	for s := 0; s < k; s++ {
		for i := 0; i < m.RecLen; i++ {
			full[i] = protein.Alphabet[rng.Intn(protein.NumAA)]
		}
		for i, aa := range full {
			idx[i*k+s] = uint8(protein.Index(aa))
		}
	}
	// Energies term by term across all samples: each table is loaded once,
	// and each sample still adds its field terms and then its edge terms in
	// Energies' order, so the sums are bit-identical to calling it per
	// sample.
	totals := make([]float64, k)
	inters := make([]float64, k)
	for i := range m.Fields {
		f := &m.Fields[i]
		for s, a := range idx[i*k : (i+1)*k] {
			totals[s] += f[a]
		}
	}
	for j := range m.Edges {
		e := &m.Edges[j]
		as, bs := idx[e.I*k:(e.I+1)*k], idx[e.J*k:(e.J+1)*k]
		for s, a := range as {
			w := e.W[a][bs[s]]
			totals[s] += w
			if e.Interchain {
				inters[s] += w
			}
		}
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
	// kernel; every half-edge contributes one 20-float row or column.
	o := (*[protein.NumAA]float64)(out)
	*o = m.Fields[pos]
	for _, he := range m.adj[pos] {
		b := protein.Index(full[he.other])
		if he.col {
			for a := range o {
				o[a] += he.w[a][b]
			}
			continue
		}
		row := &he.w[b]
		for a := range o {
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
// refer to the true landscape's scale. The surrogate is written into a
// buffer from the process-wide free list when one is waiting there (see
// Recycle).
func (m *Model) Corrupt(level float64, seed uint64) *Model {
	surrogates.Lock()
	var reuse *Model
	if n := len(surrogates.free); n > 0 {
		reuse = surrogates.free[n-1]
		surrogates.free[n-1] = nil
		surrogates.free = surrogates.free[:n-1]
	}
	surrogates.Unlock()
	return m.CorruptInto(reuse, level, seed)
}

// surrogates is the process-wide free list of retired surrogate buffers,
// shared by every target: Corrupt pops one, Recycle pushes one back. It
// deliberately holds strong references — a sync.Pool would be drained by
// exactly the GC pressure the list exists to remove. Buffers only grow
// (see CorruptInto), so the list settles at one buffer per concurrent
// Corrupt caller, each sized for the largest target it has held.
var surrogates struct {
	sync.Mutex
	free []*Model
}

// Recycle returns a surrogate produced by Corrupt to the process-wide free
// list, for reuse by the next Corrupt call on any target. The caller must
// own c exclusively and stop using it afterwards; the next corruption
// rewrites it in place. Recycling keeps design stages — which corrupt a
// multi-MB model per call — off the allocator. Recycling the receiver, or
// a surrogate already on the list, is a no-op.
func (m *Model) Recycle(c *Model) {
	if c == nil || c == m {
		return
	}
	surrogates.Lock()
	defer surrogates.Unlock()
	if !slices.Contains(surrogates.free, c) {
		surrogates.free = append(surrogates.free, c)
	}
}

// CorruptInto is Corrupt writing into a previous surrogate's memory. Any
// earlier surrogate qualifies, whichever target it was built for: its
// field, edge and adjacency arrays are re-sliced to this target's lengths
// wherever their capacity suffices, and only a short array is replaced,
// by one of exactly the needed length. Capacity therefore only grows.
// Every cell is rewritten from the truth model and the seed's noise
// stream, so the result is bit-identical to a fresh corruption; only the
// allocator traffic differs. A nil reuse allocates a fresh surrogate.
func (m *Model) CorruptInto(reuse *Model, level float64, seed uint64) *Model {
	if level < 0 {
		panic("landscape: negative corruption level")
	}
	c := reuse
	if c == nil {
		c = new(Model)
	}
	// The adjacency survives only a buffer that last held this topology;
	// the edge loop below checks the endpoints.
	sameTopology := c.adj != nil && len(c.Fields) == len(m.Fields) && len(c.Edges) == len(m.Edges)
	c.Fields = resize(c.Fields, len(m.Fields))
	c.Edges = resize(c.Edges, len(m.Edges))
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
				dstRow[b] = w + rng.Ziggurat()*std
			}
		}
	}
	// A reused model with unchanged topology keeps its adjacency lists:
	// the half-edge table pointers aim into c.Edges, whose backing array
	// was recycled, and the tables behind them were just rewritten.
	if !sameTopology {
		c.buildAdjacency()
	}
	return c
}
