package landscape

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"impress/internal/protein"
	"impress/internal/stats"
	"impress/internal/xrand"
)

func testStructure(seed uint64, recLen, pepLen int) *protein.Structure {
	cfg := protein.DefaultBackboneConfig(recLen, pepLen)
	rec, pep := protein.Backbone(seed, cfg)
	rng := xrand.New(xrand.Derive(seed, "testseq"))
	st := &protein.Structure{
		Name:     "T",
		Receptor: protein.Chain{ID: "A", Seq: protein.RandomSequence(rng, recLen)},
		RecXYZ:   rec,
		PepXYZ:   pep,
	}
	if pepLen > 0 {
		st.Peptide = protein.Chain{ID: "B", Seq: protein.RandomSequence(rng, pepLen)}
	}
	return st
}

func testModel(seed uint64) (*Model, *protein.Structure) {
	st := testStructure(seed, 60, 8)
	return New(st, seed, DefaultConfig()), st
}

func TestModelDeterminism(t *testing.T) {
	st := testStructure(10, 60, 8)
	m1 := New(st, 10, DefaultConfig())
	m2 := New(st, 10, DefaultConfig())
	full := st.FullSequence()
	if m1.Energy(full) != m2.Energy(full) {
		t.Fatal("model not deterministic")
	}
	m3 := New(st, 11, DefaultConfig())
	if m1.Energy(full) == m3.Energy(full) {
		t.Fatal("different seeds give identical energy (suspicious)")
	}
}

func TestEnergiesDecompose(t *testing.T) {
	m, st := testModel(1)
	full := st.FullSequence()
	total, inter := m.Energies(full)
	if math.IsNaN(total) || math.IsNaN(inter) {
		t.Fatal("NaN energy")
	}
	// Recompute by explicit summation.
	var wantTotal, wantInter float64
	for i := range full {
		wantTotal += float64(m.Fields[i][protein.Index(full[i])])
	}
	for k := range m.Edges {
		e := &m.Edges[k]
		w := float64(e.W[protein.Index(full[e.I])][protein.Index(full[e.J])])
		wantTotal += w
		if e.Interchain {
			wantInter += w
		}
	}
	if math.Abs(total-wantTotal) > 1e-9 || math.Abs(inter-wantInter) > 1e-9 {
		t.Fatalf("Energies = (%v, %v), want (%v, %v)", total, inter, wantTotal, wantInter)
	}
}

func TestEnergyLengthMismatchPanics(t *testing.T) {
	m, st := testModel(2)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on receptor-only sequence")
		}
	}()
	m.Energy(st.Receptor.Seq)
}

func TestConditionalEnergiesMatchFullEnergy(t *testing.T) {
	// E(seq with a at pos) - E(seq with b at pos) must equal
	// cond[a] - cond[b] for every position.
	m, st := testModel(3)
	full := st.FullSequence()
	cond := make([]float64, protein.NumAA)
	rng := xrand.New(17)
	for trial := 0; trial < 20; trial++ {
		pos := rng.Intn(m.RecLen)
		m.ConditionalEnergies(full, pos, cond)
		a := protein.Alphabet[rng.Intn(protein.NumAA)]
		b := protein.Alphabet[rng.Intn(protein.NumAA)]
		ea := m.Energy(mutate(full, pos, a))
		eb := m.Energy(mutate(full, pos, b))
		want := cond[protein.Index(a)] - cond[protein.Index(b)]
		if math.Abs((ea-eb)-want) > 1e-9 {
			t.Fatalf("conditional mismatch at pos %d: full Δ=%v cond Δ=%v", pos, ea-eb, want)
		}
	}
}

func TestCalibrationSane(t *testing.T) {
	m, _ := testModel(4)
	if m.EnergyStd <= 0 || m.InterStd <= 0 {
		t.Fatalf("non-positive calibration std: %v %v", m.EnergyStd, m.InterStd)
	}
	// A random sequence should have z near 0.
	st := testStructure(4, 60, 8)
	rng := xrand.New(999)
	var zs []float64
	for i := 0; i < 50; i++ {
		full := st.FullSequence()
		for j := 0; j < m.RecLen; j++ {
			full[j] = protein.Alphabet[rng.Intn(protein.NumAA)]
		}
		z, _ := m.ZScores(m.Energies(full))
		zs = append(zs, z)
	}
	if mean := stats.Mean(zs); math.Abs(mean) > 0.5 {
		t.Fatalf("random sequences have mean z = %v, want ~0", mean)
	}
}

func TestSampleImprovesEnergy(t *testing.T) {
	m, st := testModel(5)
	full := st.FullSequence()
	e0 := m.Energy(full)
	sampled := m.Sample(full, SampleOptions{Sweeps: 5, Temperature: 0.4, Seed: 7})
	e1 := m.Energy(sampled)
	if e1 >= e0 {
		t.Fatalf("Gibbs sampling at low temperature did not improve energy: %v -> %v", e0, e1)
	}
	// Peptide must be untouched.
	for i := m.RecLen; i < m.Len(); i++ {
		if sampled[i] != full[i] {
			t.Fatal("sampling modified peptide position")
		}
	}
	// Input not modified.
	if !bytes.Equal(full, st.FullSequence()) {
		t.Fatal("Sample modified its input")
	}
}

func TestSampleRespectsFixedMask(t *testing.T) {
	m, st := testModel(6)
	full := st.FullSequence()
	fixed := make([]bool, m.Len())
	fixedPositions := []int{0, 5, 10, 15}
	for _, p := range fixedPositions {
		fixed[p] = true
	}
	sampled := m.Sample(full, SampleOptions{Sweeps: 8, Temperature: 1.0, Fixed: fixed, Seed: 3})
	for _, p := range fixedPositions {
		if sampled[p] != full[p] {
			t.Fatalf("fixed position %d changed", p)
		}
	}
}

func TestSampleDeterministicPerSeed(t *testing.T) {
	m, st := testModel(7)
	full := st.FullSequence()
	a := m.Sample(full, SampleOptions{Sweeps: 3, Temperature: 0.8, Seed: 42})
	b := m.Sample(full, SampleOptions{Sweeps: 3, Temperature: 0.8, Seed: 42})
	if !bytes.Equal(a, b) {
		t.Fatal("same seed gives different samples")
	}
	c := m.Sample(full, SampleOptions{Sweeps: 3, Temperature: 0.8, Seed: 43})
	if bytes.Equal(a, c) {
		t.Fatal("different seeds give identical samples (suspicious)")
	}
}

func TestTemperatureControlsDiversity(t *testing.T) {
	m, st := testModel(8)
	full := st.FullSequence()
	distHot, distCold := 0, 0
	for i := 0; i < 10; i++ {
		hot := m.Sample(full, SampleOptions{Sweeps: 2, Temperature: 5.0, Seed: uint64(i)})
		cold := m.Sample(full, SampleOptions{Sweeps: 2, Temperature: 0.1, Seed: uint64(i)})
		ref := m.Sample(full, SampleOptions{Sweeps: 2, Temperature: 5.0, Seed: uint64(i + 100)})
		refCold := m.Sample(full, SampleOptions{Sweeps: 2, Temperature: 0.1, Seed: uint64(i + 100)})
		distHot += hamming(hot, ref)
		distCold += hamming(cold, refCold)
	}
	if distCold >= distHot {
		t.Fatalf("cold sampling (%d) not less diverse than hot (%d)", distCold, distHot)
	}
}

func TestLogLikelihoodTracksEnergy(t *testing.T) {
	// Across many sequences, higher log-likelihood should mean lower
	// energy (strong negative rank correlation).
	m, st := testModel(9)
	full := st.FullSequence()
	var lls, energies []float64
	for i := 0; i < 40; i++ {
		s := m.Sample(full, SampleOptions{Sweeps: 2, Temperature: 2.0, Seed: uint64(i)})
		lls = append(lls, m.LogLikelihood(s, 1.0))
		energies = append(energies, m.Energy(s))
	}
	rho := stats.Spearman(lls, energies)
	if rho > -0.8 {
		t.Fatalf("loglik/energy Spearman = %v, want strongly negative", rho)
	}
}

func TestAnnealReachesGoodDesigns(t *testing.T) {
	m, st := testModel(11)
	full := st.FullSequence()
	annealed := m.Anneal(full, 30, 2.0, 0.2, 5)
	z, _ := m.ZScores(m.Energies(annealed))
	if z < 1.5 {
		t.Fatalf("annealing only reached z = %v", z)
	}
}

func TestCorruptionDegradesAgreement(t *testing.T) {
	// As corruption grows, the corrupted model's energy ranking should
	// decorrelate from the true one.
	m, st := testModel(12)
	full := st.FullSequence()
	var seqs []protein.Sequence
	for i := 0; i < 60; i++ {
		seqs = append(seqs, m.Sample(full, SampleOptions{Sweeps: 1, Temperature: 3.0, Seed: uint64(i)}))
	}
	trueE := make([]float64, len(seqs))
	for i, s := range seqs {
		trueE[i] = m.Energy(s)
	}
	rhoAt := func(level float64) float64 {
		c := m.Corrupt(level, 77)
		ce := make([]float64, len(seqs))
		for i, s := range seqs {
			ce[i] = c.Energy(s)
		}
		return stats.Spearman(trueE, ce)
	}
	rho0 := rhoAt(0)
	rhoMid := rhoAt(0.8)
	rhoHigh := rhoAt(4.0)
	if rho0 < 0.999 {
		t.Fatalf("zero corruption should agree perfectly, rho = %v", rho0)
	}
	if !(rhoMid > rhoHigh) {
		t.Fatalf("corruption ordering violated: mid %v high %v", rhoMid, rhoHigh)
	}
	if rhoMid < 0.3 {
		t.Fatalf("moderate corruption destroyed all signal: %v", rhoMid)
	}
}

func TestCorruptKeepsCalibrationAndTopology(t *testing.T) {
	m, _ := testModel(13)
	c := m.Corrupt(0.5, 9)
	if c.EnergyMean != m.EnergyMean || c.EnergyStd != m.EnergyStd {
		t.Fatal("corruption changed calibration")
	}
	if len(c.Edges) != len(m.Edges) {
		t.Fatal("corruption changed edge count")
	}
	for k := range c.Edges {
		if c.Edges[k].I != m.Edges[k].I || c.Edges[k].J != m.Edges[k].J {
			t.Fatal("corruption changed topology")
		}
	}
}

// TestCorruptNoiseMoments checks the surrogate noise table by table:
// (Corrupt(level) − truth)/(std·level) has mean ≈ 0 and variance ≈ 1 over
// the field table, the intra-chain edges and the inter-chain edges, each
// with its own configured std. The truth tables themselves, divided by
// their std, must be standard normal too. Tolerances are four standard
// errors of the sample mean and variance.
func TestCorruptNoiseMoments(t *testing.T) {
	st := testStructure(21, 120, 12)
	cfg := DefaultConfig()
	m := New(st, 21, cfg)
	const level = 0.7
	c := m.Corrupt(level, 5)
	type table struct {
		name         string
		std          float64
		noise, truth []float64
	}
	fields := &table{name: "fields", std: cfg.FieldStd}
	intra := &table{name: "intra-chain edges", std: cfg.CouplingStd}
	inter := &table{name: "inter-chain edges", std: cfg.InterCouplingStd}
	for i := range m.Fields {
		for a := range m.Fields[i] {
			f := float64(m.Fields[i][a])
			fields.noise = append(fields.noise, (float64(c.Fields[i][a])-f)/(fields.std*level))
			fields.truth = append(fields.truth, f/fields.std)
		}
	}
	for k := range m.Edges {
		tb := intra
		if m.Edges[k].Interchain {
			tb = inter
		}
		for a := 0; a < protein.NumAA; a++ {
			for b := 0; b < protein.NumAA; b++ {
				w := float64(m.Edges[k].W[a][b])
				tb.noise = append(tb.noise, (float64(c.Edges[k].W[a][b])-w)/(tb.std*level))
				tb.truth = append(tb.truth, w/tb.std)
			}
		}
	}
	check := func(name string, xs []float64) {
		n := float64(len(xs))
		if n < 1000 {
			t.Fatalf("%s: only %d cells; the test structure is too small", name, len(xs))
		}
		mean, variance := stats.Mean(xs), stats.Variance(xs)
		if tol := 4 / math.Sqrt(n); math.Abs(mean) > tol {
			t.Errorf("%s: mean %.4f over %d cells, want 0 ± %.4f", name, mean, len(xs), tol)
		}
		if tol := 4 * math.Sqrt(2/n); math.Abs(variance-1) > tol {
			t.Errorf("%s: variance %.4f over %d cells, want 1 ± %.4f", name, variance, len(xs), tol)
		}
	}
	for _, tb := range []*table{fields, intra, inter} {
		check("noise on "+tb.name, tb.noise)
		check("truth "+tb.name, tb.truth)
	}
}

// refConditional is ConditionalEnergies computed straight from the edge
// list in float64: each edge touching pos adds the column W[·][s_J] when
// pos is its I end and the row W[s_I][·] when pos is its J end, in edge
// order, each float32 cell widened before it is added.
func refConditional(m *Model, full protein.Sequence, pos int) [protein.NumAA]float64 {
	var out [protein.NumAA]float64
	for a, f := range &m.Fields[pos] {
		out[a] = float64(f)
	}
	for k := range m.Edges {
		e := &m.Edges[k]
		switch pos {
		case e.I:
			b := protein.Index(full[e.J])
			for a := range out {
				out[a] += float64(e.W[a][b])
			}
		case e.J:
			row := &e.W[protein.Index(full[e.I])]
			for a := range out {
				out[a] += float64(row[a])
			}
		}
	}
	return out
}

// sameBits reports whether a and b hold the same bits, element by
// element. Widening a float32 to float64 is exact, so distinct float32
// bits stay distinct.
func sameBits[T float32 | float64](a, b []T) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(float64(a[i])) != math.Float64bits(float64(b[i])) {
			return false
		}
	}
	return true
}

// shapedTruths returns three truth models of different sizes: the
// standard test target plus a bigger and a smaller one.
func shapedTruths() (m, big, small *Model) {
	m, _ = testModel(22)
	big = New(testStructure(23, 90, 10), 23, DefaultConfig())
	small = New(testStructure(24, 40, 6), 24, DefaultConfig())
	return m, big, small
}

// recycledSurrogates returns corruptions of m written into buffers whose
// previous contents were a surrogate of m itself (through the free list),
// of a bigger target, of a smaller one and of one of the same size, keyed
// by that history.
func recycledSurrogates(t *testing.T, m, big, small *Model, level float64, seed uint64) map[string]*Model {
	t.Helper()
	out := make(map[string]*Model)
	prev := m.Corrupt(0.3, 1)
	m.Recycle(prev)
	if out["same target"] = m.Corrupt(level, seed); out["same target"] != prev {
		t.Fatal("Corrupt did not reuse the recycled surrogate")
	}
	bigBuf := big.CorruptInto(nil, 0.3, 2)
	bigEdges := &bigBuf.Edges[0]
	if out["bigger target"] = m.CorruptInto(bigBuf, level, seed); &out["bigger target"].Edges[0] != bigEdges {
		t.Fatal("CorruptInto reallocated the edges of a buffer with room to spare")
	}
	out["smaller target"] = m.CorruptInto(small.CorruptInto(nil, 0.3, 3), level, seed)
	// A target of exactly m's size whose edges come in reverse order: the
	// lengths match, so only the endpoint check can catch the stale
	// adjacency.
	out["same-size target"] = m.CorruptInto(reversedTwin(m).CorruptInto(nil, 0.3, 4), level, seed)
	return out
}

// reversedTwin returns a model with m's fields and copies of its edges in
// reverse order. Each position then lists its column views before its row
// views, the opposite of every model New builds.
func reversedTwin(m *Model) *Model {
	twin := &Model{Name: "twin", RecLen: m.RecLen, PepLen: m.PepLen, Fields: m.Fields, Edges: slices.Clone(m.Edges), cfg: m.cfg}
	slices.Reverse(twin.Edges)
	twin.buildAdjacency()
	return twin
}

// kernelGroups returns the kinds of half-edge group ConditionalEnergies
// adds for one position's adjacency list: runs of four of one
// orientation, pairs named by their two orientations, and an odd tail.
func kernelGroups(l []halfEdge) []string {
	side := map[bool]string{false: "row", true: "column"}
	var kinds []string
	for len(l) >= 2 {
		if len(l) >= 4 && l[0].col == l[1].col && l[1].col == l[2].col && l[2].col == l[3].col {
			kinds = append(kinds, side[l[0].col]+" quad")
			l = l[4:]
			continue
		}
		kinds = append(kinds, side[l[0].col]+"–"+side[l[1].col]+" pair")
		l = l[2:]
	}
	if len(l) == 1 {
		kinds = append(kinds, "odd tail")
	}
	return kinds
}

// TestConditionalEnergiesMatchReference pins the Gibbs kernel's column
// and row reads bit for bit against refConditional, on every position of
// a fresh model, of surrogates written into recycled buffers and of a
// model whose edges come in reverse order. The kernel adds half-edges in
// runs of four of one orientation, else in pairs, so New's model and its
// reversed twin must between them take a row quad, a column quad, every
// combination of row and column views in a pair — New's own models
// straddle the row→column boundary — and a trailing single half-edge.
func TestConditionalEnergiesMatchReference(t *testing.T) {
	m, big, small := shapedTruths()
	models := recycledSurrogates(t, m, big, small, 0.7, 5)
	models["New"] = m
	models["fresh surrogate"] = m.CorruptInto(nil, 0.7, 5)
	models["reversed edges"] = reversedTwin(m)
	taken := make(map[string]map[string]bool)
	for _, name := range []string{"New", "reversed edges"} {
		taken[name] = make(map[string]bool)
		for _, l := range models[name].adj {
			for _, kind := range kernelGroups(l) {
				taken[name][kind] = true
			}
		}
	}
	if !taken["New"]["row–column pair"] {
		t.Fatal("no position of New's model pairs a row view with a column view")
	}
	for _, kind := range []string{"row quad", "column quad", "row–row pair", "row–column pair", "column–row pair", "column–column pair", "odd tail"} {
		if !taken["New"][kind] && !taken["reversed edges"][kind] {
			t.Fatalf("no position of New's model or its reversed twin takes a %s", kind)
		}
	}
	rng := xrand.New(31)
	seqs := []protein.Sequence{testStructure(22, 60, 8).FullSequence()}
	for i := 0; i < 3; i++ {
		s := seqs[0].Clone()
		for pos := 0; pos < m.RecLen; pos++ {
			s[pos] = protein.Alphabet[rng.Intn(protein.NumAA)]
		}
		seqs = append(seqs, s)
	}
	got := make([]float64, protein.NumAA)
	for name, x := range models {
		for _, full := range seqs {
			for pos := 0; pos < x.Len(); pos++ {
				x.ConditionalEnergies(full, pos, got)
				if want := refConditional(x, full, pos); !sameBits(got, want[:]) {
					t.Fatalf("%s: position %d: kernel %v, reference %v", name, pos, got, want)
				}
			}
		}
	}
}

// TestCorruptIntoMatchesFresh: a corruption written into any recycled
// buffer equals a freshly allocated one bit for bit — fields, every
// coupling table, calibration — and its adjacency lists are exactly the
// ones its own edges induce, whichever target last used the buffer.
func TestCorruptIntoMatchesFresh(t *testing.T) {
	m, big, small := shapedTruths()
	want := m.CorruptInto(nil, 0.9, 4)
	for name, got := range recycledSurrogates(t, m, big, small, 0.9, 4) {
		if got.Name != want.Name || got.RecLen != want.RecLen || got.PepLen != want.PepLen ||
			got.seed != want.seed || got.cfg != want.cfg ||
			got.EnergyMean != want.EnergyMean || got.EnergyStd != want.EnergyStd ||
			got.InterMean != want.InterMean || got.InterStd != want.InterStd ||
			got.EnergyOpt != want.EnergyOpt || got.InterOpt != want.InterOpt {
			t.Fatalf("%s: header differs from a fresh corruption", name)
		}
		if len(got.Fields) != len(want.Fields) || len(got.Edges) != len(want.Edges) {
			t.Fatalf("%s: %d fields, %d edges; want %d, %d", name, len(got.Fields), len(got.Edges), len(want.Fields), len(want.Edges))
		}
		for i := range want.Fields {
			if !sameBits(got.Fields[i][:], want.Fields[i][:]) {
				t.Fatalf("%s: field %d differs", name, i)
			}
		}
		for k := range want.Edges {
			g, w := &got.Edges[k], &want.Edges[k]
			if g.I != w.I || g.J != w.J || g.Interchain != w.Interchain {
				t.Fatalf("%s: edge %d endpoints differ", name, k)
			}
			for a := range w.W {
				if !sameBits(g.W[a][:], w.W[a][:]) {
					t.Fatalf("%s: edge %d row %d differs", name, k, a)
				}
			}
		}
		// Reference adjacency: each edge in order, column view at I and
		// row view at J, pointing into got's own tables.
		ref := make([][]halfEdge, got.Len())
		for k := range got.Edges {
			e := &got.Edges[k]
			ref[e.I] = append(ref[e.I], halfEdge{w: &e.W, other: int32(e.J), col: true})
			ref[e.J] = append(ref[e.J], halfEdge{w: &e.W, other: int32(e.I)})
		}
		if len(got.adj) != len(ref) {
			t.Fatalf("%s: %d adjacency lists, want %d", name, len(got.adj), len(ref))
		}
		for pos := range ref {
			if !slices.Equal(got.adj[pos], ref[pos]) {
				t.Fatalf("%s: adjacency of position %d differs from its edges", name, pos)
			}
			if cap(got.adj[pos]) != len(got.adj[pos]) {
				t.Fatalf("%s: adjacency of position %d has spare capacity", name, pos)
			}
		}
	}
}

// sameTables fails t unless got's fields and coupling tables equal
// fields and ws bit for bit.
func sameTables(t *testing.T, name string, got *Model, fields [][protein.NumAA]float32, ws [][protein.NumAA][protein.NumAA]float32) {
	t.Helper()
	if len(got.Fields) != len(fields) || len(got.Edges) != len(ws) {
		t.Fatalf("%s: %d fields, %d edges; reference has %d, %d", name, len(got.Fields), len(got.Edges), len(fields), len(ws))
	}
	for i := range fields {
		if !sameBits(got.Fields[i][:], fields[i][:]) {
			t.Fatalf("%s: field %d differs from the per-draw reference", name, i)
		}
	}
	for k := range ws {
		for a := range ws[k] {
			if !sameBits(got.Edges[k].W[a][:], ws[k][a][:]) {
				t.Fatalf("%s: edge %d row %d differs from the per-draw reference", name, k, a)
			}
		}
	}
}

// TestNewMatchesPerDrawReference: New's row fills give the fields and
// coupling tables that one Ziggurat call per cell gives, bit for bit:
// z*std in float64, rounded once to float32.
func TestNewMatchesPerDrawReference(t *testing.T) {
	for _, st := range []*protein.Structure{testStructure(27, 70, 9), testStructure(28, 50, 0)} {
		cfg := DefaultConfig()
		rng := xrand.New(xrand.Derive(27, "landscape:"+st.Name))
		fields := make([][protein.NumAA]float32, st.Len())
		for i := range fields {
			for a := range fields[i] {
				fields[i][a] = float32(rng.Ziggurat() * cfg.FieldStd)
			}
		}
		contacts := st.Contacts(cfg.ContactCutoff)
		ws := make([][protein.NumAA][protein.NumAA]float32, len(contacts))
		for k, c := range contacts {
			std := cfg.CouplingStd
			if c.Interchain {
				std = cfg.InterCouplingStd
			}
			for a := range ws[k] {
				for b := range ws[k][a] {
					ws[k][a][b] = float32(rng.Ziggurat() * std)
				}
			}
		}
		sameTables(t, fmt.Sprintf("PepLen %d", len(st.Peptide.Seq)), New(st, 27, cfg), fields, ws)
	}
}

// TestCorruptMatchesPerDrawReference: CorruptInto's row fills add the
// noise that one Ziggurat call per cell adds, bit for bit, into a fresh
// buffer and into a recycled one: truth + z*std in float64, rounded once
// to float32.
func TestCorruptMatchesPerDrawReference(t *testing.T) {
	m, _ := testModel(29)
	for _, level := range []float64{0, 0.35, 1.2} {
		const seed = 9
		rng := xrand.New(xrand.Derive(seed, "corrupt:"+m.Name))
		fStd := m.cfg.FieldStd * level
		fields := make([][protein.NumAA]float32, len(m.Fields))
		for i := range fields {
			for a, f := range &m.Fields[i] {
				fields[i][a] = float32(float64(f) + rng.Ziggurat()*fStd)
			}
		}
		ws := make([][protein.NumAA][protein.NumAA]float32, len(m.Edges))
		for k := range m.Edges {
			e := &m.Edges[k]
			std := m.cfg.CouplingStd * level
			if e.Interchain {
				std = m.cfg.InterCouplingStd * level
			}
			for a := range e.W {
				for b, w := range &e.W[a] {
					ws[k][a][b] = float32(float64(w) + rng.Ziggurat()*std)
				}
			}
		}
		sameTables(t, fmt.Sprintf("level %v, fresh", level), m.CorruptInto(nil, level, seed), fields, ws)
		sameTables(t, fmt.Sprintf("level %v, recycled", level), m.CorruptInto(m.CorruptInto(nil, 0.5, 1), level, seed), fields, ws)
	}
}

// TestRejectsNonFinite: New refuses a NaN or infinite contact cutoff and
// CorruptInto a NaN or infinite corruption level, values an ordered
// comparison alone lets through.
func TestRejectsNonFinite(t *testing.T) {
	m, st := testModel(30)
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		cfg := DefaultConfig()
		cfg.ContactCutoff = v
		if !panics(func() { New(st, 30, cfg) }) {
			t.Errorf("New accepted ContactCutoff = %v", v)
		}
		if !panics(func() { m.CorruptInto(nil, v, 1) }) {
			t.Errorf("CorruptInto accepted level = %v", v)
		}
	}
}

func panics(f func()) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	f()
	return false
}

// TestCalibrationMatchesPerSampleEnergies: the edge-major calibration
// equals the per-sample loop it replaced — one Energies call per random
// sequence, the last one seeding the anneals — bit for bit, on a complex
// and on a monomer.
func TestCalibrationMatchesPerSampleEnergies(t *testing.T) {
	for _, st := range []*protein.Structure{testStructure(25, 70, 9), testStructure(26, 50, 0)} {
		m := New(st, 25, DefaultConfig())
		rng := xrand.New(xrand.Derive(m.seed, "calibrate:"+m.Name))
		k := m.cfg.CalibrationSamples
		totals := make([]float64, k)
		inters := make([]float64, k)
		full := st.FullSequence()
		for s := 0; s < k; s++ {
			for i := 0; i < m.RecLen; i++ {
				full[i] = protein.Alphabet[rng.Intn(protein.NumAA)]
			}
			totals[s], inters[s] = m.Energies(full)
		}
		eMean, eStd := meanStd(totals)
		iMean, iStd := meanStd(inters)
		if eStd < 1e-9 {
			eStd = 1
		}
		if iStd < 1e-9 {
			iStd = 1
		}
		eOpt, iOpt := eMean, iMean
		optSeed := xrand.Derive(m.seed, "calibrate-opt:"+m.Name)
		for r := uint64(0); r < 2; r++ {
			e, ei := m.Energies(m.Anneal(full, 28, 2.0, 0.15, xrand.DeriveN(optSeed, r)))
			if e < eOpt {
				eOpt, iOpt = e, ei
			}
		}
		got := []float64{m.EnergyMean, m.EnergyStd, m.InterMean, m.InterStd, m.EnergyOpt, m.InterOpt}
		want := []float64{eMean, eStd, iMean, iStd, eOpt, iOpt}
		if !sameBits(got, want) {
			t.Fatalf("PepLen %d: calibration %v, per-sample reference %v", m.PepLen, got, want)
		}
	}
}

// TestCorruptRecycleAllocatesNothing guards the free list: once a buffer
// has grown to fit the largest of three differently shaped targets, a
// Corrupt+Recycle cycle on any of them allocates nothing.
func TestCorruptRecycleAllocatesNothing(t *testing.T) {
	m, big, small := shapedTruths()
	truths := []*Model{m, big, small}
	cycle := func() {
		for _, x := range truths {
			x.Recycle(x.Corrupt(0.5, 6))
		}
	}
	cycle()
	if avg := testing.AllocsPerRun(5, cycle); avg != 0 {
		t.Fatalf("steady-state Corrupt+Recycle across targets allocates %.1f objects per pass, want 0", avg)
	}
}

func TestMetricsRangesProperty(t *testing.T) {
	check := func(zRaw, ziRaw int16, isComplex bool) bool {
		z := float64(zRaw) / 1000
		zi := float64(ziRaw) / 1000
		met := MetricsFromZ(z, zi, isComplex)
		if met.PLDDT < 0 || met.PLDDT > 100 {
			return false
		}
		if met.PTM < 0 || met.PTM > 1 {
			return false
		}
		return met.IPAE > 0 && met.IPAE <= ipaeCeil+5
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestMetricsMonotoneInZ(t *testing.T) {
	prev := MetricsFromZ(-3, -3, true)
	for z := -2.5; z <= 4; z += 0.5 {
		cur := MetricsFromZ(z, z, true)
		if cur.PLDDT <= prev.PLDDT || cur.PTM <= prev.PTM || cur.IPAE >= prev.IPAE {
			t.Fatalf("metrics not monotone at z=%v: %+v vs %+v", z, cur, prev)
		}
		prev = cur
	}
}

func TestMetricsCalibrationAnchors(t *testing.T) {
	// Anchors on the normalized score scale: native designs sit near
	// s ≈ 0.4, a successful campaign ends near s ≈ 0.8.
	start := MetricsFromZ(0.4, 0.4, true)
	if start.PLDDT < 62 || start.PLDDT > 78 {
		t.Errorf("starting pLDDT = %v, want ~70", start.PLDDT)
	}
	if start.PTM < 0.3 || start.PTM > 0.6 {
		t.Errorf("starting pTM = %v, want ~0.45", start.PTM)
	}
	if start.IPAE < 13 || start.IPAE > 22 {
		t.Errorf("starting ipAE = %v, want ~17", start.IPAE)
	}
	good := MetricsFromZ(0.8, 0.8, true)
	if d := good.PLDDT - start.PLDDT; d < 4 || d > 20 {
		t.Errorf("pLDDT gain over campaign = %v, want 4..20", d)
	}
	if d := good.PTM - start.PTM; d < 0.15 || d > 0.45 {
		t.Errorf("pTM gain = %v, want 0.15..0.45", d)
	}
	if d := start.IPAE - good.IPAE; d < 3 || d > 12 {
		t.Errorf("ipAE drop = %v, want 3..12", d)
	}
}

func TestQualityOrdering(t *testing.T) {
	good := Metrics{PLDDT: 85, PTM: 0.8, IPAE: 8}
	bad := Metrics{PLDDT: 65, PTM: 0.4, IPAE: 20}
	if !good.BetterThan(bad) || bad.BetterThan(good) {
		t.Fatal("Quality ordering broken")
	}
}

func TestMonomerMetricsNeutralIPAE(t *testing.T) {
	met := MetricsFromZ(1, 99, false)
	if met.IPAE != (ipaeCeil+ipaeFloor)/2 {
		t.Fatalf("monomer ipAE = %v", met.IPAE)
	}
}

func TestClampMetrics(t *testing.T) {
	m := ClampMetrics(Metrics{PLDDT: 150, PTM: -0.5, IPAE: 100})
	if m.PLDDT != 100 || m.PTM != 0 || m.IPAE != ipaeCeil+5 {
		t.Fatalf("ClampMetrics = %+v", m)
	}
}

func TestTrueMetricsImproveUnderAnnealing(t *testing.T) {
	m, st := testModel(14)
	full := st.FullSequence()
	before := m.TrueMetrics(full)
	after := m.TrueMetrics(m.Anneal(full, 25, 2.0, 0.2, 8))
	if !after.BetterThan(before) {
		t.Fatalf("annealing did not improve metrics: %+v -> %+v", before, after)
	}
	if after.PLDDT <= before.PLDDT || after.PTM <= before.PTM {
		t.Fatalf("headline metrics did not improve: %+v -> %+v", before, after)
	}
}

func TestDegree(t *testing.T) {
	m, _ := testModel(15)
	total := 0
	for pos := 0; pos < m.Len(); pos++ {
		total += len(m.adj[pos])
	}
	if total != 2*len(m.Edges) {
		t.Fatalf("degree sum %d != 2×edges %d", total, 2*len(m.Edges))
	}
}

func BenchmarkEnergy(b *testing.B) {
	m, st := testModel(1)
	full := st.FullSequence()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Energy(full)
	}
}

// BenchmarkSampleSweep times one Gibbs sweep over the test model's
// receptor on each kernel path the CPU has.
func BenchmarkSampleSweep(b *testing.B) {
	m, st := testModel(1)
	full := st.FullSequence()
	for _, name := range xrand.Kernels() {
		b.Run(name, func(b *testing.B) {
			defer xrand.UseKernel(name)()
			for i := 0; i < b.N; i++ {
				_ = m.Sample(full, SampleOptions{Sweeps: 1, Temperature: 1, Seed: uint64(i)})
			}
		})
	}
}

// BenchmarkConditionalEnergies times one Gibbs-kernel call on a model of
// a mined screen target's size (receptor 82–105, peptide 4), cycling
// through every receptor position, on each kernel path the CPU has.
func BenchmarkConditionalEnergies(b *testing.B) {
	st := testStructure(1, 94, 4)
	m := New(st, 1, DefaultConfig())
	full := st.FullSequence()
	out := make([]float64, protein.NumAA)
	for _, name := range xrand.Kernels() {
		b.Run(name, func(b *testing.B) {
			defer xrand.UseKernel(name)()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m.ConditionalEnergies(full, i%m.RecLen, out)
			}
		})
	}
}

func BenchmarkModelConstruction(b *testing.B) {
	st := testStructure(1, 90, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = New(st, 1, DefaultConfig())
	}
}

// BenchmarkCorrupt times one surrogate corruption into a recycled buffer
// on each row-fill path the CPU has.
func BenchmarkCorrupt(b *testing.B) {
	m := New(testStructure(1, 90, 10), 1, DefaultConfig())
	for _, name := range xrand.Kernels() {
		b.Run(name, func(b *testing.B) {
			defer xrand.UseKernel(name)()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m.Recycle(m.Corrupt(0.5, uint64(i)))
			}
		})
	}
}

// Energy returns the total Potts energy of the full (receptor+peptide)
// sequence. Lower is better.
func (m *Model) Energy(full protein.Sequence) float64 {
	e, _ := m.Energies(full)
	return e
}

// ZScores converts raw energies to standardized quality scores: z > 0
// means better (lower energy) than a random sequence, in units of the
// random-ensemble standard deviation.
func (m *Model) ZScores(total, inter float64) (z, zInter float64) {
	return (m.EnergyMean - total) / m.EnergyStd, (m.InterMean - inter) / m.InterStd
}

// mutate returns a copy of s with position pos set to aa.
func mutate(s protein.Sequence, pos int, aa byte) protein.Sequence {
	c := s.Clone()
	c[pos] = aa
	return c
}

// hamming counts the positions where equal-length a and b differ.
func hamming(a, b protein.Sequence) int {
	d := 0
	for i := range a {
		if a[i] != b[i] {
			d++
		}
	}
	return d
}
