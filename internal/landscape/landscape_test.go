package landscape

import (
	"math"
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
		wantTotal += m.Fields[i][protein.Index(full[i])]
	}
	for k := range m.Edges {
		e := &m.Edges[k]
		w := e.W[protein.Index(full[e.I])][protein.Index(full[e.J])]
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
		ea := m.Energy(full.WithMutation(pos, a))
		eb := m.Energy(full.WithMutation(pos, b))
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
	if !full.Equal(st.FullSequence()) {
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
	if !a.Equal(b) {
		t.Fatal("same seed gives different samples")
	}
	c := m.Sample(full, SampleOptions{Sweeps: 3, Temperature: 0.8, Seed: 43})
	if a.Equal(c) {
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
		distHot += hot.HammingDistance(ref)
		distCold += cold.HammingDistance(refCold)
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
			fields.noise = append(fields.noise, (c.Fields[i][a]-m.Fields[i][a])/(fields.std*level))
			fields.truth = append(fields.truth, m.Fields[i][a]/fields.std)
		}
	}
	for k := range m.Edges {
		tb := intra
		if m.Edges[k].Interchain {
			tb = inter
		}
		for a := 0; a < protein.NumAA; a++ {
			for b := 0; b < protein.NumAA; b++ {
				w := m.Edges[k].W[a][b]
				tb.noise = append(tb.noise, (c.Edges[k].W[a][b]-w)/(tb.std*level))
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

// TestTransposeMatchesW pins wt = Wᵀ bit for bit on every edge of a fresh
// model, a fresh corruption, and a corruption recycled into an earlier
// surrogate's memory.
func TestTransposeMatchesW(t *testing.T) {
	m, _ := testModel(22)
	check := func(name string, x *Model) {
		for k := range x.Edges {
			e := &x.Edges[k]
			for a := 0; a < protein.NumAA; a++ {
				for b := 0; b < protein.NumAA; b++ {
					if math.Float64bits(e.wt[b][a]) != math.Float64bits(e.W[a][b]) {
						t.Fatalf("%s: edge %d wt[%d][%d] = %v, W[%d][%d] = %v", name, k, b, a, e.wt[b][a], a, b, e.W[a][b])
					}
				}
			}
		}
	}
	check("New", m)
	fresh := m.Corrupt(0.6, 3)
	check("fresh CorruptInto", fresh)
	m.Recycle(fresh)
	recycled := m.Corrupt(0.9, 4)
	if recycled != fresh {
		t.Fatal("Corrupt did not reuse the recycled surrogate")
	}
	check("recycled CorruptInto", recycled)
	if want := m.CorruptInto(nil, 0.9, 4); want.Edges[0].W != recycled.Edges[0].W || want.Fields[0] != recycled.Fields[0] {
		t.Fatal("recycled corruption differs from a fresh one at the same seed")
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
		total += m.Degree(pos)
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

func BenchmarkSampleSweep(b *testing.B) {
	m, st := testModel(1)
	full := st.FullSequence()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Sample(full, SampleOptions{Sweeps: 1, Temperature: 1, Seed: uint64(i)})
	}
}

func BenchmarkModelConstruction(b *testing.B) {
	st := testStructure(1, 90, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = New(st, 1, DefaultConfig())
	}
}

func BenchmarkCorrupt(b *testing.B) {
	m := New(testStructure(1, 90, 10), 1, DefaultConfig())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Recycle(m.Corrupt(0.5, uint64(i)))
	}
}
