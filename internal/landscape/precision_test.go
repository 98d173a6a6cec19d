package landscape_test

import (
	"fmt"
	"math"
	"testing"
	"unsafe"

	"impress/internal/landscape"
	"impress/internal/protein"
	"impress/internal/workload"
	"impress/internal/xrand"
)

// TestTableFootprint fences the float32 storage: a silent revert of the
// fields or coupling tables to float64 doubles every target's memory.
func TestTableFootprint(t *testing.T) {
	if n := unsafe.Sizeof(landscape.Edge{}.W); n != 1600 {
		t.Errorf("a coupling table takes %d bytes, want 1600 (20×20 float32)", n)
	}
	if n := unsafe.Sizeof(landscape.Model{}.Fields[0]); n != 80 {
		t.Errorf("a field row takes %d bytes, want 80 (20 float32)", n)
	}
}

// ref64 is a model's landscape held in float64: the same ziggurat draws
// as landscape.New, in the same order, never rounded to float32.
type ref64 struct {
	recLen   int
	fields   [][protein.NumAA]float64
	contacts []protein.Contact
	ws       [][protein.NumAA][protein.NumAA]float64
}

func newRef64(st *protein.Structure, seed uint64, cfg landscape.Config) *ref64 {
	rng := xrand.New(xrand.Derive(seed, "landscape:"+st.Name))
	r := &ref64{
		recLen:   len(st.Receptor.Seq),
		fields:   make([][protein.NumAA]float64, st.Len()),
		contacts: st.Contacts(cfg.ContactCutoff),
	}
	for i := range r.fields {
		for a := range r.fields[i] {
			r.fields[i][a] = rng.Ziggurat() * cfg.FieldStd
		}
	}
	r.ws = make([][protein.NumAA][protein.NumAA]float64, len(r.contacts))
	for k, c := range r.contacts {
		std := cfg.CouplingStd
		if c.Interchain {
			std = cfg.InterCouplingStd
		}
		for a := range r.ws[k] {
			for b := range r.ws[k][a] {
				r.ws[k][a][b] = rng.Ziggurat() * std
			}
		}
	}
	return r
}

func (r *ref64) energies(full protein.Sequence) (total, inter float64) {
	for i, aa := range full {
		total += r.fields[i][protein.Index(aa)]
	}
	for k, c := range r.contacts {
		w := r.ws[k][protein.Index(full[c.I])][protein.Index(full[c.J])]
		total += w
		if c.Interchain {
			inter += w
		}
	}
	return total, inter
}

func (r *ref64) conditional(full protein.Sequence, pos int) [protein.NumAA]float64 {
	out := r.fields[pos]
	for k, c := range r.contacts {
		switch pos {
		case c.I:
			b := protein.Index(full[c.J])
			for a := range out {
				out[a] += r.ws[k][a][b]
			}
		case c.J:
			b := protein.Index(full[c.I])
			for a := range out {
				out[a] += r.ws[k][b][a]
			}
		}
	}
	return out
}

func (r *ref64) logLikelihood(full protein.Sequence, temp float64) float64 {
	var ll float64
	for pos := 0; pos < r.recLen; pos++ {
		cond := r.conditional(full, pos)
		minE := cond[0]
		for _, e := range cond[1:] {
			minE = min(minE, e)
		}
		var z float64
		for _, e := range cond {
			z += math.Exp(-(e - minE) / temp)
		}
		ll += -(cond[protein.Index(full[pos])]-minE)/temp - math.Log(z)
	}
	return ll / float64(r.recLen)
}

// TestFloat32TablesMatchFloat64Reference bounds what float32 storage
// costs: over several mined targets, and over each target's native
// design, random designs and Gibbs samples, Energies, ConditionalEnergies
// and LogLikelihood agree with a float64 copy of the same landscape
// within 1e-6 relative. The tolerance is taken against max(|want|, 1),
// since the landscape's unit is the field std and a sum that cancels to
// near zero has no relative digits to keep.
func TestFloat32TablesMatchFloat64Reference(t *testing.T) {
	const tol = 1e-6
	targets, err := workload.MinedScreen(3, 6, workload.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var worst float64
	check := func(what string, got, want float64) {
		t.Helper()
		rel := math.Abs(got-want) / max(math.Abs(want), 1)
		worst = max(worst, rel)
		if rel > tol {
			t.Errorf("%s = %v, float64 reference %v (relative error %.2g > %g)", what, got, want, rel, tol)
		}
	}
	rng := xrand.New(5)
	cond := make([]float64, protein.NumAA)
	for _, tg := range targets {
		m := tg.Truth
		ref := newRef64(tg.Structure, m.Seed(), landscape.DefaultConfig())
		native := tg.Structure.FullSequence()
		seqs := []protein.Sequence{native}
		for i := 0; i < 3; i++ {
			s := native.Clone()
			for pos := 0; pos < m.RecLen; pos++ {
				s[pos] = protein.Alphabet[rng.Intn(protein.NumAA)]
			}
			seqs = append(seqs, s, m.Sample(native, landscape.SampleOptions{Sweeps: 2, Temperature: 1.35, Seed: uint64(i)}))
		}
		for si, full := range seqs {
			name := fmt.Sprintf("%s sequence %d", tg.Name, si)
			total, inter := m.Energies(full)
			wantTotal, wantInter := ref.energies(full)
			check(name+" total energy", total, wantTotal)
			check(name+" inter-chain energy", inter, wantInter)
			for pos := 0; pos < m.Len(); pos++ {
				m.ConditionalEnergies(full, pos, cond)
				want := ref.conditional(full, pos)
				for a := range want {
					check(fmt.Sprintf("%s position %d residue %d conditional energy", name, pos, a), cond[a], want[a])
				}
			}
			for _, temp := range []float64{0.1, 1.35} {
				check(fmt.Sprintf("%s log-likelihood at T=%v", name, temp), m.LogLikelihood(full, temp), ref.logLikelihood(full, temp))
			}
		}
	}
	t.Logf("worst relative error %.2g over %d targets", worst, len(targets))
}
