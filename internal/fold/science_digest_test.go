package fold

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"slices"
	"testing"

	"impress/internal/landscape"
	"impress/internal/protein"
	"impress/internal/workload"
	"impress/internal/xrand"
)

// digest is a running sha256 over float64 bits and raw bytes.
type digest struct{ buf []byte }

func (d *digest) floats(xs ...float64) {
	for _, x := range xs {
		d.buf = binary.LittleEndian.AppendUint64(d.buf, math.Float64bits(x))
	}
}

func (d *digest) sum() string {
	s := sha256.Sum256(d.buf)
	return hex.EncodeToString(s[:])
}

// scienceDigests returns the digests of the design stage's outputs on
// the first mined screen target at seed: ConditionalEnergies at every
// position of the truth and of a surrogate, four Gibbs samples drawn
// from the surrogate, their LogLikelihood under it, and the truth's
// residueFits of each sample.
func scienceDigests(t *testing.T, seed uint64) (cond, samples, loglik, fits string) {
	t.Helper()
	targets, err := workload.MinedScreen(seed, 1, workload.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	truth := targets[0].Truth
	full := targets[0].Structure.FullSequence()
	surrogate := truth.CorruptInto(nil, 0.5, seed)
	var c, s, l, f digest
	out := make([]float64, protein.NumAA)
	for _, m := range []*landscape.Model{truth, surrogate} {
		for pos := 0; pos < m.Len(); pos++ {
			m.ConditionalEnergies(full, pos, out)
			c.floats(out...)
		}
	}
	p := newPredictor(t, truth, DefaultConfig(), seed)
	for k := uint64(0); k < 4; k++ {
		seq := surrogate.Sample(full, landscape.SampleOptions{Sweeps: 3, Temperature: 1.35, Seed: xrand.DeriveN(seed, k)})
		s.buf = append(s.buf, seq...)
		l.floats(surrogate.LogLikelihood(seq, 1.35))
		f.floats(p.residueFits(seq)...)
	}
	return c.sum(), s.sum(), l.sum(), f.sum()
}

// TestScienceDigests pins the Gibbs kernel's outputs and everything the
// design and fold stages derive from them on a mined screen target, on
// every kernel path the CPU has (xrand.Kernels), as /generic and
// /avx512 subtests: the conditional energies, the sampled sequences,
// their log-likelihoods and the per-residue fits. A change to one
// conditional energy's bits moves a digest. On a CPU without the
// AVX-512 kernels, /avx512 skips.
func TestScienceDigests(t *testing.T) {
	for _, kernel := range []string{"generic", "avx512"} {
		t.Run(kernel, func(t *testing.T) {
			if !slices.Contains(xrand.Kernels(), kernel) {
				t.Skip("this CPU lacks AVX-512 F, DQ or VL (or the OS does not save its registers): only the generic kernels run")
			}
			defer xrand.UseKernel(kernel)()
			for _, want := range []struct {
				seed                        uint64
				cond, samples, loglik, fits string
			}{
				{42, "2bb88ce5e7c9bbbb7f04641b2e077fb8ef61c42f3f32ff10b00521d7064bc1a3", "886e9fcc3fd046651d310e56f3bdfce537e3f77351a086dfb4dae37801f04f30",
					"819c072289a793d1ab2cf1e735ff67e000844b45692e90caee5be4bf5617c584", "6d1de1853413dc76e0534dd7eb0cf02c6644e15c0309d787c3b664316c1cf5f2"},
				{7, "74bdb1a0c0e62b82eac3f908bd34c0a1e496128cd0b6ad577e88e73d9564ef41", "a361b39594f8d2789f850376932d8f871714aa6d68b32977be57519a9ae09e2d",
					"0395775d9caf1b7fd593648f0fa1163000e9430e0a21a7c4dbdabe2bb85d0534", "c207eed12af8d8470909e0ebe3cb2410e988f1987a1ce193c41474e6cb5c7159"},
			} {
				cond, samples, loglik, fits := scienceDigests(t, want.seed)
				for _, c := range []struct{ name, got, want string }{
					{"ConditionalEnergies", cond, want.cond},
					{"Sample", samples, want.samples},
					{"LogLikelihood", loglik, want.loglik},
					{"residueFits", fits, want.fits},
				} {
					if c.got != c.want {
						t.Errorf("seed %d: %s digest %s, want %s", want.seed, c.name, c.got, c.want)
					}
				}
			}
		})
	}
}
