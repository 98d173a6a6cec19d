package landscape_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"slices"
	"testing"

	"impress/internal/landscape"
	"impress/internal/workload"
	"impress/internal/xrand"
)

// tableDigest returns the sha256 of a model's fields and then each
// edge's coupling table, every cell as its float32 bits in row-major
// order.
func tableDigest(m *landscape.Model) string {
	var buf []byte
	for i := range m.Fields {
		for _, v := range m.Fields[i] {
			buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(v))
		}
	}
	for k := range m.Edges {
		for a := range m.Edges[k].W {
			for _, v := range m.Edges[k].W[a] {
				buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(v))
			}
		}
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}

// TestTableDigests pins the bulk noise of a mined screen target: the
// truth tables New draws and a surrogate CorruptInto draws from them. A
// change to the ziggurat stream, to the order cells are drawn in or to
// a cell's rounding changes a digest. It runs once per row-fill path
// (xrand.Kernels), as /generic and /avx512 subtests: both paths must
// draw the same bytes. On a CPU without the AVX-512 kernel, /avx512
// skips.
func TestTableDigests(t *testing.T) {
	for _, kernel := range []string{"generic", "avx512"} {
		t.Run(kernel, func(t *testing.T) {
			if !slices.Contains(xrand.Kernels(), kernel) {
				t.Skip("this CPU lacks AVX-512 F, DQ or VL (or the OS does not save its registers): the fills take the generic path only")
			}
			defer xrand.UseKernel(kernel)()
			for _, c := range []struct {
				seed         uint64
				truth, noisy string
			}{
				{42, "8486d6f3a492b2d1a5d8c8d1597ffed6032c975bb2e27b15337c34efab522c13", "2ecb8f447d55f39bff6406e7b7a4885c91937b099b4d1c342438b086d30a8628"},
				{7, "86a691706bbc0d6d75474e91857ed9063605032b1fbc1b8f0dec89fe5bc858b6", "1f6174c15c689f9920030ec71bcadca367be2641cdc4b21ea7e79fc20ef13810"},
			} {
				targets, err := workload.MinedScreen(c.seed, 1, workload.DefaultConfig())
				if err != nil {
					t.Fatal(err)
				}
				m := targets[0].Truth
				t.Logf("seed %d: %s, %d positions, %d edges", c.seed, m.Name, m.Len(), len(m.Edges))
				if got := tableDigest(m); got != c.truth {
					t.Errorf("seed %d: New table digest %s, want %s", c.seed, got, c.truth)
				}
				if got := tableDigest(m.CorruptInto(nil, 0.5, c.seed)); got != c.noisy {
					t.Errorf("seed %d: CorruptInto table digest %s, want %s", c.seed, got, c.noisy)
				}
			}
		})
	}
}
