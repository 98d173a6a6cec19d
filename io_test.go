package impress_test

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"impress"
	"impress/internal/core"
	"impress/internal/protein"
	"impress/internal/report"
)

func smallCampaign(t *testing.T, seed uint64) *impress.Result {
	t.Helper()
	target, err := impress.NewTarget(seed, "IOTEST", 50, impress.AlphaSynucleinTail4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := impress.AdaptiveConfig(seed)
	cfg.Pipeline.Cycles = 2
	cfg.Pipeline.MPNN.NumSequences = 5
	cfg.Pipeline.MPNN.Sweeps = 2
	res, err := impress.RunAdaptive([]*impress.Target{target}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestPublicJSONRoundTrip(t *testing.T) {
	res := smallCampaign(t, 31)
	var buf bytes.Buffer
	if err := impress.WriteResultJSON(&buf, res, false); err != nil {
		t.Fatal(err)
	}
	loaded, err := core.ReadResultJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Approach != res.Approach || loaded.TrajectoryCount() != res.TrajectoryCount() {
		t.Fatal("round trip lost data")
	}
}

func TestPublicPDBFromCampaign(t *testing.T) {
	res := smallCampaign(t, 32)
	st := res.FinalDesigns["IOTEST"]
	if st == nil {
		t.Fatal("no final design")
	}
	var buf bytes.Buffer
	if err := protein.WritePDB(&buf, st, nil); err != nil {
		t.Fatal(err)
	}
	parsed, _, err := protein.ParsePDB(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(parsed.Receptor.Seq, st.Receptor.Seq) {
		t.Fatal("design sequence lost in PDB round trip")
	}
}

func TestPublicEventStream(t *testing.T) {
	target, err := impress.NewTarget(33, "EVT", 48, impress.AlphaSynucleinTail4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := impress.AdaptiveConfig(33)
	cfg.Pipeline.Cycles = 2
	cfg.Pipeline.MPNN.NumSequences = 4
	cfg.Pipeline.MPNN.Sweeps = 2
	res, err := impress.RunAdaptive([]*impress.Target{target}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(res.Events); n < res.TrajectoryCount()+2 {
		t.Fatalf("event log holds %d events", n)
	}
}

func TestPublicRenderers(t *testing.T) {
	res := smallCampaign(t, 34)
	if !strings.Contains(impress.Gantt(res, 5), "Task timeline") {
		t.Error("Gantt broken")
	}
	if !strings.Contains(report.UtilizationFigure("U", res), "Busy CPU cores") {
		t.Error("UtilizationFigure broken")
	}
	if !strings.Contains(report.IterationFigure("I", 2, res), "pLDDT") {
		t.Error("IterationFigure broken")
	}
	ctrl := smallCampaign(t, 35)
	ctrl.Approach = "CONT-V" // label for rendering
	if !strings.Contains(report.TableI(ctrl, res), "Trajectories") {
		t.Error("TableI broken")
	}
}

// TestWriteDesignPDBsDeterministicOrder pins the -pdb satellite fix:
// FinalDesigns is a map, and the files (and "wrote …" lines derived
// from the returned paths) must come out in sorted target order, not in
// Go's randomized map iteration order.
func TestWriteDesignPDBsDeterministicOrder(t *testing.T) {
	res := smallCampaign(t, 36)
	st := res.FinalDesigns["IOTEST"]
	if st == nil {
		t.Fatal("no final design")
	}
	// Several targets, inserted in non-sorted order: map iteration order
	// would differ between processes (and often between runs).
	res.FinalDesigns = map[string]*impress.Structure{
		"ZETA": st, "ALPHA": st, "MID": st, "BETA": st,
	}
	want := []string{"ALPHA.pdb", "BETA.pdb", "MID.pdb", "ZETA.pdb"}
	for trial := 0; trial < 3; trial++ {
		dir := t.TempDir()
		paths, err := impress.WriteDesignPDBs(dir, res)
		if err != nil {
			t.Fatal(err)
		}
		if len(paths) != len(want) {
			t.Fatalf("wrote %d files, want %d", len(paths), len(want))
		}
		for i, p := range paths {
			if filepath.Base(p) != want[i] {
				t.Fatalf("trial %d: path %d is %s, want %s", trial, i, filepath.Base(p), want[i])
			}
			if _, err := os.Stat(p); err != nil {
				t.Fatalf("reported path not written: %v", err)
			}
		}
	}
}

// TestWriteDesignPDBsErrorPath: an unwritable destination surfaces an
// error (the command turns it into a non-zero exit) instead of quietly
// dropping designs.
func TestWriteDesignPDBsErrorPath(t *testing.T) {
	res := smallCampaign(t, 37)
	// A regular file where the directory should go: MkdirAll must fail.
	blocker := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := impress.WriteDesignPDBs(filepath.Join(blocker, "pdbs"), res); err == nil {
		t.Fatal("writing into a blocked path succeeded")
	}
}
