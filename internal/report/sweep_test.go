package report

import (
	"strings"
	"testing"

	"impress/internal/core"
	"impress/internal/landscape"
)

// sweepResult is a synthetic pair-sweep campaign: its approach, seed,
// net pLDDT gain, GPU utilization and sub-pipeline count.
func sweepResult(approach string, seed uint64, dplddt, gpu float64, subs int) *core.Result {
	return &core.Result{
		Approach:       approach,
		Seed:           seed,
		Starting:       map[string]landscape.Metrics{"t": {}},
		FinalBest:      map[string]landscape.Metrics{"t": {PLDDT: dplddt}},
		GPUUtilization: gpu,
		SubPipelines:   subs,
	}
}

// TestSweepSkipsSeedsMissingASide: a seed whose IM-RP campaign failed
// has no pair, so it is absent from the per-seed lines, the
// distributions, the win count and the CSV rows.
func TestSweepSkipsSeedsMissingASide(t *testing.T) {
	results := []*core.Result{
		sweepResult("CONT-V", 1, 5, 0.05, 0),
		sweepResult("IM-RP", 1, 7, 0.30, 4),
		sweepResult("CONT-V", 2, 9, 0.06, 0), // seed 2's IM-RP campaign failed
		sweepResult("CONT-V", 3, 8, 0.07, 0),
		sweepResult("IM-RP", 3, 6, 0.32, 6),
	}
	text := Sweep(results)
	for _, want := range []string{
		"seed 1: Δ pLDDT CONT-V +5.00 vs IM-RP +7.00; GPU 5.0% vs 30.0%; traj 0 vs 0; sub-PL 4\n" +
			"seed 3: Δ pLDDT CONT-V +8.00 vs IM-RP +6.00; GPU 7.0% vs 32.0%; traj 0 vs 0; sub-PL 6\n" +
			"\nsweep over 2 seeds:\n",
		"  CONT-V Δ pLDDT           median    6.500  mean    6.500  σ   2.121  [5.000, 8.000]\n",
		"  IM-RP sub-pipelines      median    5.000  mean    5.000  σ   1.414  [4.000, 6.000]\n",
		"  IM-RP beats CONT-V on Δ pLDDT in 1/2 seeds\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("sweep report lacks %q:\n%s", want, text)
		}
	}
	if strings.Contains(text, "seed 2") || strings.Contains(text, "goodput") {
		t.Errorf("sweep report counts the unpaired seed, or fault lines without faults:\n%s", text)
	}

	var csv strings.Builder
	if err := SweepCSV(&csv, results); err != nil {
		t.Fatal(err)
	}
	rows := strings.Split(strings.TrimSuffix(csv.String(), "\n"), "\n")
	var keys []string
	for _, row := range rows[1:] {
		f := strings.SplitN(row, ",", 3)
		keys = append(keys, f[0]+","+f[1])
	}
	if got, want := strings.Join(keys, " "), "1,CONT-V 1,IM-RP 3,CONT-V 3,IM-RP"; got != want {
		t.Errorf("CSV rows %s, want %s\n%s", got, want, csv.String())
	}

	if got := Sweep(results[2:3]); !strings.Contains(got, "none did") {
		t.Errorf("a sweep with no complete pair renders %q", got)
	}
}
