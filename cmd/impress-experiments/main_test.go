package main

import (
	"testing"

	"impress/internal/clitest"
)

func TestMain(m *testing.M) { clitest.Main(m, main) }

// TestTranscripts pins stdout, stderr and the exit code of representative
// invocations (testdata/cli; regenerate with UPDATE_GOLDEN=1).
func TestTranscripts(t *testing.T) {
	clitest.Run(t, []clitest.Case{
		{Name: "all-screen8", Args: []string{"-screen", "8"}},
		{Name: "table1-bestfit", Args: []string{"-policy", "bestfit", "table1"}},
		{Name: "fig2-fault-retry", Args: []string{"-fault", "0.1", "-recovery", "retry", "fig2"}},
		{Name: "table1-steer", Args: []string{"-steer", "greedy", "table1"}},
		{Name: "scenario-pair", Args: []string{"-scenario", "pair"}},
		// Paper mode rejects every explicitly set flag it does not
		// honour, including an explicit default and each tenancy flag.
		{Name: "table1-admit", Args: []string{"-admit", "quota", "table1"}},
		{Name: "table1-steer-none", Args: []string{"-steer", "none", "table1"}},
		{Name: "table1-tenancy", Args: []string{"-tenants", "3", "-arrival", "linear", "-arrival-span", "1h", "-admit", "quota", "-reclaim", "none", "table1"}},
		{Name: "table1-preempt", Args: []string{"-checkpoint-interval", "30m", "-walltime-grace", "10m", "-fleet", "cpu:8c0g32m*2+gpu:8c4g32m*1", "-chrome-trace", "x.json", "table1"}},
	})
}
