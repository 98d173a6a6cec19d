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
		{Name: "imrp", Args: []string{"-protocol", "imrp"}},
		{Name: "contv-seed7", Args: []string{"-protocol", "contv", "-seed", "7"}},
		{Name: "split-steer", Args: []string{"-pilots", "split", "-nodes", "4", "-steer", "greedy"}},
		{Name: "fault-retry", Args: []string{"-fault", "0.15", "-recovery", "retry"}},
		{Name: "list-scenarios", Args: []string{"-list-scenarios"}},
		{Name: "scenario-pair", Args: []string{"-scenario", "pair"}},
		{Name: "scenario-pair-protocol", Args: []string{"-scenario", "pair", "-protocol", "imrp"}},
		{Name: "checkpoint-warning", Args: []string{"-checkpoint-interval", "30m"}},
		// Single-campaign mode rejects the flags only scenarios honour.
		{Name: "single-tenancy-seeds", Args: []string{"-tenants", "4", "-admit", "quota", "-seeds", "3"}},
		// A node count past fleet.MaxNodes is a usage error, not a
		// makeslice panic in fleet generation.
		{Name: "fleet-count-ceiling", Args: []string{"-scenario", "kilo-screen", "-screen-size", "1", "-parallel", "0", "-fleet", "a:28c4g128m*9223372036854775807"}},
	})
}
