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
		// So is a node shape past fleet.MaxPerNode, which used to overflow
		// the capacity sums into NaN campaign metrics.
		// A maintenance window past fault.MaxMaintenanceSpan is a usage
		// error, not an event scheduled before now.
		{Name: "maintenance-span-ceiling", Args: []string{"-maintenance", "@9223372036854775807ns/1h"}},
		{Name: "fleet-shape-ceiling", Args: []string{"-scenario", "kilo-screen", "-screen-size", "1", "-parallel", "0", "-fleet", "a:4611686018427387904c0g1m*500+b:1c4g1m*500"}},
		// A negative count is a usage error, not a silent default.
		{Name: "negative-cycles", Args: []string{"-cycles", "-1"}},
	})
}

// TestNegativeCountsAreUsageErrors: a count below its default marker
// exits 2 with a message naming the flag, before anything runs.
func TestNegativeCountsAreUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-cycles", "-1"},
		{"-sequences", "-1"},
		{"-max-concurrent", "-2"},
		{"-gantt", "-4"},
		{"-retries", "-2"},
		{"-screen-size", "-5"},
		{"-scenario", "screen", "-screen-size", "-5"},
		{"-scenario", "sweep", "-seeds", "-1"},
	} {
		clitest.UsageError(t, args...)
	}
}
