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
		{Name: "seeds2", Args: []string{"-seeds", "2"}},
		{Name: "seeds2-split-steer", Args: []string{"-seeds", "2", "-pilots", "split", "-nodes", "4", "-steer", "hysteresis"}},
		{Name: "scenario-pair", Args: []string{"-scenario", "pair", "-seeds", "2"}},
		// The pair sweep rejects the flags only scenarios honour.
		{Name: "tenants", Args: []string{"-tenants", "4"}},
		{Name: "fleet", Args: []string{"-fleet", "cpu:8c0g32m*2+gpu:8c4g32m*1"}},
		// A negative count is a usage error, not a silent default.
		{Name: "negative-seeds", Args: []string{"-seeds", "-2"}},
	})
}

// TestNegativeCountsAreUsageErrors: a count below its default marker
// exits 2 with a message naming the flag, before anything runs.
func TestNegativeCountsAreUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-seeds", "-2"},
		{"-scenario", "screen", "-seeds", "-1"},
	} {
		clitest.UsageError(t, args...)
	}
}
