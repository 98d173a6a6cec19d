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
	})
}
