// Package clitest pins command transcripts. A command's test binary
// re-executes itself as the command (see Main) and Run compares the
// exit code, stdout and stderr of each invocation with a golden file
// under testdata/cli. Regenerate the files with UPDATE_GOLDEN=1.
package clitest

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// mainEnv, when set to 1, makes the test binary run the command instead
// of the tests.
const mainEnv = "IMPRESS_CLI_MAIN"

// Main is the body of a command package's TestMain: it runs the
// command's main when the binary was re-executed by Run, and the tests
// otherwise.
func Main(m *testing.M, main func()) {
	if os.Getenv(mainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// Case is one pinned invocation: its golden file is
// testdata/cli/<Name>.golden.
type Case struct {
	Name string
	Args []string
}

// Run executes every case as a subprocess of the current test binary
// and compares its transcript with the golden file.
func Run(t *testing.T, cases []Case) {
	for _, c := range cases {
		t.Run(c.Name, func(t *testing.T) {
			cmd := exec.Command(os.Args[0], c.Args...)
			cmd.Env = append(os.Environ(), mainEnv+"=1")
			var stdout, stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			code := 0
			if err := cmd.Run(); err != nil {
				var exit *exec.ExitError
				if !errors.As(err, &exit) {
					t.Fatal(err)
				}
				code = exit.ExitCode()
			}
			got := fmt.Sprintf("$ %s\nexit %d\n--- stdout\n%s--- stderr\n%s",
				strings.Join(c.Args, " "), code, stdout.String(), stderr.String())
			path := filepath.Join("testdata", "cli", c.Name+".golden")
			if os.Getenv("UPDATE_GOLDEN") != "" {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("reading golden file: %v (regenerate with UPDATE_GOLDEN=1)", err)
			}
			if got != string(want) {
				t.Errorf("transcript differs from %s (regenerate with UPDATE_GOLDEN=1)\n--- got\n%s\n--- want\n%s", path, got, want)
			}
		})
	}
}
