// The transcript harness: the test binary re-executes itself as the
// command (see TestMain), and checkTranscripts compares the exit code,
// stdout and stderr of each invocation with a golden file under
// testdata/cli. Regenerate the files with UPDATE_GOLDEN=1.

package main

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

// TestMain runs the command when the binary was re-executed by execCLI,
// and the tests otherwise.
func TestMain(m *testing.M) {
	if os.Getenv(mainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// cliCase is one pinned invocation: its golden file is
// testdata/cli/<Name>.golden.
type cliCase struct {
	Name string
	Args []string
}

// checkTranscripts executes every case as a subprocess of the current
// test binary and compares its transcript with the golden file.
func checkTranscripts(t *testing.T, cases []cliCase) {
	for _, c := range cases {
		t.Run(c.Name, func(t *testing.T) {
			code, stdout, stderr := execCLI(t, c.Args...)
			got := fmt.Sprintf("$ %s\nexit %d\n--- stdout\n%s--- stderr\n%s",
				strings.Join(c.Args, " "), code, stdout, stderr)
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

// execCLI runs the command once, as a subprocess of the current test
// binary, and returns its exit code and output.
func execCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), mainEnv+"=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	if err := cmd.Run(); err != nil {
		var exit *exec.ExitError
		if !errors.As(err, &exit) {
			t.Fatal(err)
		}
		code = exit.ExitCode()
	}
	return code, out.String(), errOut.String()
}

// usageError fails t unless the command, run with args, exits 2 with
// nothing on stdout and an error that starts by naming the flag at
// args[len(args)-2], the flag whose value is out of range.
func usageError(t *testing.T, args ...string) {
	t.Helper()
	name := args[len(args)-2]
	code, stdout, stderr := execCLI(t, args...)
	if code != 2 || stdout != "" || !strings.HasPrefix(stderr, name+" ") {
		t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 2 and an error naming %s", args, code, stdout, stderr, name)
	}
}

// sameFiles fails t unless directory got holds exactly the files of
// directory want, byte for byte. With UPDATE_GOLDEN set it copies got's
// files over want instead.
func sameFiles(t *testing.T, got, want string) {
	t.Helper()
	files, err := os.ReadDir(got)
	if err != nil {
		t.Fatal(err)
	}
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.RemoveAll(want); err != nil {
			t.Fatal(err)
		}
		if err := os.CopyFS(want, os.DirFS(got)); err != nil {
			t.Fatal(err)
		}
		return
	}
	wantFiles, err := os.ReadDir(want)
	if err != nil {
		t.Fatalf("reading golden directory: %v (regenerate with UPDATE_GOLDEN=1)", err)
	}
	names := func(es []os.DirEntry) []string {
		var out []string
		for _, e := range es {
			out = append(out, e.Name())
		}
		return out
	}
	if g, w := strings.Join(names(files), " "), strings.Join(names(wantFiles), " "); g != w {
		t.Fatalf("%s holds [%s], want [%s]", got, g, w)
	}
	for _, f := range files {
		g, err := os.ReadFile(filepath.Join(got, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		w, err := os.ReadFile(filepath.Join(want, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(g, w) {
			t.Errorf("%s differs from %s (regenerate with UPDATE_GOLDEN=1)\n--- got\n%s\n--- want\n%s", f.Name(), want, g, w)
		}
	}
}
