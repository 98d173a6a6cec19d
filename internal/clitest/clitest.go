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
			code, stdout, stderr := Exec(t, c.Args...)
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

// Exec runs the command once, as a subprocess of the current test
// binary, and returns its exit code and output.
func Exec(t *testing.T, args ...string) (code int, stdout, stderr string) {
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

// UsageError fails t unless the command, run with args, exits 2 with
// nothing on stdout and an error that starts by naming the flag at
// args[len(args)-2], the flag whose value is out of range.
func UsageError(t *testing.T, args ...string) {
	t.Helper()
	name := args[len(args)-2]
	code, stdout, stderr := Exec(t, args...)
	if code != 2 || stdout != "" || !strings.HasPrefix(stderr, name+" ") {
		t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 2 and an error naming %s", args, code, stdout, stderr, name)
	}
}

// SameFiles fails t unless directory got holds exactly the files of
// directory want, byte for byte. With UPDATE_GOLDEN set it copies got's
// files over want instead.
func SameFiles(t *testing.T, got, want string) {
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
