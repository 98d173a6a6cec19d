package artifact

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestWriteFileSuccess(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.csv")
	if err := WriteFile(path, func(w io.Writer) error {
		_, err := fmt.Fprintln(w, "a,b,c")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "a,b,c\n" {
		t.Fatalf("content %q", data)
	}
}

// TestWriteFileCreateError: an unwritable destination (here a read-only
// directory) surfaces as an error instead of a silent no-op — the
// condition the commands turn into a non-zero exit.
func TestWriteFileCreateError(t *testing.T) {
	dir := t.TempDir()
	if err := os.Chmod(dir, 0o555); err != nil {
		t.Fatal(err)
	}
	defer os.Chmod(dir, 0o755)
	if os.Geteuid() == 0 {
		t.Skip("running as root: read-only directories are writable")
	}
	err := WriteFile(filepath.Join(dir, "out.csv"), func(io.Writer) error { return nil })
	if err == nil {
		t.Fatal("write into a read-only directory succeeded")
	}
}

// TestWriteFileMissingDir: a destination whose directory does not exist
// errors (the impress run -json/-csv paths before MkdirAll).
func TestWriteFileMissingDir(t *testing.T) {
	err := WriteFile(filepath.Join(t.TempDir(), "no", "such", "dir", "x.json"),
		func(io.Writer) error { return nil })
	if err == nil {
		t.Fatal("write into a missing directory succeeded")
	}
}

// TestWriteFilePropagatesWriteError: the writer callback's error wins,
// the file is still closed, and the path is named in the message.
func TestWriteFilePropagatesWriteError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.json")
	boom := errors.New("serializer exploded")
	err := WriteFile(path, func(io.Writer) error { return boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped %v", err, boom)
	}
	if !strings.Contains(err.Error(), "out.json") {
		t.Fatalf("error does not name the artifact: %v", err)
	}
	// The handle was closed despite the error: the file can be removed
	// and rewritten immediately.
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(path, func(w io.Writer) error { _, e := w.Write([]byte("ok")); return e }); err != nil {
		t.Fatal(err)
	}
}
