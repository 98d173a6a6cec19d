package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"impress/internal/clitest"
)

// TestOutWritesReportFiles pins -out: every selected experiment writes
// <id>.txt, equal to its stdout section below the "###" header, and
// <id>.csv, whose header names the experiment's CSV kind.
func TestOutWritesReportFiles(t *testing.T) {
	dir := t.TempDir()
	code, stdout, stderr := clitest.Exec(t, "-out", dir, "table1", "fig4")
	if code != 0 {
		t.Fatalf("exit %d\nstderr: %s", code, stderr)
	}

	// A section is every line from one "### <id> — <title>" header to the
	// next: a blank line, the experiment's text, and Println's newline.
	sections := map[string]string{}
	id := ""
	for _, line := range strings.SplitAfter(stdout, "\n") {
		if rest, ok := strings.CutPrefix(line, "### "); ok {
			id, _, _ = strings.Cut(rest, " ")
			continue
		}
		sections[id] += line
	}
	for id, csvHeader := range map[string]string{"table1": "approach,iteration", "fig4": "approach,resource"} {
		body, ok := sections[id]
		if !ok {
			t.Fatalf("no ### %s section in stdout:\n%s", id, stdout)
		}
		txt, err := os.ReadFile(filepath.Join(dir, id+".txt"))
		if err != nil {
			t.Fatal(err)
		}
		if "\n"+string(txt)+"\n" != body {
			t.Errorf("%s.txt differs from its stdout section\n--- file\n%s\n--- stdout\n%s", id, txt, body)
		}
		csv, err := os.ReadFile(filepath.Join(dir, id+".csv"))
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(string(csv), csvHeader+",") {
			t.Errorf("%s.csv header %q, want prefix %q", id, strings.SplitN(string(csv), "\n", 2)[0], csvHeader)
		}
	}
	if len(sections) != 2 {
		t.Errorf("stdout has %d sections, want 2", len(sections))
	}
}
