package core

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// rewrite decodes a result file and encodes it again with the task-record
// choice the file itself declares.
func rewrite(data []byte) ([]byte, error) {
	res, err := ReadResultJSON(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	var flag struct {
		IncludeTaskDetail bool `json:"include_task_detail"`
	}
	_ = json.Unmarshal(data, &flag)
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf, flag.IncludeTaskDetail); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// TestSchema1FixturesRoundTrip pins the on-disk result format: every
// committed schema-1 file (a private campaign with faults, steering,
// telemetry and task records; a multi-tenant service) reads and writes
// back to the same bytes.
func TestSchema1FixturesRoundTrip(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "schema1-*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 2 {
		t.Fatalf("found %d schema-1 fixtures, want at least 2", len(paths))
	}
	for _, path := range paths {
		t.Run(filepath.Base(path), func(t *testing.T) {
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			got, err := rewrite(want)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s does not round-trip byte for byte (%d bytes written, %d read)", path, len(got), len(want))
			}
		})
	}
}

// FuzzReadResultJSON feeds arbitrary bytes to the result decoder. The
// seed corpus (testdata/fuzz) holds the schema-1 fixtures. Decoding must
// never panic, anything decoded must re-encode, and one round trip must
// reach a fixed point.
func FuzzReadResultJSON(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		once, err := rewrite(data)
		if err != nil {
			return
		}
		twice, err := rewrite(once)
		if err != nil {
			t.Fatalf("re-reading a written result: %v\n%s", err, once)
		}
		if !bytes.Equal(once, twice) {
			t.Fatalf("round trip is not a fixed point:\n--- once\n%s\n--- twice\n%s", once, twice)
		}
	})
}
