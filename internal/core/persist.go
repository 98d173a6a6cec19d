package core

import (
	"encoding/json"
	"fmt"
	"io"

	"impress/internal/ga"
)

// The JSON schema version; bump on breaking changes.
const resultSchemaVersion = 1

// resultFile is the on-disk campaign record: the Result's own JSON form
// between a schema version and the task-detail flag. New Result fields
// must be additive (omitempty or zero-defaulting) so schema 1 files
// written before them still decode.
type resultFile struct {
	Schema int `json:"schema"`
	*Result
	IncludeTaskDetail bool `json:"include_task_detail"`
}

// WriteJSON serializes the result. includeTasks controls whether the
// per-task timeline (potentially thousands of records) is included.
func (r *Result) WriteJSON(w io.Writer, includeTasks bool) error {
	if !includeTasks {
		trimmed := *r
		trimmed.TaskRecords = nil
		r = &trimmed
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(resultFile{Schema: resultSchemaVersion, Result: r, IncludeTaskDetail: includeTasks})
}

// ReadResultJSON loads a campaign record written by WriteJSON. The
// reconstructed Result supports all read accessors (iteration summaries,
// net deltas, series, final designs). No command reads results back;
// TestSchema1FixturesRoundTrip and FuzzReadResultJSON check the writer
// with it.
func ReadResultJSON(rd io.Reader) (*Result, error) {
	file := resultFile{Result: &Result{}}
	if err := json.NewDecoder(rd).Decode(&file); err != nil {
		return nil, fmt.Errorf("core: decoding result: %w", err)
	}
	if file.Schema != resultSchemaVersion {
		return nil, fmt.Errorf("core: result schema %d, want %d", file.Schema, resultSchemaVersion)
	}
	if file.Pool == nil {
		// The pool accessors need a pool, even for a file without entries.
		file.Pool = ga.NewPool()
	}
	return file.Result, nil
}
