package impress

import (
	"io"
	"os"
	"path/filepath"
	"sort"

	"impress/internal/artifact"
	"impress/internal/core"
	"impress/internal/protein"
	"impress/internal/report"
)

// Structure is a designed (or starting) protein model: chains plus
// backbone coordinates.
type Structure = protein.Structure

// Event is one entry of a campaign's protocol-level event log
// (pipeline starts, concluded cycles, sub-pipeline spawns), read from
// Result.Events once the campaign has run.
type Event = core.Event

// Event kinds recorded in Result.Events.
const (
	EventPipelineStarted    = core.EventPipelineStarted
	EventCycleConcluded     = core.EventCycleConcluded
	EventSubPipelineSpawned = core.EventSubPipelineSpawned
	EventPipelineFinished   = core.EventPipelineFinished
	EventCampaignDone       = core.EventCampaignDone
)

// WriteResultJSON serializes a campaign result; includeTasks adds the
// per-task timeline records.
func WriteResultJSON(w io.Writer, r *Result, includeTasks bool) error {
	return r.WriteJSON(w, includeTasks)
}

// WriteDesignPDBs writes each target's best design from a campaign
// result as <dir>/<target>.pdb and returns the written paths. Targets
// are emitted in sorted name order, so the files — and any log lines
// derived from the returned slice — come out identically on every run
// (FinalDesigns is a map; ranging it directly is iteration-order
// roulette). The first write error aborts and is returned.
func WriteDesignPDBs(dir string, r *Result) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	names := make([]string, 0, len(r.FinalDesigns))
	for name := range r.FinalDesigns {
		names = append(names, name)
	}
	sort.Strings(names)
	var paths []string
	for _, name := range names {
		st := r.FinalDesigns[name]
		path := filepath.Join(dir, name+".pdb")
		if err := artifact.WriteFile(path, func(w io.Writer) error {
			return protein.WritePDB(w, st, nil)
		}); err != nil {
			return paths, err
		}
		paths = append(paths, path)
	}
	return paths, nil
}

// Gantt renders the campaign's per-task timeline (maxRows 0 = all).
func Gantt(r *Result, maxRows int) string { return report.Gantt(r, maxRows) }
