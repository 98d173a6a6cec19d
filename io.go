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

// ReadResultJSON loads a campaign result written by WriteResultJSON.
func ReadResultJSON(r io.Reader) (*Result, error) {
	return core.ReadResultJSON(r)
}

// WritePDB emits a Cα-trace PDB model of a structure; bfactors (optional)
// fills the B-factor column, conventionally with per-residue pLDDT.
func WritePDB(w io.Writer, st *Structure, bfactors []float64) error {
	return protein.WritePDB(w, st, bfactors)
}

// ParsePDB reads a Cα-trace PDB back into a structure plus its B-factors.
func ParsePDB(r io.Reader) (*Structure, []float64, error) {
	return protein.ParsePDB(r)
}

// WriteArtifact creates (or truncates) path, streams the artifact
// through write, and closes it, propagating write and close errors — the
// loss-proof write path every command output goes through.
func WriteArtifact(path string, write func(io.Writer) error) error {
	return artifact.WriteFile(path, write)
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

// TableI renders the paper's Table I for a CONT-V / IM-RP result pair.
func TableI(ctrl, adpt *Result) string { return report.TableI(ctrl, adpt) }

// Gantt renders the campaign's per-task timeline (maxRows 0 = all).
func Gantt(r *Result, maxRows int) string { return report.Gantt(r, maxRows) }

// UtilizationFigure renders a Fig. 4 / Fig. 5 style utilization report.
func UtilizationFigure(title string, r *Result) string {
	return report.UtilizationFigure(title, r)
}

// IterationFigure renders a Fig. 2 / Fig. 3 style per-iteration metric
// report for one or more results.
func IterationFigure(title string, iterations int, results ...*Result) string {
	return report.IterationFigure(title, iterations, results...)
}
