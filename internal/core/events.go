package core

import (
	"fmt"
	"time"

	"impress/internal/pipeline"
)

// EventKind classifies campaign events.
type EventKind int

const (
	// EventPipelineStarted fires when a pipeline submits its first task.
	EventPipelineStarted EventKind = iota
	// EventCycleConcluded fires when a design cycle finishes (accepted
	// or declined-terminal).
	EventCycleConcluded
	// EventSubPipelineSpawned fires when the decision step generates a
	// refinement sub-pipeline.
	EventSubPipelineSpawned
	// EventPipelineFinished fires when a pipeline completes or
	// terminates.
	EventPipelineFinished
	// EventCampaignDone fires once, after the last pipeline.
	EventCampaignDone
	// EventPipelineKilled fires when fault injection destroys a pipeline:
	// one of its tasks failed terminally (recovery exhausted or absent).
	EventPipelineKilled
	// EventNodeTransferred fires when the elastic steering controller
	// moves a node between pilots; the note names the donor, the
	// receiver, and the transferred capacity.
	EventNodeTransferred
)

func (k EventKind) String() string {
	switch k {
	case EventPipelineStarted:
		return "pipeline-started"
	case EventCycleConcluded:
		return "cycle-concluded"
	case EventSubPipelineSpawned:
		return "sub-pipeline-spawned"
	case EventPipelineFinished:
		return "pipeline-finished"
	case EventCampaignDone:
		return "campaign-done"
	case EventPipelineKilled:
		return "pipeline-killed"
	case EventNodeTransferred:
		return "node-transferred"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is one entry of the campaign's event log, Result.Events — the
// coordinator's second communication channel in the paper's design ("one
// … for completed tasks from each pipeline"), lifted to protocol-level
// events.
type Event struct {
	// At is the virtual time of the event.
	At time.Duration
	// Kind classifies the event.
	Kind EventKind
	// Pipeline and Target identify the source.
	Pipeline string
	Target   string
	// Trajectory carries the concluded cycle for EventCycleConcluded.
	Trajectory *pipeline.Trajectory
	// Note carries human-readable detail (spawn reasons, termination).
	Note string
}

func (e Event) String() string {
	s := fmt.Sprintf("[%8.2fh] %-20s %-9s %s", e.At.Hours(), e.Kind, e.Pipeline, e.Target)
	if e.Trajectory != nil {
		status := "accepted"
		if !e.Trajectory.Accepted {
			status = "declined"
		}
		s += fmt.Sprintf(" cycle %d gen %d pLDDT %.1f pTM %.3f ipAE %.1f (%s, %d evals)",
			e.Trajectory.Cycle, e.Trajectory.Generation,
			e.Trajectory.Metrics.PLDDT, e.Trajectory.Metrics.PTM, e.Trajectory.Metrics.IPAE,
			status, e.Trajectory.Evaluations)
	}
	if e.Note != "" {
		s += " — " + e.Note
	}
	return s
}

// publish appends one event to the campaign's log, Result.Events.
func (c *Coordinator) publish(kind EventKind, pl *pipeline.Pipeline, traj *pipeline.Trajectory, note string) {
	e := Event{
		At:         c.engine.Now().Duration(),
		Kind:       kind,
		Note:       note,
		Trajectory: traj,
	}
	if pl != nil {
		e.Pipeline = pl.ID
		e.Target = pl.Target()
	}
	c.events = append(c.events, e)
}
