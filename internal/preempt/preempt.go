// Package preempt holds the checkpoint arithmetic behind the runtime's
// evict-and-resume mechanism: how much of a running attempt's work is
// recoverable at an interruption, how much is lost, and whether an
// attempt should be allowed to run out inside a drain window.
//
// Checkpoints are lazy. No event fires and no random number is drawn
// when a checkpoint "happens" — an attempt's banked progress is a pure
// function of how long it has run and the configured interval, computed
// only at the moment of an eviction or failure. That keeps the
// checkpoint subsystem provably inert when disabled: with a zero
// interval every function here collapses to the attempt's inherited
// progress, and a campaign replays byte-identically to one built before
// the subsystem existed.
//
// The semantics model coordinated application-level checkpointing (the
// protein-design pipelines' stage outputs are serializable): progress
// quantizes to whole intervals, so an interruption loses only the work
// past the last interval boundary.
package preempt

import "time"

// Progress returns the recoverable progress of an attempt that inherited
// resumeFrom progress and then ran for elapsed: the inherited progress
// plus every whole checkpoint interval completed since the run started.
// A non-positive interval disables checkpointing — the attempt's own
// running time banks nothing.
func Progress(resumeFrom, elapsed, interval time.Duration) time.Duration {
	if interval <= 0 || elapsed <= 0 {
		return resumeFrom
	}
	return resumeFrom + elapsed/interval*interval
}

// FinishesWithin reports whether an attempt with the given remaining
// work completes inside a drain window — the graceful-walltime test for
// letting a run finish instead of evicting it.
func FinishesWithin(remaining, grace time.Duration) bool {
	return remaining <= grace
}
