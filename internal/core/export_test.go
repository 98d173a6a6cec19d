package core

import (
	"impress/internal/pilot"
	"impress/internal/simclock"
)

// RunObserved runs the campaign like Run, with fn registered on its task
// manager. fn first sees every task StartOn already submitted, in the
// state it reached, so it misses no attempt's transitions.
func (c *Coordinator) RunObserved(fn func(*pilot.Task, pilot.TaskState)) (*Result, error) {
	engine := simclock.New()
	if err := c.StartOn(engine, nil); err != nil {
		return nil, err
	}
	for uid := uint64(1); uid <= uint64(c.tm.Count()); uid++ {
		t, _ := c.tm.Get(uid)
		fn(t, t.State())
	}
	c.tm.OnState(fn)
	engine.Run()
	return c.Finish(engine.Now())
}
