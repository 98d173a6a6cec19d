// Package simclock implements the deterministic discrete-event engine that
// gives the IMPRESS reproduction its virtual time base.
//
// The paper's evaluation ran for 27.7–38.3 wall-clock hours on an HPC node;
// every reported quantity (utilization percentages, phase breakdowns,
// makespan) is an integral over that timeline. Rather than sleeping, the
// reproduction advances a virtual clock between events, so a full campaign
// replays in milliseconds while producing the identical timeline on every
// run. Events that share a timestamp fire in submission (FIFO) order, which
// makes the whole middleware stack — scheduler, executor, coordinator —
// bit-for-bit reproducible.
//
// The engine's scheduling hot path is allocation-free in steady state.
// Event records live by value in an append-only slab and are addressed by
// slot; fired and cancelled slots return to a free list and are reused by
// later schedules. The priority queue is an inlined binary heap of
// pointer-free (when, seq, slot) entries, so sifting moves plain words with
// no interface calls and no GC write barriers, and records each entry's
// heap index into the one contiguous slab.
package simclock

import (
	"fmt"
	"math"
	"time"
)

// Time is a point in virtual time, in nanoseconds since engine start.
type Time int64

// Duration re-exports time.Duration for call-site brevity.
type Duration = time.Duration

// Hours returns the time as floating-point hours.
func (t Time) Hours() float64 { return float64(t) / float64(time.Hour) }

// Duration converts the absolute time into a duration since engine start.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// Add returns the time advanced by d.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Sub returns the duration between t and earlier time u.
func (t Time) Sub(u Time) time.Duration { return time.Duration(t - u) }

func (t Time) String() string { return time.Duration(t).String() }

// event is the pooled scheduling record, one per slab slot. Callers never
// see it directly: they hold Event handles, which pair the slot with the
// generation it was scheduled under, so a handle kept past its event's
// firing (or cancellation, or the slot's reuse for a later event) is
// detectably stale and every operation on it is a safe no-op.
type event struct {
	when  Time
	index int32  // heap index, -1 once popped or cancelled
	gen   uint32 // bumped on every retire; live handles must match
	fn    func()
}

// Event is a handle to a scheduled callback, created by Engine.At, After
// or Defer. The zero value is a null handle: not pending,
// and cancelling it is a no-op. Handles stay valid (as inert stale
// handles) after their event fires or is cancelled, so teardown paths can
// cancel unconditionally. A handle names its engine and slot, not the
// record itself, so it stays 16 bytes and the slab may move when it grows.
// The generation wraps after 2^32 reuses of one slot; a handle kept that
// long would alias a later event.
type Event struct {
	eng  *Engine
	slot int32
	gen  uint32
}

// event returns the record the handle refers to while it is still
// queued, or nil when the handle is stale (fired, cancelled, or null).
func (ev Event) event() *event {
	if ev.eng == nil {
		return nil
	}
	e := &ev.eng.slab[ev.slot]
	if e.gen != ev.gen || e.index < 0 {
		return nil
	}
	return e
}

// When returns the virtual time at which the event is scheduled, or zero
// when the handle is stale (fired, cancelled, or null).
func (ev Event) When() Time {
	e := ev.event()
	if e == nil {
		return 0
	}
	return e.when
}

// Pending reports whether the event is still queued (not fired, not
// cancelled).
func (ev Event) Pending() bool { return ev.event() != nil }

// entry is one heap element. It holds no pointers: the slot indexes the
// engine's event slab. (when, seq) is a total order — seq is unique per
// schedule — so events sharing a timestamp fire in submission order.
type entry struct {
	when Time
	seq  uint64
	slot int32
}

func (a entry) before(b entry) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}

// Engine is a single-threaded discrete-event executor. It is not safe for
// concurrent use; all middleware components in this repository are driven
// from within engine events, which serializes them by construction.
type Engine struct {
	now   Time
	heap  []entry // binary min-heap ordered by entry.before
	slab  []event // append-only; slot i's event record
	free  []int32 // retired slots awaiting reuse
	seq   uint64
	fired uint64
}

// New returns an engine positioned at virtual time zero.
func New() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Fired returns the number of events executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// place puts x at heap index i and records i in x's event.
func (e *Engine) place(i int, x entry) {
	e.heap[i] = x
	e.slab[x.slot].index = int32(i)
}

// up sifts the entry at i toward the root.
func (e *Engine) up(i int) {
	x := e.heap[i]
	for i > 0 {
		p := (i - 1) / 2
		if !x.before(e.heap[p]) {
			break
		}
		e.place(i, e.heap[p])
		i = p
	}
	e.place(i, x)
}

// down sifts the entry at i0 toward the leaves and reports whether it
// moved.
func (e *Engine) down(i0 int) bool {
	n := len(e.heap)
	x := e.heap[i0]
	i := i0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && e.heap[r].before(e.heap[c]) {
			c = r
		}
		if !e.heap[c].before(x) {
			break
		}
		e.place(i, e.heap[c])
		i = c
	}
	e.place(i, x)
	return i > i0
}

// remove deletes the heap entry at i and returns its slot.
func (e *Engine) remove(i int) int32 {
	slot := e.heap[i].slot
	n := len(e.heap) - 1
	last := e.heap[n]
	e.heap = e.heap[:n]
	if i < n {
		e.place(i, last)
		if !e.down(i) {
			e.up(i)
		}
	}
	return slot
}

// alloc takes a slot from the free list (or appends a new event record
// to the slab when the list is empty) and schedules it.
func (e *Engine) alloc(t Time, fn func()) Event {
	if fn == nil {
		panic("simclock: nil event function")
	}
	if t < e.now {
		panic(fmt.Sprintf("simclock: scheduling event at %v before now %v", t, e.now))
	}
	var slot int32
	if n := len(e.free); n > 0 {
		slot = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		if len(e.slab) == math.MaxInt32 {
			panic("simclock: event slab full")
		}
		slot = int32(len(e.slab))
		e.slab = append(e.slab, event{})
	}
	ev := &e.slab[slot]
	ev.when = t
	ev.fn = fn
	e.heap = append(e.heap, entry{when: t, seq: e.seq, slot: slot})
	e.seq++
	e.up(len(e.heap) - 1)
	return Event{eng: e, slot: slot, gen: ev.gen}
}

// retire returns a popped or removed slot to the free list, invalidating
// every outstanding handle to its event.
func (e *Engine) retire(slot int32) {
	ev := &e.slab[slot]
	ev.index = -1
	ev.gen++
	ev.fn = nil
	e.free = append(e.free, slot)
}

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// panics: it would silently reorder causality, which in a DES is always a
// bug in the caller.
func (e *Engine) At(t Time, fn func()) Event {
	return e.alloc(t, fn)
}

// After schedules fn to run d after the current virtual time. Negative d
// panics.
func (e *Engine) After(d time.Duration, fn func()) Event {
	if d < 0 {
		panic(fmt.Sprintf("simclock: negative delay %v", d))
	}
	return e.alloc(e.now.Add(d), fn)
}

// Defer schedules fn at the current time, after all events already queued
// for this instant. It is the DES analogue of "run this as soon as the
// current cascade settles".
func (e *Engine) Defer(fn func()) Event {
	return e.At(e.now, fn)
}

// Cancel removes a pending event. Cancelling a stale handle — already
// fired, already cancelled, or the zero Event — is a no-op, so callers can
// cancel unconditionally on teardown paths.
func (e *Engine) Cancel(ev Event) {
	rec := ev.event()
	if rec == nil {
		return
	}
	e.retire(e.remove(int(rec.index)))
}

// Step fires the earliest pending event, advancing the clock to its
// timestamp. It returns false if no events remain.
func (e *Engine) Step() bool {
	if len(e.heap) == 0 {
		return false
	}
	slot := e.remove(0)
	ev := &e.slab[slot]
	e.now = ev.when
	fn := ev.fn
	e.retire(slot)
	e.fired++
	fn()
	return true
}

// Run fires events until none remain and returns how many fired. A safety
// limit guards against runaway self-rescheduling loops; hitting it panics
// because it always indicates a middleware bug rather than a long workload.
func (e *Engine) Run() uint64 {
	const limit = 500_000_000
	start := e.fired
	for e.Step() {
		if e.fired-start > limit {
			panic("simclock: event limit exceeded; self-rescheduling loop?")
		}
	}
	return e.fired - start
}

// RunUntil fires events with timestamps <= t, then advances the clock to
// exactly t (even if no event lies there). It returns how many events
// fired. Campaigns run to completion with Run; the pilot and steer tests
// bound their open-ended fault and ticker streams with RunUntil.
func (e *Engine) RunUntil(t Time) uint64 {
	if t < e.now {
		panic(fmt.Sprintf("simclock: RunUntil(%v) is before now %v", t, e.now))
	}
	start := e.fired
	for len(e.heap) > 0 && e.heap[0].when <= t {
		e.Step()
	}
	e.now = t
	return e.fired - start
}

// Ticker invokes fn every interval until cancel is called or the returned
// stop function is invoked. The first tick fires one interval from now.
// Tickers keep the event queue non-empty, so experiments that use them must
// bound execution with RunUntil or stop the ticker from another event.
type Ticker struct {
	engine   *Engine
	interval time.Duration
	fn       func(Time)
	ev       Event
	stopped  bool
}

// Every creates and starts a ticker.
func (e *Engine) Every(interval time.Duration, fn func(Time)) *Ticker {
	if interval <= 0 {
		panic("simclock: non-positive ticker interval")
	}
	t := &Ticker{engine: e, interval: interval, fn: fn}
	t.schedule()
	return t
}

func (t *Ticker) schedule() {
	t.ev = t.engine.After(t.interval, func() {
		if t.stopped {
			return
		}
		t.fn(t.engine.Now())
		if !t.stopped {
			t.schedule()
		}
	})
}

// Stop cancels future ticks. Safe to call multiple times.
func (t *Ticker) Stop() {
	t.stopped = true
	t.engine.Cancel(t.ev)
}
