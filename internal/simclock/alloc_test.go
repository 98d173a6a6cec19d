package simclock

import (
	"testing"
	"time"
	"unsafe"
)

// TestSteadyStateSchedulingAllocationFree guards the engine's event pool:
// once warm, scheduling and firing events must not touch the allocator.
// This is the regression fence for the simulation hot path; any future
// change that re-introduces per-event garbage (a fresh Event struct, a
// closure in the engine) fails here.
func TestSteadyStateSchedulingAllocationFree(t *testing.T) {
	e := New()
	fn := func() {}
	// Warm the pool and the heap's backing array.
	for i := 0; i < 64; i++ {
		e.After(time.Second, fn)
	}
	e.Run()

	if avg := testing.AllocsPerRun(1000, func() {
		e.At(e.Now().Add(time.Millisecond), fn)
		e.Step()
	}); avg != 0 {
		t.Fatalf("steady-state At+Step allocates %.1f objects per event, want 0", avg)
	}

	if avg := testing.AllocsPerRun(1000, func() {
		e.After(time.Millisecond, fn)
		e.Step()
	}); avg != 0 {
		t.Fatalf("steady-state After+Step allocates %.1f objects per event, want 0", avg)
	}

	if avg := testing.AllocsPerRun(1000, func() {
		ev := e.After(time.Millisecond, fn)
		e.Cancel(ev)
	}); avg != 0 {
		t.Fatalf("steady-state After+Cancel allocates %.1f objects per event, want 0", avg)
	}
}

// TestPoolReuseInvalidatesStaleHandles proves the safety property that
// makes pooling legal: a handle kept past its event's firing goes inert,
// and cancelling it cannot disturb the unrelated event that recycled the
// struct.
func TestPoolReuseInvalidatesStaleHandles(t *testing.T) {
	e := New()
	stale := e.After(time.Second, func() {})
	e.Run()
	if stale.Pending() {
		t.Fatal("fired event still pending through its handle")
	}
	if stale.When() != 0 {
		t.Fatal("stale handle leaks recycled event state")
	}

	// The recycled struct now carries an innocent pending event; the
	// stale handle must not be able to cancel it.
	fired := false
	fresh := e.After(time.Second, func() { fired = true })
	e.Cancel(stale)
	if !fresh.Pending() {
		t.Fatal("cancelling a stale handle killed the event that reused its struct")
	}
	e.Run()
	if !fired {
		t.Fatal("innocent event did not fire")
	}
}

// TestReusedSlotLeavesStaleHandleInert pins the handle contract on slot
// reuse, for both ways a slot retires (firing and cancellation): once
// the slot carries a new event, the old handle reads not pending with a
// zero time, and cancelling it leaves the new event pending at its own
// time. The slab then grows, moving every record, and the handles keep
// their meaning.
func TestReusedSlotLeavesStaleHandleInert(t *testing.T) {
	for _, retire := range []struct {
		name string
		do   func(*Engine, Event)
	}{
		{"fired", func(e *Engine, _ Event) { e.Step() }},
		{"cancelled", func(e *Engine, ev Event) { e.Cancel(ev) }},
	} {
		t.Run(retire.name, func(t *testing.T) {
			e := New()
			stale := e.After(time.Second, func() {})
			retire.do(e, stale)
			fresh := e.After(time.Minute, func() {})
			freshWhen := fresh.When()
			if fresh.slot != stale.slot {
				t.Fatalf("new event took slot %d, want the retired slot %d", fresh.slot, stale.slot)
			}
			check := func(when string) {
				t.Helper()
				if stale.Pending() || stale.When() != 0 {
					t.Fatalf("%s: stale handle reads pending=%v when=%v", when, stale.Pending(), stale.When())
				}
				e.Cancel(stale)
				if !fresh.Pending() || fresh.When() != freshWhen {
					t.Fatalf("%s: cancelling the stale handle disturbed the new event (pending=%v when=%v, want %v)", when, fresh.Pending(), fresh.When(), freshWhen)
				}
			}
			check("after reuse")
			for i := 0; i < 1000; i++ {
				e.After(time.Hour, func() {})
			}
			check("after the slab grew")
			if len(e.heap) != 1001 {
				t.Fatalf("%d events pending, want 1001", len(e.heap))
			}
		})
	}
}

// TestEventHandleIsSixteenBytes: a handle is an engine pointer, a slot and
// a generation, small enough to copy freely and to keep by value in
// callers' records: 16 bytes on 64-bit platforms, 12 on 32-bit ones.
func TestEventHandleIsSixteenBytes(t *testing.T) {
	if n, want := unsafe.Sizeof(Event{}), unsafe.Sizeof(uintptr(0))+8; n != want {
		t.Fatalf("Event is %d bytes, want %d", n, want)
	}
}

// TestEventRecordIsTwentyFourBytes: a slab record is a time, a heap
// index, a generation and the callback, so a growing slab copies three
// words per event.
func TestEventRecordIsTwentyFourBytes(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("record size pinned on 64-bit platforms")
	}
	if n := unsafe.Sizeof(event{}); n != 24 {
		t.Fatalf("event record is %d bytes, want 24", n)
	}
}
