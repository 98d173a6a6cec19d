package simclock

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"impress/internal/xrand"
)

// sortedQueue is the oracle for the engine's event heap: a slice kept
// sorted by (when, seq), scheduled and cancelled by event id.
type sortedQueue struct {
	now     Time
	seq     uint64
	fired   uint64
	pending []oracleEvent
}

type oracleEvent struct {
	when Time
	seq  uint64
	id   int
}

func (q *sortedQueue) add(t Time, id int) {
	ev := oracleEvent{when: t, seq: q.seq, id: id}
	q.seq++
	i := sort.Search(len(q.pending), func(i int) bool {
		p := q.pending[i]
		return p.when > t || (p.when == t && p.seq > ev.seq)
	})
	q.pending = append(q.pending, oracleEvent{})
	copy(q.pending[i+1:], q.pending[i:])
	q.pending[i] = ev
}

func (q *sortedQueue) find(id int) int {
	for i, p := range q.pending {
		if p.id == id {
			return i
		}
	}
	return -1
}

func (q *sortedQueue) cancel(id int) {
	if i := q.find(id); i >= 0 {
		q.pending = append(q.pending[:i], q.pending[i+1:]...)
	}
}

// step pops the earliest event and runs the model of its callback.
func (q *sortedQueue) step(fire func(id int)) {
	ev := q.pending[0]
	q.pending = q.pending[1:]
	q.now = ev.when
	q.fired++
	fire(ev.id)
}

// TestEngineMatchesSortedQueue drives the engine and the sorted-slice
// oracle with one random sequence of At/After/Defer schedules (also from
// inside callbacks), cancels of live and stale handles, Steps and
// RunUntils. Times come from a small set so many events tie and the
// FIFO tie-break decides their order; fired and cancelled slots are
// reused throughout while stale handles are kept and cancelled.
func TestEngineMatchesSortedQueue(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		rng := xrand.New(seed)
		e := New()
		q := &sortedQueue{}
		handles := map[int]Event{}
		var got, want []int
		nextID := 0

		// A fired event with id%3 == 0 schedules a child, -id, from
		// inside its callback: Defer when id%4 == 0, else After.
		childDelay := func(id int) time.Duration { return time.Duration(id%4) * time.Minute }
		var engineFire func(id int) func()
		engineFire = func(id int) func() {
			return func() {
				got = append(got, id)
				if id > 0 && id%3 == 0 {
					if d := childDelay(id); d == 0 {
						handles[-id] = e.Defer(engineFire(-id))
					} else {
						handles[-id] = e.After(d, engineFire(-id))
					}
				}
			}
		}
		oracleFire := func(id int) {
			want = append(want, id)
			if id > 0 && id%3 == 0 {
				q.add(q.now.Add(childDelay(id)), -id)
			}
		}

		for op := 0; op < 3000; op++ {
			switch k := rng.Intn(20); {
			case k < 5:
				nextID++
				at := e.Now() + Time(rng.Intn(4))*Time(time.Minute)
				handles[nextID] = e.At(at, engineFire(nextID))
				q.add(at, nextID)
			case k < 9:
				nextID++
				d := time.Duration(rng.Intn(4)) * time.Minute
				handles[nextID] = e.After(d, engineFire(nextID))
				q.add(q.now.Add(d), nextID)
			case k < 11:
				nextID++
				handles[nextID] = e.Defer(engineFire(nextID))
				q.add(q.now, nextID)
			case k < 15:
				if nextID == 0 {
					continue
				}
				id := 1 + rng.Intn(nextID) // live or stale
				if rng.Intn(4) == 0 {
					id = -id // a child handle, possibly never made
				}
				e.Cancel(handles[id])
				q.cancel(id)
			case k < 18:
				if len(q.pending) == 0 {
					if e.Step() {
						t.Fatalf("seed %d op %d: Step fired with nothing pending", seed, op)
					}
					continue
				}
				e.Step()
				q.step(oracleFire)
			default:
				until := e.Now() + Time(rng.Intn(3))*Time(time.Minute)
				e.RunUntil(until)
				for len(q.pending) > 0 && q.pending[0].when <= until {
					q.step(oracleFire)
				}
				q.now = until
			}

			if e.Now() != q.now || e.Fired() != q.fired || len(e.heap) != len(q.pending) {
				t.Fatalf("seed %d op %d: engine now=%v fired=%d pending=%d, oracle now=%v fired=%d pending=%d",
					seed, op, e.Now(), e.Fired(), len(e.heap), q.now, q.fired, len(q.pending))
			}
			if len(got) != len(want) {
				t.Fatalf("seed %d op %d: engine fired %d, oracle %d", seed, op, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("seed %d op %d: fire %d is %d, oracle %d", seed, op, i, got[i], want[i])
				}
			}
			if op%16 != 0 {
				continue
			}
			// Every handle agrees with the oracle on liveness and time.
			when := make(map[int]Time, len(q.pending))
			for _, p := range q.pending {
				when[p.id] = p.when
			}
			for id, h := range handles {
				w, live := when[id]
				if h.Pending() != live || h.When() != w {
					t.Fatalf("seed %d op %d: handle %d Pending = %v When = %v, oracle %v %v",
						seed, op, id, h.Pending(), h.When(), live, w)
				}
			}
		}
		e.Run()
		for len(q.pending) > 0 {
			q.step(oracleFire)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) || e.Fired() != q.fired {
			t.Fatalf("seed %d: drained fire orders differ", seed)
		}
		if len(e.slab) >= nextID {
			t.Fatalf("seed %d: %d slots for %d events, slots are not reused", seed, len(e.slab), nextID)
		}
	}
}
