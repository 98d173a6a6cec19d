package main

import (
	"math"
	"sync"
	"time"
)

// refSlice is one reference-kernel slice's time at the speed every
// end-to-end timing is reported at: about its median on the 2-vCPU VM the
// benchmark was tuned on.
const refSlice = 375 * time.Microsecond

// refPairs is the number of normal pairs one slice draws.
const refPairs = 8192

// speedEvery is how often the speedometer runs a slice.
const speedEvery = 20 * time.Millisecond

// The machine a run lands on drifts in speed: on a shared 2-vCPU VM the
// same repetition ran up to 1.8 times slower a few seconds later, and up
// to twice as fast a few minutes later, with set-up and run time moving
// together. A speedometer measures that speed while the program runs: a
// goroutine wakes every speedEvery and times one slice of a fixed
// reference kernel. GOMAXPROCS is 1, so the slices interleave with the
// program on the one thread that runs Go code and see the speed the
// program sees. Scaling a phase's time by refSlice over its median slice
// takes the drift out, while a change to the program moves the phase's
// time and not the kernel's. Sampling throughout a phase, not only
// between phases, catches bursts shorter than a repetition.
type speedometer struct {
	stop chan struct{}
	done chan struct{}
	at   int // where the kernel's next slice writes in refTable

	mu    sync.Mutex
	times []time.Duration // every slice's wall time, in order
}

// slices are the slice times of one phase, or of several pooled.
type slices []time.Duration

// spent is the phase's time the slices took, each counted at the median
// slice time: what a slice takes beyond that is time the runtime spent on
// the program while the slice was interrupted.
func (ss slices) spent() time.Duration {
	return time.Duration(float64(len(ss)) * ss.medianUS() * 1e3)
}

// medianUS is the median slice time in microseconds; 0 without slices.
func (ss slices) medianUS() float64 {
	if len(ss) == 0 {
		return 0
	}
	xs := make([]float64, len(ss))
	for i, t := range ss {
		xs[i] = float64(t) / 1e3
	}
	return median(xs)
}

// meanUS is the mean slice time in microseconds; 0 without slices.
func (ss slices) meanUS() float64 {
	if len(ss) == 0 {
		return 0
	}
	var d time.Duration
	for _, t := range ss {
		d += t
	}
	return float64(d) / 1e3 / float64(len(ss))
}

// scale converts the phase's time to reference speed: refSlice over the
// median slice. The median, because a slice the runtime interrupts (a
// collection stopping the world, say) reads long without the machine
// being slower. It is 1 when the phase ran no slice.
func (ss slices) scale() float64 {
	if len(ss) == 0 {
		return 1
	}
	return float64(refSlice) / 1e3 / ss.medianUS()
}

func startSpeedometer() *speedometer {
	s := &speedometer{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(speedEvery)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
			d := s.slice()
			s.mu.Lock()
			s.times = append(s.times, d)
			s.mu.Unlock()
		}
	}()
	return s
}

// mark returns how many slices have run; a nil speedometer reads 0.
func (s *speedometer) mark() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.times)
}

// since returns the times of the slices run after mark m.
func (s *speedometer) since(m int) slices {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append(slices(nil), s.times[m:]...)
}

// close stops the sampling goroutine and waits for it to end.
func (s *speedometer) close() {
	close(s.stop)
	<-s.done
}

// refTable is the table the reference kernel writes: 4 MB, larger than
// the caches a slice could keep it in.
var refTable = make([]float64, 1<<19)

// slice runs one slice of the reference kernel and returns its wall time.
// The kernel does what the simulator's science layer spends most of its
// time on (landscape.Corrupt): Box–Muller normal pairs, each a logarithm,
// a square root and a sine-cosine pair, written in turn through a table
// too large for the caches. It allocates nothing and calls no program
// code. Five candidate kernels were timed side by side over repeated
// same-seed runs of every workload. Scaled by this one, the interquartile
// range of the run medians, over their median, was lowest or close to it
// on all three: 0.07 on tenant-wave (unscaled 0.12), 0.08 on taskbag
// (0.10), 0.07 on mega-screen (0.06). Pure arithmetic over-corrected
// tenant-wave; dependent loads through a 256 KB or 4 MB table did not
// track taskbag.
func (s *speedometer) slice() time.Duration {
	t0 := time.Now()
	for i := 0; i < refPairs; i++ {
		u1 := float64(i+1) / (refPairs + 1)
		u2 := float64((i*7)%refPairs+1) / (refPairs + 1)
		r := math.Sqrt(-2 * math.Log(u1))
		sn, cs := math.Sincos(2 * math.Pi * u2)
		k := (s.at + 2*i) & (len(refTable) - 1)
		refTable[k], refTable[k+1] = r*cs, r*sn
	}
	s.at = (s.at + 2*refPairs) & (len(refTable) - 1)
	return time.Since(t0)
}
