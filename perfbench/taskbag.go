package main

import (
	"fmt"
	"math"
	"time"

	"impress/internal/cluster"
	"impress/internal/costmodel"
	"impress/internal/fault"
	"impress/internal/fleet"
	"impress/internal/pilot"
	"impress/internal/simclock"
	"impress/internal/trace"
	"impress/internal/xrand"
)

// The taskbag is the middleware-only workload: an open stream of
// payload-free tasks, shaped like the recorded IM-RP stage mix, arriving in
// virtual time on a generated CPU+GPU fleet at an offered load past
// saturation. The benchmark owns the pilots, the task manager and every
// payload; no science code runs.
const (
	bagTasks = 40000
	bagNodes = 1024
	// bagLoad is the offered load the arrival rate is sized for on each
	// pilot: payload work arriving per unit of virtual time over the
	// pilot's capacity. The traced run reports the load the drawn tasks
	// actually offer.
	bagLoad = 1.1
	// bagDrainMargin bounds the run in virtual time. Once the last arrival
	// is this many arrival spans old, fault injection stops, so the engine
	// drains, and a chain that never ends fails a check instead of keeping
	// the run alive. The fleet carries more than its payload load (8-core
	// stages pack three to a 28-core node, set-ups and crashes hold nodes
	// too), so the backlog takes longer than the arrivals to drain.
	bagDrainMargin = 4.0
	// bagDeck is the block of arrivals that holds the stage mix exactly;
	// the order within a block is shuffled from the seed. Stratifying the
	// mix, and spacing arrivals within ±50% of the mean gap, keeps the
	// offered work nearly the same on every seed, so the saturated
	// queue's depth, and with it the run time, depends little on the seed.
	bagDeck = 200
	// Node shapes of the two pilots' fleets.
	bagCPUNode = "cpu:28c0g128m"
	bagGPUNode = "gpu:8c4g64m"
)

// bagFault is the failure model of both pilots: 2% of attempts die of an
// injected task fault, nodes crash with a 24 h mean time between failures,
// and recovery resubmits elsewhere.
var bagFault = fault.Spec{TaskFailProb: 0.02, NodeMTBF: 24 * time.Hour}

// bagTask is one arrival of the stream.
type bagTask struct {
	at   simclock.Time
	desc pilot.TaskDescription
}

type taskbag struct {
	engine *simclock.Engine
	rec    *trace.Recorder
	pilots [2]*pilot.Pilot // cpu, gpu
	tm     *pilot.TaskManager
	tasks  []bagTask
	// offered is the payload work the tasks bring over the arrival span
	// times the capacity: cores on the CPU pilot, GPUs on the GPU pilot.
	offered [2]float64
	cpuFleet
	// Filled in while the run proceeds.
	limit        simclock.Event // the virtual-time limit; cancelled when the last chain ends
	overran      bool
	endedAtLimit int
	depths       []int
	snapshot     []cluster.Request
	finals       int
	chainsEnded  int
	done         int
	lastEnd      simclock.Time
}

// cpuFleet is the CPU pilot's fleet and the request shapes that run on
// it, kept for the allocation probe.
type cpuFleet struct {
	spec  cluster.Spec
	caps  []cluster.NodeCapacity
	kinds []*stageKind
}

func setupTaskbag(seed uint64, tr *tracer) (instance, error) {
	end := tr.begin("workload.build")
	mix, err := loadStageMix()
	if err != nil {
		end()
		return nil, err
	}
	// Split the fleet so both pilots see the same offered load: nodes in
	// proportion to each class's work per arriving task.
	var cpuWork, gpuWork float64 // core-seconds and GPU-seconds per task
	var cpuKinds []*stageKind
	for i := range mix.Stages {
		k := &mix.Stages[i]
		if k.GPUs > 0 {
			gpuWork += k.Share * float64(k.GPUs) * k.meanRunS()
		} else {
			cpuWork += k.Share * float64(k.Cores) * k.meanRunS()
			cpuKinds = append(cpuKinds, k)
		}
	}
	cpuT, err := fleet.ParseSpec(bagCPUNode + "*1")
	if err != nil {
		end()
		return nil, err
	}
	gpuT, err := fleet.ParseSpec(bagGPUNode + "*1")
	if err != nil {
		end()
		return nil, err
	}
	cpuNodeWork := cpuWork / float64(cpuT[0].Cap.Cores)
	gpuNodeWork := gpuWork / float64(gpuT[0].Cap.GPUs)
	gpuNodes := int(math.Round(bagNodes * gpuNodeWork / (cpuNodeWork + gpuNodeWork)))
	cpuT[0].Count, gpuT[0].Count = bagNodes-gpuNodes, gpuNodes
	cpuCaps, err := fleet.Generate(xrand.Derive(seed, "cpu-fleet"), cpuT)
	if err != nil {
		end()
		return nil, err
	}
	gpuCaps, err := fleet.Generate(xrand.Derive(seed, "gpu-fleet"), gpuT)
	if err != nil {
		end()
		return nil, err
	}
	// Arrivals at the rate that offers bagLoad to the CPU pilot, with gaps
	// uniform within ±50% of the mean gap.
	cpuCores := float64(cpuT[0].Count * cpuT[0].Cap.Cores)
	gpus := float64(gpuT[0].Count * gpuT[0].Cap.GPUs)
	rate := bagLoad * cpuCores / cpuWork // tasks per virtual second
	rng := xrand.New(xrand.Derive(seed, "taskbag"))
	tags := make(map[string]map[string]string, len(mix.Stages))
	for _, k := range mix.Stages {
		tags[k.Stage] = map[string]string{"stage": k.Stage}
	}
	b := &taskbag{
		tasks:    make([]bagTask, bagTasks),
		cpuFleet: cpuFleet{spec: fleet.SpecFor("taskbag-cpu", cpuCaps), caps: cpuCaps, kinds: cpuKinds},
	}
	deck := mix.deck(bagDeck)
	var at float64
	var work [2]float64 // payload core-seconds on the CPU pilot, GPU-seconds on the GPU pilot
	for i := range b.tasks {
		if i%len(deck) == 0 {
			rng.ShuffleInts(deck)
		}
		at += rng.Range(0.5, 1.5) / rate
		k, d := mix.draw(deck[i%len(deck)], rng)
		if k.GPUs > 0 {
			work[1] += float64(k.GPUs) * d.Seconds()
		} else {
			work[0] += float64(k.Cores) * d.Seconds()
		}
		res := pilot.Result{Phases: []pilot.Phase{{Name: k.Stage, Duration: d, BusyCores: k.Cores, BusyGPUs: k.GPUs}}}
		b.tasks[i] = bagTask{
			at: simclock.Time(at * float64(time.Second)),
			desc: pilot.TaskDescription{
				Name:  fmt.Sprintf("bag.%06d:%s", i, k.Stage),
				Cores: k.Cores,
				GPUs:  k.GPUs,
				Work:  pilot.WorkFunc(func(*pilot.ExecContext) (pilot.Result, error) { return res, nil }),
				Tags:  tags[k.Stage],
			},
		}
	}
	b.offered = [2]float64{work[0] / (at * cpuCores), work[1] / (at * gpus)}
	end()

	end = tr.begin("core.start")
	defer end()
	b.engine = simclock.New()
	caps := [2][]cluster.NodeCapacity{cpuCaps, gpuCaps}
	totalCores, totalGPUs := 0, 0
	for _, cs := range caps {
		for _, nc := range cs {
			totalCores += nc.Cores
			totalGPUs += nc.GPUs
		}
	}
	b.rec = trace.NewRecorder(totalCores, totalGPUs, 0)
	pm := pilot.NewPilotManager(b.engine, b.rec)
	for i, name := range []string{"cpu", "gpu"} {
		p, err := pm.Submit(pilot.PilotDescription{
			Machine:  fleet.SpecFor("taskbag-"+name, caps[i]),
			Nodes:    caps[i],
			Cost:     costmodel.Default(),
			Policy:   "backfill",
			Fault:    bagFault,
			Recovery: "elsewhere",
			Seed:     xrand.Derive(seed, "pilot-"+name),
		})
		if err != nil {
			return nil, err
		}
		b.pilots[i] = p
	}
	for i := range b.tasks {
		td := &b.tasks[i].desc
		td.Pilot = b.pilots[0].ID
		if td.GPUs > 0 {
			td.Pilot = b.pilots[1].ID
		}
	}
	b.tm = pilot.NewTaskManager(b.engine, b.pilots[0], b.pilots[1])
	b.tm.OnState(b.onState)
	b.depths = make([]int, 0, len(b.tasks))
	return b, nil
}

// onState counts attempts and chains reaching a final state. When the last
// chain ends the fault injectors retire and the time limit is cancelled,
// so the engine drains.
func (b *taskbag) onState(t *pilot.Task, s pilot.TaskState) {
	if !s.Final() {
		return
	}
	b.finals++
	if s == pilot.StateDone {
		b.done++
	}
	if t.WillRetry() {
		return
	}
	b.chainsEnded++
	b.lastEnd = b.engine.Now()
	if b.chainsEnded == len(b.tasks) {
		b.engine.Cancel(b.limit)
		b.stopFaults()
	}
}

// overrun fires at the virtual-time limit while some chain is still open.
// It retires the fault injectors so the engine drains, and the run fails
// its time-limit check.
func (b *taskbag) overrun() {
	b.overran = true
	b.endedAtLimit = b.chainsEnded
	b.stopFaults()
}

func (b *taskbag) stopFaults() {
	for _, p := range b.pilots {
		p.StopFaultInjection()
	}
}

// arrive submits task i and schedules the next arrival.
func (b *taskbag) arrive(i int, tr *tracer) {
	b.depths = append(b.depths, b.pilots[0].QueueLen()+b.pilots[1].QueueLen())
	td := b.tasks[i].desc
	var err error
	if tr == nil {
		_, err = b.tm.Submit(td)
	} else {
		t0 := time.Now()
		_, err = b.tm.Submit(td)
		tr.submits = append(tr.submits, time.Since(t0))
		if i == len(b.tasks)/2 {
			b.snapshot = b.pilots[0].Cluster().NodeFree()
		}
	}
	if err != nil {
		panic(fmt.Sprintf("taskbag: submit %s: %v", td.Name, err))
	}
	if i+1 < len(b.tasks) {
		b.engine.At(b.tasks[i+1].at, func() { b.arrive(i+1, tr) })
	}
}

func (b *taskbag) run(tr *tracer) (*outcome, error) {
	last := b.tasks[len(b.tasks)-1].at
	b.limit = b.engine.At(last.Add(time.Duration(bagDrainMargin*float64(last))), b.overrun)
	b.engine.At(b.tasks[0].at, func() { b.arrive(0, tr) })
	tr.drive(b.engine)
	b.rec.Close(b.lastEnd)
	recs := b.rec.Tasks()

	free := true
	crashes := 0
	for _, p := range b.pilots {
		c := p.Cluster()
		free = free && c.FreeCores() == c.CapCores() && c.FreeGPUs() == c.CapGPUs() && len(c.DownNodes()) == 0
		n, _ := p.FaultCounts()
		crashes += n
	}
	tl := b.tm.FaultTallies()
	out := &outcome{
		tasksFinal: b.finals,
		makespanH:  b.lastEnd.Hours(),
		digest: fmt.Sprintf("makespan=%d attempts=%d done=%d crashes=%d resubmits=%d events=%d",
			b.lastEnd, b.tm.Count(), b.done, crashes, tl.Resubmitted, b.engine.Fired()),
		checks: []check{
			checkf("records == TaskCount", len(recs) == b.tm.Count(),
				"%d task records, %d tasks submitted", len(recs), b.tm.Count()),
			checkf("ends within time limit", !b.overran,
				"%d of %d logical tasks had ended at the virtual-time limit", b.endedAtLimit, len(b.tasks)),
			checkf("every chain ends", b.chainsEnded == len(b.tasks),
				"%d of %d logical tasks ended", b.chainsEnded, len(b.tasks)),
			checkf("every attempt final", b.finals == b.tm.Count(),
				"%d of %d attempts reached a final state", b.finals, b.tm.Count()),
			checkf("ledgers free", free, "a pilot ledger is not fully free after the run"),
			checkf("tasks completed", b.done > len(b.tasks)*9/10,
				"only %d of %d logical tasks completed", b.done, len(b.tasks)),
		},
		layer: map[string]float64{},
	}
	if b.snapshot != nil {
		out.fleet = &allocProbe{cpuFleet: b.cpuFleet, free: b.snapshot}
	}
	l := out.layer
	l["simclock.events"] = float64(b.engine.Fired())
	l["pilot.attempts"] = float64(b.tm.Count())
	l["pilot.useful_ratio"] = doneRatio(recs)
	l["sched.queue_wait_p50_h"], l["sched.queue_wait_p99_h"] = queueWait(recs)
	l["fault.task_failures"] = float64(tl.ByKind[fault.KindTask])
	l["fault.node_crashes"] = float64(crashes)
	l["fault.resubmits"] = float64(tl.Resubmitted)
	l["taskbag.offered_load_cpu"], l["taskbag.offered_load_gpu"] = b.offered[0], b.offered[1]
	depths := make([]float64, len(b.depths))
	for i, d := range b.depths {
		depths[i] = float64(d)
	}
	l["taskbag.queue_depth_p50"] = median(depths)
	l["taskbag.queue_depth_max"] = quantile(depths, 1)
	return out, nil
}

// allocProbe times Cluster.Allocate on the taskbag's CPU fleet held at
// the occupancy the traced run measured at its middle arrival: a hit is a
// one-core request some node can host (timed with its Release), a miss a
// request every node's shape admits but no node has the free cores for —
// the refusal a saturated queue meets for every blocked task it retries.
type allocProbe struct {
	cpuFleet
	free []cluster.Request // per-node free capacity at the snapshot
}

const allocProbeCalls = 20000

func (a *allocProbe) probe() map[string]float64 {
	c, err := cluster.NewWithNodes(a.spec, a.caps)
	if err != nil {
		return nil
	}
	maxFree := 0
	for id, f := range a.free {
		if used := a.caps[id].Cores - f.Cores; used > 0 {
			c.AllocateOn(id, cluster.Request{Cores: used})
		}
		maxFree = max(maxFree, f.Cores)
	}
	m := map[string]float64{"cluster.occupancy": float64(c.AllocatedCores()) / float64(c.CapCores())}

	if maxFree > 0 {
		hit := cluster.Request{Cores: 1}
		t0 := time.Now()
		for i := 0; i < allocProbeCalls; i++ {
			c.Release(c.Allocate(hit))
		}
		m["cluster.alloc_hit_us"] = float64(time.Since(t0)) / 1e3 / allocProbeCalls
	}
	if maxFree < a.spec.CoresPerNode {
		miss := cluster.Request{Cores: maxFree + 1}
		for _, k := range a.kinds {
			if k.Cores > maxFree {
				miss.Cores = max(miss.Cores, k.Cores)
			}
		}
		t0 := time.Now()
		for i := 0; i < allocProbeCalls; i++ {
			if c.Allocate(miss) != nil {
				panic("taskbag: allocation probe miss request was granted")
			}
		}
		m["cluster.alloc_miss_us"] = float64(time.Since(t0)) / 1e3 / allocProbeCalls
	}
	return m
}
