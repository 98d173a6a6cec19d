// Command perfbench is the repository benchmark. One invocation builds one
// workload's inputs from a seed, sets it up and runs it repeatedly until a
// wall-clock budget is spent, checks every simulated outcome, and prints one
// JSON result line as the last line of standard output:
//
//	bash perfbench/run.sh --workload mega-screen --seed 42 --seconds 30 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics (medians over the
// repetitions). With --trace 1 the same untraced repetitions run first, then
// one traced repetition with spans around the benchmark's own calls into each
// layer, a per-Step timer, a CPU profile and standalone kernel probes; the
// result then carries the per-layer metrics BENCHMARK.json declares. Every
// layer is measured from outside: the benchmark times its own calls into
// public functions and drives the simulation engine itself, so the program
// under test is not modified.
//
// Workloads, metrics and the layer-to-end-to-end map are documented in
// README.md next to this file.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"

	"impress/internal/trace"
)

// Concurrency is pinned so that a run measures the same thing on every
// machine: one OS thread executes Go code, and MPNN sampling runs its
// candidates on one goroutine. Both values are reported with the result.
const (
	pinnedProcs     = 1
	mpnnParallelism = 1
	minReps         = 3
	minSetupSamples = 3
)

// benchSpec is the benchmark definition at the repository root; the traced
// run reads its per-layer metrics from it.
const benchSpec = "BENCHMARK.json"

// layerMetric is one per-layer metric of the traced run, as a per_layer
// entry of BENCHMARK.json declares it.
type layerMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// check is one correctness assertion over a repetition's outputs. Each
// check counts as one attempted operation; a false one counts as failed.
type check struct {
	name string
	ok   bool
	info string
}

func checkf(name string, ok bool, format string, args ...any) check {
	return check{name: name, ok: ok, info: fmt.Sprintf(format, args...)}
}

// outcome is what a workload's run phase reports about the simulation.
type outcome struct {
	// tasksFinal counts task attempts that reached a final state.
	tasksFinal int
	makespanH  float64
	// plddtGain is the net median pLDDT gain; zero for workloads that run
	// no science.
	plddtGain float64
	// digest summarizes the simulated outputs; traced and untraced runs of
	// one seed must produce the same digest.
	digest string
	checks []check
	// layer holds per-layer counts read off the simulation's results.
	layer map[string]float64
	// records are the run's task records, which say how often each
	// science kernel ran; nil when the workload runs no science.
	records []trace.TaskRecord
	// fleet carries the taskbag fleet for the allocation probe.
	fleet *allocProbe
}

// instance is a set-up workload, ready to run once.
type instance interface {
	run(tr *tracer) (*outcome, error)
}

// benchWorkload builds an instance from a seed; the build is the set-up
// phase.
type benchWorkload struct {
	name  string
	setup func(seed uint64, tr *tracer) (instance, error)
}

var workloads = []benchWorkload{
	{"mega-screen", setupMegaScreen},
	{"taskbag", setupTaskbag},
	{"tenant-wave", setupTenantWave},
}

// rep is one measured set-up plus run.
type rep struct {
	setupS  float64
	wallS   float64
	cpuS    float64
	allocMB float64
	gcs     uint32
	gcPause time.Duration
	out     *outcome
	// setupSpeed and runSpeed are the speedometer's slices during each
	// phase; setupS and wallS exclude their time.
	setupSpeed, runSpeed slices
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: mega-screen, taskbag or tenant-wave")
		seed    = flag.Uint64("seed", 42, "input seed")
		seconds = flag.Int("seconds", 30, "wall-clock budget for the measured repetitions")
		traced  = flag.Int("trace", 0, "1 adds a traced repetition and reports per-layer metrics")
		record  = flag.String("record-stagemix", "", "record the taskbag stage mix from a mega-screen run into this file and exit")
	)
	flag.Parse()
	runtime.GOMAXPROCS(pinnedProcs)

	if *record != "" {
		if err := recordStageMix(*record, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	var w *benchWorkload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds >= 1, --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	var layers []layerMetric
	if *traced == 1 {
		var err error
		if layers, err = loadLayerMetrics(benchSpec); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
	}
	res, err := bench(*w, *seed, time.Duration(*seconds)*time.Second, layers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// loadLayerMetrics reads the per_layer metrics of the benchmark definition
// at path. A traced run reports every one of them on every workload; a
// layer the workload does not exercise reads 0.
func loadLayerMetrics(path string) ([]layerMetric, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		PerLayer []layerMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(spec.PerLayer) == 0 {
		return nil, fmt.Errorf("%s: no per_layer metrics", path)
	}
	return spec.PerLayer, nil
}

// bench runs the measured repetitions and assembles the result line. When
// layers is non-nil it adds the traced repetition and reports those
// per-layer metrics in place of the end-to-end ones.
func bench(w benchWorkload, seed uint64, budget time.Duration, layers []layerMetric) (*result, error) {
	traced := layers != nil
	fmt.Printf("workload=%s seed=%d budget=%v trace=%v GOMAXPROCS=%d mpnn.Parallelism=%d nproc=%d\n",
		w.name, seed, budget, traced, runtime.GOMAXPROCS(0), mpnnParallelism, runtime.NumCPU())
	var (
		reps   []rep
		setups []float64
		setupG slices
		checks []check
	)
	// Repetitions continue while the next one, taking as long as the mean
	// so far, still ends within the budget; at least minReps run. Extra
	// set-ups, for a median over more samples, are paced through the
	// window: after each repetition they are timed until they add up to a
	// tenth of the time spent so far. A short set-up thus gives many
	// samples, spread over the run the way the repetitions are. The
	// speedometer samples the machine's speed throughout.
	speed := startSpeedometer()
	start := time.Now()
	extra := 0.0
repeat:
	for len(reps) < minReps ||
		time.Since(start).Seconds()+(time.Since(start).Seconds()-extra)/float64(len(reps)) <= budget.Seconds() {
		r, err := measure(w, seed, nil, speed)
		if err != nil {
			checks = append(checks, checkf("run", false, "repetition %d: %v", len(reps)+1, err))
			break
		}
		// Probe inputs come from the traced repetition only.
		r.out.records, r.out.fleet = nil, nil
		reps = append(reps, r)
		setups = append(setups, r.setupS)
		setupG = append(setupG, r.setupSpeed...)
		checks = append(checks, r.out.checks...)
		fmt.Printf("rep %d: setup %.3fs wall %.3fs cpu %.3fs slice %.1fus mean %.1fus alloc %.1fMB tasks %d makespan %.2fh\n",
			len(reps), r.setupS, r.wallS, r.cpuS, r.runSpeed.medianUS(), r.runSpeed.meanUS(), r.allocMB, r.out.tasksFinal, r.out.makespanH)
		for extra < time.Since(start).Seconds()/10 {
			s, g, err := timeSetup(w, seed, speed)
			if err != nil {
				checks = append(checks, checkf("setup", false, "%v", err))
				break repeat
			}
			setups = append(setups, s)
			setupG = append(setupG, g...)
			extra += s
		}
	}
	for len(reps) > 0 && len(setups) < minSetupSamples {
		s, g, err := timeSetup(w, seed, speed)
		if err != nil {
			checks = append(checks, checkf("setup", false, "%v", err))
			break
		}
		setups = append(setups, s)
		setupG = append(setupG, g...)
	}
	speed.close()
	if len(reps) == 0 {
		for _, c := range checks {
			fmt.Fprintf(os.Stderr, "check failed: %s: %s\n", c.name, c.info)
		}
		return nil, fmt.Errorf("no repetition completed")
	}
	fmt.Printf("setup: %d samples, median %.4fs, slice %.1fus mean %.1fus\n", len(setups), median(setups), setupG.medianUS(), setupG.meanUS())
	for i := 1; i < len(reps); i++ {
		checks = append(checks, checkf("deterministic", reps[i].out.digest == reps[0].out.digest,
			"repetition %d digest %q != %q", i+1, reps[i].out.digest, reps[0].out.digest))
	}

	var metrics map[string]metric
	if traced {
		lm, tchecks, err := traceRun(w, seed, reps, layers)
		checks = append(checks, tchecks...)
		if err != nil {
			checks = append(checks, checkf("traced run", false, "%v", err))
		}
		metrics = lm
	} else {
		metrics = endToEnd(reps, setups, setupG)
	}

	res := &result{Metrics: metrics, Attempted: len(checks)}
	for _, c := range checks {
		if !c.ok {
			res.Failed++
			fmt.Fprintf(os.Stderr, "check failed: %s: %s\n", c.name, c.info)
		}
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// measure sets the workload up and runs it once, timing both phases. Each
// timed phase starts from a fresh collection so garbage from the previous
// phase is not billed to it, and the time speed's slices took is taken out
// of it. A panic anywhere in the program is reported as an error.
func measure(w benchWorkload, seed uint64, tr *tracer, speed *speedometer) (r rep, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v\n%s", p, debug.Stack())
		}
	}()
	runtime.GC()
	g0 := speed.mark()
	t0 := time.Now()
	inst, err := w.setup(seed, tr)
	elapsed := time.Since(t0)
	r.setupSpeed = speed.since(g0)
	r.setupS = (elapsed - r.setupSpeed.spent()).Seconds()
	if err != nil {
		return r, fmt.Errorf("set-up: %w", err)
	}
	if sw, ok := inst.(scienceWorkload); ok && tr != nil {
		if tr.probe, err = newScienceProbe(sw.scienceInputs()); err != nil {
			return r, fmt.Errorf("probe set-up: %w", err)
		}
		tr.probeEvery = max(1, tr.expectedSteps/(len(tr.probe.calls)+1))
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	g0 = speed.mark()
	cpu0 := cpuTime()
	t1 := time.Now()
	tr.startProfile()
	out, err := inst.run(tr)
	elapsed = time.Since(t1)
	r.runSpeed = speed.since(g0)
	r.wallS = (elapsed - tr.probeSpent() - r.runSpeed.spent()).Seconds()
	r.cpuS = cpuTime() - cpu0 - (tr.probeSpent() + r.runSpeed.spent()).Seconds()
	tr.stopProfile()
	runtime.ReadMemStats(&m1)
	if err != nil {
		return r, fmt.Errorf("run: %w", err)
	}
	r.allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6
	r.gcs = m1.NumGC - m0.NumGC
	r.gcPause = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
	r.out = out
	return r, nil
}

// timeSetup times one extra set-up whose instance is discarded, without
// the time speed's slices took, and returns those slices.
func timeSetup(w benchWorkload, seed uint64, speed *speedometer) (s float64, g slices, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("set-up panic: %v", p)
		}
	}()
	runtime.GC()
	g0 := speed.mark()
	t0 := time.Now()
	_, err = w.setup(seed, nil)
	elapsed := time.Since(t0)
	g = speed.since(g0)
	return (elapsed - g.spent()).Seconds(), g, err
}

// endToEnd reduces the untraced repetitions to the end-to-end metrics.
// Timings are scaled to reference speed: each repetition's run by the
// speed measured during it, set-up by the speed over all set-ups.
func endToEnd(reps []rep, setups []float64, setupSpeed slices) map[string]metric {
	var wall, alloc, tput []float64
	for _, r := range reps {
		w := r.wallS * r.runSpeed.scale()
		wall = append(wall, w)
		alloc = append(alloc, r.allocMB)
		tput = append(tput, float64(r.out.tasksFinal)/w)
	}
	return map[string]metric{
		"setup_s":        {median(setups) * setupSpeed.scale(), "s"},
		"wall_s":         {median(wall), "s"},
		"tasks_per_s":    {median(tput), "1/s"},
		"alloc_mb":       {median(alloc), "MB"},
		"peak_rss_mb":    {peakRSSMB(), "MB"},
		"sim_makespan_h": {reps[0].out.makespanH, "h"},
	}
}

// traceRun runs one traced repetition under the CPU profiler, probes the
// kernels on the workload's own inputs, and assembles the per-layer metrics
// the layers list declares. A value the benchmark measures but the list
// does not declare fails a check.
func traceRun(w benchWorkload, seed uint64, untraced []rep, layers []layerMetric) (map[string]metric, []check, error) {
	var wall []float64
	for _, r := range untraced {
		wall = append(wall, r.wallS)
	}
	wallMedian := median(wall)

	tr := newTracer()
	tr.expectedSteps = int(untraced[0].out.layer["simclock.events"])
	r, err := measure(w, seed, tr, nil)
	if err != nil {
		return nil, nil, err
	}
	checks := append([]check(nil), r.out.checks...)
	checks = append(checks, checkf("traced == untraced", r.out.digest == untraced[0].out.digest,
		"traced digest %q != untraced %q", r.out.digest, untraced[0].out.digest))

	m := make(map[string]metric, len(layers))
	for _, d := range layers {
		m[d.Name] = metric{0, d.Unit}
	}
	var undeclared []string
	set := func(name string, v float64) {
		d, ok := m[name]
		if !ok {
			undeclared = append(undeclared, name)
			return
		}
		m[name] = metric{v, d.Unit}
	}
	for k, v := range r.out.layer {
		set(k, v)
	}
	set("trace.overhead", r.wallS/wallMedian)
	set("gc.cycles", float64(r.gcs))
	set("gc.pause_ms", float64(r.gcPause)/1e6)
	set("config.gomaxprocs", float64(runtime.GOMAXPROCS(0)))
	set("config.mpnn_parallelism", mpnnParallelism)
	set("workload.build_s", tr.total("workload.build"))
	set("core.start_s", tr.total("core.start"))
	set("core.finish_s", tr.total("core.finish"))
	if run := tr.total("simclock.run") - tr.probeSpent().Seconds(); run > 0 {
		set("simclock.events_per_s", r.out.layer["simclock.events"]/run)
	}
	if n := len(tr.steps); n > 0 {
		set("simclock.step_p50_us", quantileDur(tr.steps, 0.5))
		set("simclock.step_p999_us", quantileDur(tr.steps, 0.999))
		set("simclock.step_samples", float64(n))
	}
	if n := len(tr.submits); n > 0 {
		set("pilot.submit_p50_us", quantileDur(tr.submits, 0.5))
		set("pilot.submit_p99_us", quantileDur(tr.submits, 0.99))
		set("pilot.submit_samples", float64(n))
	}
	for _, name := range []string{"telemetry.export", "telemetry.critpath", "report.render"} {
		set(name+"_s", tr.total(name))
	}
	if tr.probe != nil {
		set("science.plddt_gain", r.out.plddtGain)
		for k, v := range tr.probe.metrics(r.out.records, r.wallS) {
			set(k, v)
		}
	}
	if r.out.fleet != nil {
		for k, v := range r.out.fleet.probe() {
			set(k, v)
		}
	}
	cpu, err := tr.cpuShares()
	if err != nil {
		checks = append(checks, checkf("cpu profile", false, "%v", err))
	}
	for k, v := range cpu {
		set(k, v)
	}
	if tr.probe != nil && cpu["cpu.samples"] > 0 {
		set("cpu.mpnn_gap_pts", math.Abs(100*m["mpnn.share"].Value-cpu["cpu.cum.mpnn"]))
		set("cpu.fold_gap_pts", math.Abs(100*m["fold.share"].Value-cpu["cpu.cum.fold"]))
	}
	sort.Strings(undeclared)
	checks = append(checks, checkf("per-layer metrics declared", len(undeclared) == 0,
		"%s declares no per_layer entry for %s", benchSpec, strings.Join(undeclared, ", ")))
	if err := tr.write(fmt.Sprintf(".bench_build/spans-%s-%d.json", w.name, seed)); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: span dump skipped:", err)
	}
	return m, checks, nil
}

// peakRSSMB reads the process's peak resident set size.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	return math.NaN()
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quantile interpolates linearly between order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// quantileDur returns a duration quantile in microseconds.
func quantileDur(ds []time.Duration, q float64) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d) / 1e3
	}
	return quantile(xs, q)
}

// cpuTime is the process's user plus system CPU time in seconds.
func cpuTime() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return math.NaN()
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}
