package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"impress/internal/campaign"
	"impress/internal/fault"
	"impress/internal/fleet"
	"impress/internal/sched"
	"impress/internal/steer"
	"impress/internal/tenancy"
)

// flags is the flag set of impress run. The execution knobs and the
// workload flags bind straight into p, the campaign spec every run
// starts from; the two fault-model inputs that need assembling, the
// command-level flags and the single campaign's own flags live beside
// it.
type flags struct {
	fs *flag.FlagSet
	p  campaign.Params
	// scenarios are the scenarios -scenario names, once check has looked
	// them up.
	scenarios []campaign.Scenario

	// parallel is the campaign-engine worker count (0 = GOMAXPROCS).
	parallel int
	// repair is the node repair window (used when -mtbf is set).
	repair time.Duration
	// maintenance is the scheduled-maintenance description
	// (fault.ParseMaintenance syntax; "" = none).
	maintenance string
	// chromeTrace, when set, is the path the campaign timeline is
	// written to in Chrome Trace Event Format (open in Perfetto or
	// chrome://tracing). Setting it also turns telemetry on.
	chromeTrace string
	// cpuProfile and memProfile, when set, are the paths of a pprof CPU
	// profile of the whole run and of an allocation profile written when
	// profiling stops.
	cpuProfile, memProfile string

	protocol, scenario, targets, csv, json, pdbDir, out     string
	cycles, sequences, retries, maxConcurrent, gantt        int
	listScenarios, noSubs, noFinalAdaptive, events, verbose bool
}

// placement is the -pilots flag: "single" or "split", bound straight to
// Params.SplitPilots.
type placement bool

func (v *placement) String() string {
	if v != nil && *v {
		return "split"
	}
	return "single"
}

func (v *placement) Set(s string) error {
	switch s {
	case "single", "split":
		*v = s == "split"
		return nil
	}
	return fmt.Errorf("unknown pilot placement %q (want single or split)", s)
}

// newFlags declares every flag of impress run on fs.
func newFlags(fs *flag.FlagSet) *flags {
	f := &flags{fs: fs}
	p := &f.p
	fs.Uint64Var(&p.Seed, "seed", 42, "campaign seed (the first seed of a multi-seed run)")
	fs.IntVar(&f.parallel, "parallel", 1, "campaign engine workers (0 = GOMAXPROCS)")
	fs.Var((*placement)(&p.SplitPilots), "pilots", "pilot placement: single (one shared pilot, the default) or split (CPU pilot + GPU pilot)")
	fs.IntVar(&p.Nodes, "nodes", 1, "machine size in Amarel nodes (use >= 2 with -steer so nodes can actually move)")
	fs.StringVar(&p.Policy, "policy", "",
		"agent scheduling policy: "+strings.Join(sched.Names(), ", ")+" (empty = protocol default)")
	fs.Float64Var(&p.Fault.TaskFailProb, "fault", 0, "per-task failure probability injected into every pilot (0 = no task faults)")
	fs.DurationVar(&p.Fault.NodeMTBF, "mtbf", 0, "node mean-time-between-failures for the crash model (0 = no node crashes)")
	fs.DurationVar(&f.repair, "repair", fault.DefaultNodeRepair, "node repair window after a crash (with -mtbf)")
	fs.StringVar(&p.Recovery, "recovery", "",
		"fault-recovery policy: "+strings.Join(fault.Names(), ", ")+" (empty = none)")
	fs.DurationVar(&p.Fault.Domains.OutageMTBF, "outage-mtbf", 0, "mean time between whole-domain outages per failure domain (0 = no domain outages)")
	fs.DurationVar(&p.Fault.Domains.OutageDuration, "outage-dur", 0, "domain outage duration (0 = the -repair window)")
	fs.Float64Var(&p.Fault.Domains.CascadeProb, "cascade", 0, "probability a node crash cascades to each same-domain neighbor (0 = off; needs -mtbf)")
	fs.DurationVar(&p.Fault.Domains.CascadeWindow, "cascade-window", 0, "window cascade follow-up crashes land in (0 = default)")
	fs.StringVar(&f.maintenance, "maintenance", "",
		"scheduled maintenance windows, e.g. rackA@6h/30m/24h,rackB@12h/1h (domain@start/duration[/every]; empty = none)")
	fs.StringVar(&p.Steer, "steer", "",
		"elastic steering policy for multi-pilot campaigns: "+strings.Join(steer.Names(), ", ")+" (empty = none: partitions stay frozen)")
	fs.DurationVar(&p.CheckpointInterval, "checkpoint-interval", 0,
		"checkpoint cadence in virtual time for evict-and-resume, e.g. 30m (0 = off: interrupted attempts restart from zero)")
	fs.StringVar(&p.Fleet, "fleet", "",
		"fleet template spec for fleet-driven scenarios, e.g. cpu:28c0g128m*900+gpu:8c4g32m*100 (empty = scenario default)")
	fs.IntVar(&p.Tenants, "tenants", 0,
		"arriving campaigns in the tenant-sweep scenario (0 = scenario default)")
	fs.StringVar(&p.Arrival, "arrival", "",
		"tenant arrival process: "+strings.Join(fleet.ArrivalKinds(), ", ")+" (empty = scenario default)")
	fs.DurationVar(&p.ArrivalSpan, "arrival-span", 0,
		"tenant arrival window, e.g. 12h (0 = scenario default; ignored for instant arrivals)")
	fs.StringVar(&p.Admission, "admit", "",
		"admission-control policy for the shared pool: "+strings.Join(tenancy.Names(), ", ")+" (empty = race all of them)")
	fs.StringVar(&p.Reclaim, "reclaim", "",
		"inter-campaign steering policy: "+strings.Join(steer.TenantNames(), ", ")+" (empty = scenario default; none freezes grants)")
	fs.StringVar(&f.chromeTrace, "chrome-trace", "",
		"write the campaign timeline in Chrome Trace Event Format to this path (view in Perfetto; also enables telemetry)")
	fs.StringVar(&f.cpuProfile, "cpuprofile", "", "write a pprof CPU profile of the run to this path")
	fs.StringVar(&f.memProfile, "memprofile", "", "write a pprof allocation profile to this path at exit")

	fs.StringVar(&f.protocol, "protocol", "imrp", "protocol: imrp (adaptive) or contv (control)")
	fs.StringVar(&f.scenario, "scenario", "", "run registered scenarios instead of a single campaign: one name, or a comma-separated list run as one batch (e.g. table1,fig2,fig3,fig4,fig5); -list-scenarios shows all")
	fs.BoolVar(&f.listScenarios, "list-scenarios", false, "list registered scenarios and exit")
	fs.StringVar(&f.targets, "targets", "named", "workload: named (4 PDZ domains) or screen")
	fs.IntVar(&p.Targets, "screen-size", 70, "screen workload size (also the scenario Targets parameter, e.g. the Fig. 3 screen)")
	fs.IntVar(&p.Seeds, "seeds", 8, "seeds to sweep (multi-seed scenarios, e.g. sweep)")
	fs.IntVar(&f.cycles, "cycles", 0, "override design cycles per pipeline (0 = protocol default)")
	fs.IntVar(&f.sequences, "sequences", 0, "override MPNN sequences per cycle (0 = default)")
	fs.IntVar(&f.retries, "retries", -1, "override Stage-6 alternate retries (-1 = default)")
	fs.IntVar(&f.maxConcurrent, "max-concurrent", 0, "cap concurrently active pipelines (0 = unlimited)")
	fs.BoolVar(&f.noSubs, "no-subs", false, "disable dynamic sub-pipeline generation")
	fs.BoolVar(&f.noFinalAdaptive, "no-final-adaptive", false, "disable adaptivity in the final cycle (Fig. 3 setup)")
	fs.StringVar(&f.csv, "csv", "", "write the per-iteration CSV, or the one scenario's CSV report, to this path")
	fs.StringVar(&f.json, "json", "", "write the full campaign result as JSON to this path")
	fs.StringVar(&f.pdbDir, "pdb-dir", "", "write the best design per target as PDB files into this directory")
	fs.BoolVar(&f.events, "events", false, "print the campaign event log")
	fs.IntVar(&f.gantt, "gantt", 0, "print a task-timeline Gantt chart with up to N rows")
	fs.BoolVar(&f.verbose, "v", false, "also print per-trajectory details")
	fs.StringVar(&f.out, "out", "", "directory each scenario writes its report to, as <name>.txt and <name>.csv (optional)")
	return f
}

// check returns the usage error in the parsed command line, or nil: a
// stray argument, a bad value, an unknown scenario, or a flag the run
// does not honour. It looks up the scenarios -scenario names.
func (f *flags) check() error {
	if f.fs.NArg() > 0 {
		// Parsing stops at the first positional argument, so every flag
		// after it would be dropped silently too.
		return fmt.Errorf("unexpected argument %q: impress run takes flags only", f.fs.Arg(0))
	}
	if err := f.validate(); err != nil {
		return err
	}
	if f.scenario == "" {
		// A scenario reads -screen-size 0 as its default width; a single
		// screen campaign has none.
		if f.targets == "screen" && f.p.Targets < 1 {
			return fmt.Errorf("-screen-size %d: a screen campaign needs at least one target", f.p.Targets)
		}
	} else {
		var err error
		if f.scenarios, err = lookupScenarios(f.scenario); err != nil {
			return err
		}
	}
	return f.reject(f.rule())
}

// validate checks every flag value on its own, whatever the run.
func (f *flags) validate() error {
	p := &f.p
	if err := sched.Validate(p.Policy); err != nil {
		return err
	}
	if err := fault.Validate(p.Recovery); err != nil {
		return err
	}
	if err := steer.Validate(p.Steer); err != nil {
		return err
	}
	if p.Fleet != "" {
		// Parse errors name the offending segment, so a long spec stays
		// debuggable from the command line.
		if _, err := fleet.ParseSpec(p.Fleet); err != nil {
			return fmt.Errorf("-fleet: %w", err)
		}
	}
	if _, err := fault.ParseMaintenance(f.maintenance); err != nil {
		return fmt.Errorf("-maintenance: %w", err)
	}
	if f.parallel < 0 {
		return fmt.Errorf("-parallel %d: must be 0 (GOMAXPROCS) or more", f.parallel)
	}
	if p.Nodes < 1 {
		return fmt.Errorf("-nodes %d: machine needs at least one node", p.Nodes)
	}
	if p.Nodes > fleet.MaxNodes {
		return fmt.Errorf("-nodes %d: machine cannot exceed %d nodes", p.Nodes, fleet.MaxNodes)
	}
	if steer.Enabled(p.Steer) && !p.SplitPilots {
		return fmt.Errorf("-steer %s needs a multi-pilot placement (-pilots split)", p.Steer)
	}
	if steer.Enabled(p.Steer) && p.Nodes < 2 {
		return fmt.Errorf("-steer %s needs a multi-node machine (-nodes >= 2); on one node each split partition holds a single node and the last-node floor vetoes every transfer", p.Steer)
	}
	if p.CheckpointInterval < 0 {
		return fmt.Errorf("-checkpoint-interval %v: checkpoint cadence cannot be negative", p.CheckpointInterval)
	}
	if p.Tenants < 0 {
		return fmt.Errorf("-tenants %d: tenant count cannot be negative", p.Tenants)
	}
	if p.Arrival != "" {
		if err := fleet.ValidateArrival(p.Arrival); err != nil {
			return fmt.Errorf("-arrival: %w", err)
		}
	}
	if p.ArrivalSpan < 0 {
		return fmt.Errorf("-arrival-span %v: arrival window cannot be negative", p.ArrivalSpan)
	}
	if p.Admission != "" {
		if err := tenancy.Validate(p.Admission); err != nil {
			return fmt.Errorf("-admit: %w", err)
		}
	}
	if err := steer.ValidateTenant(p.Reclaim); err != nil {
		return fmt.Errorf("-reclaim: %w", err)
	}
	// fault.Spec.Validate checks these too, but names the package, not
	// the flag. Written so that NaN fails.
	for _, c := range []struct {
		name string
		p    float64
	}{{"fault", p.Fault.TaskFailProb}, {"cascade", p.Fault.Domains.CascadeProb}} {
		if !(c.p >= 0 && c.p < 1) {
			return fmt.Errorf("-%s %v: must be in [0, 1)", c.name, c.p)
		}
	}
	if err := f.fault().Validate(); err != nil {
		return err
	}
	// 0 (and -1 for -retries) selects a default; a count below that is a
	// usage error, not another way to ask for the default.
	for _, c := range []struct {
		name       string
		val, floor int
	}{
		{"seeds", p.Seeds, 0},
		{"screen-size", p.Targets, 0},
		{"cycles", f.cycles, 0},
		{"sequences", f.sequences, 0},
		{"retries", f.retries, -1},
		{"max-concurrent", f.maxConcurrent, 0},
		{"gantt", f.gantt, 0},
	} {
		if c.val < c.floor {
			return fmt.Errorf("-%s %d: must be %d or more", c.name, c.val, c.floor)
		}
	}
	return nil
}

// params returns the campaign spec the flags describe, the one every
// run starts from.
func (f *flags) params() campaign.Params {
	p := f.p
	p.Fault = f.fault()
	p.Telemetry = f.chromeTrace != ""
	return p
}

// fault assembles the failure-model spec the flags describe. Call
// validate first: a malformed -maintenance spec is reported there and
// silently dropped here.
func (f *flags) fault() fault.Spec {
	s := f.p.Fault
	if s.NodeMTBF > 0 {
		s.NodeRepair = f.repair
	}
	s.Domains.Maintenance, _ = fault.ParseMaintenance(f.maintenance)
	return s
}

// rule returns the phrase naming what the parsed flags will run ("flags
// [...] do not apply to <scope>") and whether that honours each flag. A
// single campaign honours every flag but the sweep width, the tenancy
// flags and -out. A scenario run honours every execution knob, and each
// flag of scenarioFlag that some named scenario reads, but none of
// campaignOnly; -csv names one file, so it needs a lone scenario with a
// CSV report.
func (f *flags) rule() (string, func(string) bool) {
	if f.scenario == "" {
		return "single-campaign runs (use -scenario)", func(name string) bool {
			return name != "seeds" && name != "out" && !tenancyFlag(name)
		}
	}
	return "-scenario " + f.scenario + " runs", func(name string) bool {
		switch name {
		case "scenario", "list-scenarios":
			return true
		case "csv":
			return len(f.scenarios) == 1 && f.scenarios[0].ReportCSV != nil
		}
		if reads := scenarioFlag(name); reads != nil {
			return slices.ContainsFunc(f.scenarios, reads)
		}
		return !campaignOnly(name)
	}
}

// scenarioFlag returns, for a flag only some scenarios honour, whether
// a scenario does: the workload flags it declares it reads, and -out
// when it has a report to write. It returns nil for every other flag.
func scenarioFlag(name string) func(campaign.Scenario) bool {
	switch {
	case name == "seeds":
		return func(sc campaign.Scenario) bool { return sc.Reads.Seeds }
	case name == "screen-size":
		return func(sc campaign.Scenario) bool { return sc.Reads.Targets }
	case name == "fleet":
		return func(sc campaign.Scenario) bool { return sc.Reads.Fleet }
	case tenancyFlag(name):
		return func(sc campaign.Scenario) bool { return sc.Reads.Tenancy }
	case name == "out":
		return func(sc campaign.Scenario) bool { return sc.Report != nil || sc.ReportCSV != nil }
	}
	return nil
}

// tenancyFlag reports whether name is one of the tenancy flags, which
// only a scenario that reads the tenant stream honours (tenant-sweep).
func tenancyFlag(name string) bool {
	switch name {
	case "tenants", "arrival", "arrival-span", "admit", "reclaim":
		return true
	}
	return false
}

// campaignOnly reports whether name is one of the flags only a single
// campaign honours: its protocol, workload and overrides, and the
// outputs of one campaign.
func campaignOnly(name string) bool {
	switch name {
	case "protocol", "targets", "cycles", "sequences", "retries", "max-concurrent",
		"no-subs", "no-final-adaptive", "json", "pdb-dir", "events", "gantt", "v":
		return true
	}
	return false
}

// reject returns an error naming every flag set explicitly on the
// command line that the run does not honour, or nil. scope completes
// the message "flags [...] do not apply to <scope>".
func (f *flags) reject(scope string, honoured func(name string) bool) error {
	var ignored []string
	f.fs.Visit(func(fl *flag.Flag) {
		if !honoured(fl.Name) {
			ignored = append(ignored, "-"+fl.Name)
		}
	})
	if len(ignored) == 0 {
		return nil
	}
	return fmt.Errorf("flags %v do not apply to %s", ignored, scope)
}

// warnings returns advisory messages for flag combinations that parse
// and validate but do nothing: a dependent flag was set while the
// mechanism it rides on is off. A single campaign prints them to stderr;
// scenarios supply their own defaults, so flag-only analysis would cry
// wolf there, and scenario runs print none.
func (f *flags) warnings() []string {
	p := &f.p
	var out []string
	if p.Recovery != "" && !f.fault().Enabled() {
		out = append(out, fmt.Sprintf(
			"-recovery %s has no effect without a failure model (set -fault, -mtbf, -outage-mtbf, or -maintenance)", p.Recovery))
	}
	if p.CheckpointInterval > 0 && !f.fault().Enabled() && p.Steer != "preempt" {
		out = append(out, fmt.Sprintf(
			"-checkpoint-interval %v has no effect: nothing evicts running work without a failure model or -steer preempt", p.CheckpointInterval))
	}
	if p.Steer == "preempt" && p.CheckpointInterval == 0 {
		out = append(out,
			"-steer preempt without -checkpoint-interval loses all progress on every drain (evicted work resumes from zero)")
	}
	return out
}

// printWarnings writes every warnings line to w, prefixed "warning:".
func (f *flags) printWarnings(w io.Writer) {
	for _, msg := range f.warnings() {
		fmt.Fprintln(w, "warning:", msg)
	}
}

// startProfiles begins CPU profiling when -cpuprofile was given and
// returns a stop function that finishes the CPU profile and writes the
// -memprofile allocation snapshot. The stop function is idempotent and
// safe to both defer and call explicitly before os.Exit; with neither
// flag set it does nothing.
func (f *flags) startProfiles() (stop func(), err error) {
	var cpuFile *os.File
	if f.cpuProfile != "" {
		cpuFile, err = os.Create(f.cpuProfile)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, err
		}
	}
	done := false
	return func() {
		if done {
			return
		}
		done = true
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if f.memProfile != "" {
			out, err := os.Create(f.memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "memprofile:", err)
				return
			}
			runtime.GC() // materialize the live set before the snapshot
			if err := pprof.Lookup("allocs").WriteTo(out, 0); err != nil {
				fmt.Fprintln(os.Stderr, "memprofile:", err)
			}
			out.Close()
		}
	}, nil
}
