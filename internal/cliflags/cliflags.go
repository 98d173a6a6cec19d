// Package cliflags is the shared flag plumbing of the impress commands.
//
// impress-run, impress-sweep, and impress-experiments all expose the
// same execution knobs — seed, engine parallelism, pilot placement,
// scheduling policy, the fault/recovery configuration, steering,
// preemption and tenancy. Here the common set is registered once, with
// per-command defaults, bound straight into the campaign.Params every
// mode runs from, validated in one place, and guarded in one place
// against flags a mode does not honour (Common.Reject).
package cliflags

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"impress/internal/campaign"
	"impress/internal/fault"
	"impress/internal/fleet"
	"impress/internal/sched"
	"impress/internal/steer"
	"impress/internal/tenancy"
)

// Options sets the per-command differences when registering the common
// flags.
type Options struct {
	// SeedName renames the seed flag (impress-sweep calls it
	// "first-seed"); empty means "seed".
	SeedName string
	// SeedDefault is the seed flag's default (0 is taken literally, so
	// commands wanting the classic 42 must say so).
	SeedDefault uint64
	// SeedUsage overrides the seed flag's usage text.
	SeedUsage string
	// ParallelDefault is the -parallel default (0 = GOMAXPROCS).
	ParallelDefault int
	// WithPilots also registers -pilots (single|split); commands whose
	// campaigns fix their own placement leave it off.
	WithPilots bool
}

// Common holds the parsed values of the shared flags. The execution
// knobs bind straight into a campaign.Params, the one spec every mode
// runs from; only the two fault-model inputs that need assembling and
// the command-level flags live here.
type Common struct {
	p campaign.Params

	// Parallel is the campaign-engine worker count (0 = GOMAXPROCS).
	Parallel int
	// Repair is the node repair window (used when -mtbf is set).
	Repair time.Duration
	// MaintenanceSpec is the scheduled-maintenance description
	// (fault.ParseMaintenance syntax; "" = none).
	MaintenanceSpec string
	// ChromeTrace, when set, is the path the campaign's Chrome Trace
	// Event Format timeline is written to (open in Perfetto or
	// chrome://tracing). Setting it also turns the telemetry recorder on.
	ChromeTrace string
	// CPUProfile, when set, is the path a pprof CPU profile is written to
	// for the whole command run.
	CPUProfile string
	// MemProfile, when set, is the path an allocation profile is written
	// to when profiling stops.
	MemProfile string

	withPilots bool
	fs         *flag.FlagSet
	shared     map[string]bool
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

// Register declares the shared flags on fs and returns the value holder.
func Register(fs *flag.FlagSet, o Options) *Common {
	c := &Common{withPilots: o.WithPilots, fs: fs, shared: make(map[string]bool)}
	p := &c.p
	seedName := o.SeedName
	if seedName == "" {
		seedName = "seed"
	}
	seedUsage := o.SeedUsage
	if seedUsage == "" {
		seedUsage = "campaign seed"
	}
	fs.Uint64Var(&p.Seed, seedName, o.SeedDefault, seedUsage)
	fs.IntVar(&c.Parallel, "parallel", o.ParallelDefault, "campaign engine workers (0 = GOMAXPROCS)")
	if o.WithPilots {
		fs.Var((*placement)(&p.SplitPilots), "pilots", "pilot placement: single (one shared pilot, the default) or split (CPU pilot + GPU pilot)")
		fs.IntVar(&p.Nodes, "nodes", 1, "machine size in Amarel nodes (use >= 2 with -steer so nodes can actually move)")
	}
	fs.StringVar(&p.Policy, "policy", "",
		"agent scheduling policy: "+strings.Join(sched.Names(), ", ")+" (empty = protocol default)")
	fs.Float64Var(&p.Fault.TaskFailProb, "fault", 0, "per-task failure probability injected into every pilot (0 = no task faults)")
	fs.DurationVar(&p.Fault.NodeMTBF, "mtbf", 0, "node mean-time-between-failures for the crash model (0 = no node crashes)")
	fs.DurationVar(&c.Repair, "repair", fault.DefaultNodeRepair, "node repair window after a crash (with -mtbf)")
	fs.StringVar(&p.Recovery, "recovery", "",
		"fault-recovery policy: "+strings.Join(fault.Names(), ", ")+" (empty = none)")
	fs.DurationVar(&p.Fault.Domains.OutageMTBF, "outage-mtbf", 0, "mean time between whole-domain outages per failure domain (0 = no domain outages)")
	fs.DurationVar(&p.Fault.Domains.OutageDuration, "outage-dur", 0, "domain outage duration (0 = the -repair window)")
	fs.Float64Var(&p.Fault.Domains.CascadeProb, "cascade", 0, "probability a node crash cascades to each same-domain neighbor (0 = off; needs -mtbf)")
	fs.DurationVar(&p.Fault.Domains.CascadeWindow, "cascade-window", 0, "window cascade follow-up crashes land in (0 = default)")
	fs.StringVar(&c.MaintenanceSpec, "maintenance", "",
		"scheduled maintenance windows, e.g. rackA@6h/30m/24h,rackB@12h/1h (domain@start/duration[/every]; empty = none)")
	fs.StringVar(&p.Steer, "steer", "",
		"elastic steering policy for multi-pilot campaigns: "+strings.Join(steer.Names(), ", ")+" (empty = none: partitions stay frozen)")
	fs.DurationVar(&p.CheckpointInterval, "checkpoint-interval", 0,
		"checkpoint cadence in virtual time for evict-and-resume, e.g. 30m (0 = off: interrupted attempts restart from zero)")
	fs.DurationVar(&p.WalltimeGrace, "walltime-grace", 0,
		"graceful drain window at fault-model walltime expiry: running work that cannot finish is checkpointed and requeued (0 = hard kill)")
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
	fs.StringVar(&c.ChromeTrace, "chrome-trace", "",
		"write the campaign timeline in Chrome Trace Event Format to this path (view in Perfetto; also enables telemetry)")
	fs.StringVar(&c.CPUProfile, "cpuprofile", "", "write a pprof CPU profile of the run to this path")
	fs.StringVar(&c.MemProfile, "memprofile", "", "write a pprof allocation profile to this path at exit")
	fs.VisitAll(func(f *flag.Flag) { c.shared[f.Name] = true })
	return c
}

// Params returns the campaign spec the shared flags describe. Commands
// fill in the workload fields (Seeds, Targets) from their own flags.
func (c *Common) Params() campaign.Params {
	p := c.p
	p.Fault = c.Fault()
	p.Telemetry = c.ChromeTrace != ""
	return p
}

// Reject returns an error naming every flag set explicitly on the
// command line that the running mode does not honour, or nil. mode
// completes the message "flags [...] do not apply to <mode>".
func (c *Common) Reject(mode string, honoured func(name string) bool) error {
	var ignored []string
	c.fs.Visit(func(f *flag.Flag) {
		if !honoured(f.Name) {
			ignored = append(ignored, "-"+f.Name)
		}
	})
	if len(ignored) == 0 {
		return nil
	}
	return fmt.Errorf("flags %v do not apply to %s", ignored, mode)
}

// Shared reports whether name is one of the flags Register declared, as
// opposed to one a command registered itself.
func (c *Common) Shared(name string) bool { return c.shared[name] }

// StartProfiles begins CPU profiling when -cpuprofile was given and
// returns a stop function that finishes the CPU profile and writes the
// -memprofile allocation snapshot. The stop function is idempotent and
// safe to both defer and call explicitly before os.Exit; with neither
// flag set it does nothing.
func (c *Common) StartProfiles() (stop func(), err error) {
	var cpuFile *os.File
	if c.CPUProfile != "" {
		cpuFile, err = os.Create(c.CPUProfile)
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
		if c.MemProfile != "" {
			f, err := os.Create(c.MemProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "memprofile:", err)
				return
			}
			runtime.GC() // materialize the live set before the snapshot
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintln(os.Stderr, "memprofile:", err)
			}
			f.Close()
		}
	}, nil
}

// Validate checks every shared value; commands call it right after
// flag.Parse and print the error verbatim.
func (c *Common) Validate() error {
	p := &c.p
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
	if _, err := fault.ParseMaintenance(c.MaintenanceSpec); err != nil {
		return fmt.Errorf("-maintenance: %w", err)
	}
	if c.withPilots {
		if p.Nodes < 1 {
			return fmt.Errorf("-nodes %d: machine needs at least one node", p.Nodes)
		}
		if steer.Enabled(p.Steer) && !p.SplitPilots {
			return fmt.Errorf("-steer %s needs a multi-pilot placement (-pilots split)", p.Steer)
		}
		if steer.Enabled(p.Steer) && p.Nodes < 2 {
			return fmt.Errorf("-steer %s needs a multi-node machine (-nodes >= 2); on one node each split partition holds a single node and the last-node floor vetoes every transfer", p.Steer)
		}
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
	if p.WalltimeGrace < 0 {
		return fmt.Errorf("-walltime-grace %v: drain window cannot be negative", p.WalltimeGrace)
	}
	return c.Fault().Validate()
}

// Warnings returns advisory messages for flag combinations that parse
// and validate but do nothing: a dependent flag was set while the
// mechanism it rides on is off. Commands print them to stderr on direct
// campaign runs (scenario runs supply their own defaults, so flag-only
// analysis would cry wolf there).
func (c *Common) Warnings() []string {
	p := &c.p
	var out []string
	if p.Recovery != "" && !c.Fault().Enabled() {
		out = append(out, fmt.Sprintf(
			"-recovery %s has no effect without a failure model (set -fault, -mtbf, -outage-mtbf, or -maintenance)", p.Recovery))
	}
	if p.CheckpointInterval > 0 && !c.Fault().Enabled() && p.Steer != "preempt" {
		out = append(out, fmt.Sprintf(
			"-checkpoint-interval %v has no effect: nothing evicts running work without a failure model or -steer preempt", p.CheckpointInterval))
	}
	if p.WalltimeGrace > 0 && c.Fault().Walltime == 0 {
		out = append(out, fmt.Sprintf(
			"-walltime-grace %v has no effect without a fault-model walltime bounding a pilot", p.WalltimeGrace))
	}
	if p.Steer == "preempt" && p.CheckpointInterval == 0 {
		out = append(out,
			"-steer preempt without -checkpoint-interval loses all progress on every drain (evicted work resumes from zero)")
	}
	return out
}

// PrintWarnings writes every Warnings line to w, prefixed "warning:".
func (c *Common) PrintWarnings(w io.Writer) {
	for _, msg := range c.Warnings() {
		fmt.Fprintln(w, "warning:", msg)
	}
}

// Fault assembles the failure-model spec the shared flags describe.
// Call Validate first: a malformed -maintenance spec is reported there
// and silently dropped here.
func (c *Common) Fault() fault.Spec {
	s := c.p.Fault
	if s.NodeMTBF > 0 {
		s.NodeRepair = c.Repair
	}
	s.Domains.Maintenance, _ = fault.ParseMaintenance(c.MaintenanceSpec)
	return s
}
