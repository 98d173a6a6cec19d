package cliflags

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

func parse(t *testing.T, o Options, args ...string) *Common {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	c := Register(fs, o)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestDefaultsAndRenaming(t *testing.T) {
	c := parse(t, Options{SeedDefault: 42, ParallelDefault: 1, WithPilots: true})
	if c.p.Seed != 42 || c.Parallel != 1 || c.p.SplitPilots || c.p.Recovery != "" || c.p.Fault.TaskFailProb != 0 {
		t.Fatalf("defaults wrong: %+v", c)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.Fault().Enabled() {
		t.Fatal("default fault spec enabled")
	}

	c = parse(t, Options{SeedName: "first-seed", SeedDefault: 100}, "-first-seed", "7")
	if c.p.Seed != 7 {
		t.Fatalf("renamed seed flag not parsed: %+v", c)
	}
}

func TestFaultFlags(t *testing.T) {
	c := parse(t, Options{WithPilots: true},
		"-fault", "0.2", "-mtbf", "6h", "-repair", "20m", "-recovery", "elsewhere",
		"-pilots", "split", "-nodes", "4", "-steer", "hysteresis")
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.p.Steer != "hysteresis" || c.p.Nodes != 4 {
		t.Fatalf("steer/nodes flags not parsed: %+v", c)
	}
	if !c.Params().SplitPilots {
		t.Fatal("split placement not detected")
	}
	s := c.Fault()
	if s.TaskFailProb != 0.2 || s.NodeMTBF != 6*time.Hour || s.NodeRepair != 20*time.Minute {
		t.Fatalf("fault spec %+v", s)
	}
	// Without -mtbf the repair default must not enable the crash model.
	c = parse(t, Options{}, "-fault", "0.1")
	if s := c.Fault(); s.NodeMTBF != 0 || s.NodeRepair != 0 {
		t.Fatalf("crash model leaked into spec: %+v", s)
	}
}

func TestValidateRejects(t *testing.T) {
	// An unknown placement is refused while parsing.
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	Register(fs, Options{WithPilots: true})
	if err := fs.Parse([]string{"-pilots", "mesh"}); err == nil {
		t.Fatal("-pilots mesh accepted")
	}
	for _, args := range [][]string{
		{"-policy", "roulette"},
		{"-recovery", "hope"},
		{"-steer", "warp"},
		{"-steer", "greedy"},                                    // valid name, but single-pilot placement
		{"-steer", "greedy", "-pilots", "split"},                // split, but a single node: nothing can move
		{"-steer", "greedy", "-pilots", "split", "-nodes", "1"}, // explicit single node
		{"-nodes", "0"},
		{"-fault", "1.5"},
	} {
		c := parse(t, Options{WithPilots: true}, args...)
		if err := c.Validate(); err == nil {
			t.Fatalf("args %v accepted", args)
		}
	}
	// -pilots is only validated when registered.
	c := parse(t, Options{})
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestWarnings(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want []string // substring each expected warning must contain, in order
	}{
		{"clean defaults", nil, nil},
		{"recovery with fault model", []string{"-fault", "0.1", "-recovery", "elsewhere"}, nil},
		{"recovery without fault model", []string{"-recovery", "elsewhere"},
			[]string{"-recovery elsewhere has no effect"}},
		{"checkpoint without eviction source", []string{"-checkpoint-interval", "30m"},
			[]string{"-checkpoint-interval 30m0s has no effect"}},
		{"checkpoint with fault model", []string{"-checkpoint-interval", "30m", "-mtbf", "6h"}, nil},
		{"checkpoint with preempt steering",
			[]string{"-checkpoint-interval", "30m", "-steer", "preempt", "-pilots", "split", "-nodes", "4"}, nil},
		{"grace without walltime", []string{"-walltime-grace", "45m"},
			[]string{"-walltime-grace 45m0s has no effect"}},
		{"preempt steering without checkpointing",
			[]string{"-steer", "preempt", "-pilots", "split", "-nodes", "4"},
			[]string{"-steer preempt without -checkpoint-interval"}},
		{"stacked warnings", []string{"-recovery", "elsewhere", "-walltime-grace", "45m"},
			[]string{"-recovery", "-walltime-grace"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := parse(t, Options{WithPilots: true}, tc.args...)
			if err := c.Validate(); err != nil {
				t.Fatalf("args %v rejected: %v", tc.args, err)
			}
			got := c.Warnings()
			if len(got) != len(tc.want) {
				t.Fatalf("args %v: %d warnings %q, want %d", tc.args, len(got), got, len(tc.want))
			}
			for i, sub := range tc.want {
				if !strings.Contains(got[i], sub) {
					t.Fatalf("args %v: warning %d = %q, want substring %q", tc.args, i, got[i], sub)
				}
			}
		})
	}
}

func TestPrintWarnings(t *testing.T) {
	c := parse(t, Options{}, "-recovery", "elsewhere")
	var sb strings.Builder
	c.PrintWarnings(&sb)
	out := sb.String()
	if !strings.HasPrefix(out, "warning: -recovery") {
		t.Fatalf("PrintWarnings output %q", out)
	}
	if strings.Count(out, "\n") != 1 {
		t.Fatalf("want exactly one warning line, got %q", out)
	}

	// A clean flag set stays silent.
	sb.Reset()
	parse(t, Options{}).PrintWarnings(&sb)
	if sb.Len() != 0 {
		t.Fatalf("clean flags printed %q", sb.String())
	}
}

func TestProfileFlagsAndLifecycle(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.prof")
	mem := filepath.Join(dir, "mem.prof")

	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	c := Register(fs, Options{})
	if err := fs.Parse([]string{"-cpuprofile", cpu, "-memprofile", mem}); err != nil {
		t.Fatal(err)
	}
	if c.CPUProfile != cpu || c.MemProfile != mem {
		t.Fatalf("profile paths not captured: %+v", c)
	}

	stop, err := c.StartProfiles()
	if err != nil {
		t.Fatal(err)
	}
	// Burn a little CPU so the profile has something to say.
	x := 0
	for i := 0; i < 1_000_000; i++ {
		x += i * i
	}
	_ = x
	stop()
	stop() // idempotent

	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile %s not written: %v", p, err)
		}
		if st.Size() == 0 {
			t.Fatalf("profile %s is empty", p)
		}
	}
}

func TestStartProfilesNoFlagsIsNoop(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	c := Register(fs, Options{})
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	stop, err := c.StartProfiles()
	if err != nil {
		t.Fatal(err)
	}
	stop()
}

// TestEveryParamsFieldHasAFlag guards against knob drift: every exported
// campaign.Params field is bound by one of the shared flags (a struct
// field such as Fault counts when a flag binds inside it), or is listed
// here as filled some other way. A new Params knob without a flag fails
// until it gets one or an exemption.
func TestEveryParamsFieldHasAFlag(t *testing.T) {
	exempt := map[string]string{
		"Seeds":      "workload width, a per-command flag (-seeds)",
		"Targets":    "workload width, a per-command flag (-screen-size, -screen)",
		"FaultRates": "fault-sweep grid, set by library callers",
		"Telemetry":  "derived from -chrome-trace",
	}
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	c := Register(fs, Options{WithPilots: true})
	bound := map[uintptr]string{}
	fs.VisitAll(func(f *flag.Flag) {
		bound[reflect.ValueOf(f.Value).Pointer()] = f.Name
	})
	pv := reflect.ValueOf(&c.p).Elem()
	for i := 0; i < pv.NumField(); i++ {
		field := pv.Type().Field(i)
		if !field.IsExported() {
			continue
		}
		start := pv.Field(i).Addr().Pointer()
		var by string
		for ptr, name := range bound {
			if ptr >= start && ptr < start+field.Type.Size() {
				by = name
			}
		}
		_, isExempt := exempt[field.Name]
		switch {
		case by != "" && isExempt:
			t.Errorf("Params.%s is bound by -%s but also exempt", field.Name, by)
		case by == "" && !isExempt:
			t.Errorf("Params.%s has no shared flag and no exemption", field.Name)
		}
	}
}

func TestReject(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	c := Register(fs, Options{WithPilots: true})
	fs.String("csv", "", "a flag the command registers itself")
	if err := fs.Parse([]string{"-steer", "none", "-admit", "quota", "-csv", "x", "-seed", "7"}); err != nil {
		t.Fatal(err)
	}
	if !c.Shared("steer") || !c.Shared("admit") || c.Shared("csv") {
		t.Fatal("Shared does not tell the registered flags from the command's own")
	}
	// Explicitly set flags are judged even at their default value.
	err := c.Reject("test mode", func(name string) bool { return name == "seed" })
	if err == nil || err.Error() != "flags [-admit -csv -steer] do not apply to test mode" {
		t.Fatalf("Reject = %v", err)
	}
	if err := c.Reject("test mode", c.Shared); err == nil || err.Error() != "flags [-csv] do not apply to test mode" {
		t.Fatalf("Reject = %v", err)
	}
	// Flags left unset are never judged.
	fs = flag.NewFlagSet("test", flag.ContinueOnError)
	c = Register(fs, Options{})
	if err := c.Reject("test mode", func(string) bool { return false }); err != nil {
		t.Fatalf("unset flags rejected: %v", err)
	}
}
