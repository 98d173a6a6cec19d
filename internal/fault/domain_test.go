package fault

// Tests of the correlated failure-domain declarations: DomainSpec
// validation, maintenance-window parsing, and the stream-shape contract
// of the cascade draw.

import (
	"math"
	"strings"
	"testing"
	"time"

	"impress/internal/xrand"
)

func TestDomainSpecEnabledAndValidate(t *testing.T) {
	if (DomainSpec{}).Enabled() {
		t.Fatal("zero DomainSpec reports enabled")
	}
	for _, d := range []DomainSpec{
		{OutageMTBF: time.Hour},
		{CascadeProb: 0.5},
		{Maintenance: []Maintenance{{Domain: "r", Duration: time.Hour}}},
	} {
		if !d.Enabled() {
			t.Fatalf("%+v reports disabled", d)
		}
	}
	bad := []DomainSpec{
		{OutageMTBF: -time.Hour},
		{OutageMTBF: time.Hour, OutageDuration: -time.Minute},
		{CascadeProb: -0.1},
		{CascadeProb: 1},
		{CascadeProb: math.NaN()},
		{CascadeProb: math.Inf(1)},
		{CascadeProb: math.Inf(-1)},
		{CascadeProb: 0.5, CascadeWindow: -time.Minute},
		{Maintenance: []Maintenance{{Domain: "r", Start: -time.Hour, Duration: time.Hour}}},
		{Maintenance: []Maintenance{{Domain: "r"}}}, // zero duration
		{Maintenance: []Maintenance{{Domain: "r", Duration: 2 * time.Hour, Every: time.Hour}}},
	}
	for _, d := range bad {
		if d.Validate() == nil {
			t.Fatalf("invalid DomainSpec accepted: %+v", d)
		}
	}
	ok := DomainSpec{
		OutageMTBF: 24 * time.Hour, OutageDuration: time.Hour,
		CascadeProb: 0.3, CascadeWindow: 5 * time.Minute,
		Maintenance: []Maintenance{{Domain: "", Start: 0, Duration: time.Hour, Every: 24 * time.Hour}},
	}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid DomainSpec rejected: %v", err)
	}
}

func TestSpecValidateCascadeNeedsMTBF(t *testing.T) {
	s := Spec{Domains: DomainSpec{CascadeProb: 0.5}}
	if s.Validate() == nil {
		t.Fatal("cascade without per-node crash chains accepted")
	}
	s.NodeMTBF = time.Hour
	if err := s.Validate(); err != nil {
		t.Fatalf("cascade with NodeMTBF rejected: %v", err)
	}
	// Domain models alone enable the spec.
	if !(Spec{Domains: DomainSpec{OutageMTBF: time.Hour}}).Enabled() {
		t.Fatal("domain-only spec reports disabled")
	}
}

func TestParseMaintenance(t *testing.T) {
	ms, err := ParseMaintenance("rackA@6h/30m/24h, rackB@12h/1h")
	if err != nil {
		t.Fatal(err)
	}
	want := []Maintenance{
		{Domain: "rackA", Start: 6 * time.Hour, Duration: 30 * time.Minute, Every: 24 * time.Hour},
		{Domain: "rackB", Start: 12 * time.Hour, Duration: time.Hour},
	}
	if len(ms) != len(want) {
		t.Fatalf("parsed %d windows, want %d", len(ms), len(want))
	}
	for i := range want {
		if ms[i] != want[i] {
			t.Fatalf("window %d = %+v, want %+v", i, ms[i], want[i])
		}
	}
	if ms, err := ParseMaintenance(""); err != nil || ms != nil {
		t.Fatalf("empty spec = (%v, %v), want (nil, nil)", ms, err)
	}
	// The unlabeled domain is addressable: "@start/dur" with no name.
	ms, err = ParseMaintenance("@1h/30m")
	if err != nil || len(ms) != 1 || ms[0].Domain != "" {
		t.Fatalf("unlabeled window = (%+v, %v)", ms, err)
	}
	for _, bad := range []string{
		"rackA",                             // no window
		"rackA@6h",                          // no duration
		"rackA@6h/30m/24h/x",                // too many fields
		"rackA@x/30m",                       // bad start
		"rackA@6h/0s",                       // zero duration
		"rackA@6h/2h/1h",                    // period shorter than the window
		"rackA@9223372036854775807ns/1h",    // start past MaxMaintenanceSpan
		"rackA@1h/87601h",                   // duration past it
		"rackA@1h/1h/9223372036854775807ns", // period past it
	} {
		if _, err := ParseMaintenance(bad); err == nil {
			t.Fatalf("bad maintenance spec %q accepted", bad)
		} else if !strings.Contains(err.Error(), strings.SplitN(bad, ",", 2)[0]) {
			t.Fatalf("error for %q does not name the window: %v", bad, err)
		}
	}
}

// TestCascadeDelayStreamShape pins the determinism contract of the
// cascade draw: hit or miss, it consumes the same number of values from
// the neighbor's stream, so whether one neighbor is hit cannot shift
// every later draw of the run.
func TestCascadeDelayStreamShape(t *testing.T) {
	miss := DomainSpec{CascadeProb: 0.000001, CascadeWindow: 10 * time.Minute}
	hit := DomainSpec{CascadeProb: 0.999999, CascadeWindow: 10 * time.Minute}
	a := xrand.New(xrand.Derive(1, "shape"))
	b := xrand.New(xrand.Derive(1, "shape"))
	if _, ok := miss.CascadeDelay(a); ok {
		t.Fatal("p≈0 draw reported a hit")
	}
	d, ok := hit.CascadeDelay(b)
	if !ok {
		t.Fatal("p≈1 draw reported a miss")
	}
	if d <= 0 || d > 10*time.Minute {
		t.Fatalf("cascade delay %v outside (0, window]", d)
	}
	if a.Float64() != b.Float64() {
		t.Fatal("hit and miss consumed different stream lengths")
	}
}

// FuzzParseMaintenance: no input panics the parser, every window it
// accepts passes Validate, and an accepted window's first close and
// second opening are representable virtual instants. The seed corpus
// (testdata/fuzz/FuzzParseMaintenance) holds zero, negative and
// overflowing durations, an empty domain and trailing commas.
func FuzzParseMaintenance(f *testing.F) {
	for _, s := range []string{
		"rackA@6h/30m/24h,rackB@12h/1h",
		"@1h/30m",
		"",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		ms, err := ParseMaintenance(spec)
		if err != nil {
			return
		}
		for _, m := range ms {
			if err := m.Validate(); err != nil {
				t.Fatalf("ParseMaintenance(%q) accepted %+v, which Validate rejects: %v", spec, m, err)
			}
			// Both sums stay far below the int64 nanosecond range when
			// every field is within MaxMaintenanceSpan.
			if m.Start+m.Duration < m.Start || m.Start+m.Every < m.Start {
				t.Fatalf("ParseMaintenance(%q) accepted %+v, whose instants overflow", spec, m)
			}
		}
	})
}
