// Package telemetry exports and analyses what a campaign's trace
// recorder kept with telemetry on: it gathers the instants, steering
// ticks and occupancy gauges into the serializable Data payload
// (Collect), writes the whole task timeline in Chrome Trace Event Format
// and validates such files (chrome.go), and computes the critical path
// over the recorded spans (critpath.go). Recording itself is
// trace.Recorder's job.
package telemetry

import "impress/internal/trace"

// Data is the serializable telemetry payload of one campaign. It rides
// on core.Result (additively, omitted when telemetry was off).
type Data struct {
	Instants []trace.Instant          `json:"instants,omitempty"`
	Ticks    []trace.Tick             `json:"ticks,omitempty"`
	Counters map[string]int64         `json:"counters,omitempty"`
	Series   map[string][]trace.Point `json:"series,omitempty"`
}

// Collect builds the payload from a recorder with telemetry on (nil when
// it is off). pilots names the campaign's pilots in ordinal order; each
// recorded occupancy gauge becomes the series "<pilot>/<gauge>". The
// counters are the per-kind counts of the instants.
func Collect(rec *trace.Recorder, pilots []string) *Data {
	if !rec.Telemetry() {
		return nil
	}
	d := &Data{Instants: rec.Instants(), Ticks: rec.Ticks()}
	for _, in := range d.Instants {
		if d.Counters == nil {
			d.Counters = make(map[string]int64)
		}
		d.Counters[in.Kind]++
	}
	for i, p := range pilots {
		for g, name := range trace.Gauges {
			if s := rec.GaugeSeries(i, g); s != nil {
				if d.Series == nil {
					d.Series = make(map[string][]trace.Point)
				}
				d.Series[p+"/"+name] = s
			}
		}
	}
	return d
}
