package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"strings"
)

// profiledPackages are the program's packages whose flat CPU share the
// traced run reports. Samples whose leaf frame lies elsewhere count as
// runtime (the Go runtime, including the collector), math (the
// transcendental kernels the samplers call), or other.
var profiledPackages = []string{
	"landscape", "mpnn", "fold", "protein", "xrand", "pipeline", "ga", "workload",
	"core", "simclock", "pilot", "sched", "cluster", "fault", "preempt",
	"steer", "tenancy", "fleet", "trace", "telemetry", "report", "stats", "costmodel",
}

// cumulativePackages are the layers whose cumulative CPU share (any frame
// of the package on the stack) the traced run reports.
var cumulativePackages = []string{
	"landscape", "mpnn", "fold", "core", "simclock", "pilot", "sched", "cluster",
	"fault", "steer", "tenancy", "telemetry",
}

// cpuShares decodes a runtime/pprof CPU profile (gzipped protocol buffers)
// and returns percentages of its unlabelled samples (labelled ones are
// probe work): cpu.flat.<pkg> counts a sample
// for the package of its leaf frame, cpu.cum.<pkg> for every package
// anywhere on its stack.
func cpuShares(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}

	type sample struct {
		locs     []uint64
		count    int64
		labelled bool
	}
	var (
		strs    []string
		samples []sample
		funcs   = map[uint64]uint64{}   // function id -> name string index
		locs    = map[uint64][]uint64{} // location id -> function ids, innermost first
	)
	err = protoFields(data, func(num int, v uint64, sub []byte, wire uint64) error {
		switch num {
		case 2: // Sample
			var s sample
			var vals []uint64
			err := protoFields(sub, func(num int, v uint64, sub []byte, wire uint64) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, v, sub, wire)
				case 2:
					vals = appendVarints(vals, v, sub, wire)
				case 3:
					s.labelled = true
				}
				return nil
			})
			if len(vals) > 0 {
				s.count = int64(vals[0])
			}
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := protoFields(sub, func(num int, v uint64, sub []byte, wire uint64) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return protoFields(sub, func(num int, v uint64, _ []byte, _ uint64) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // Function
			var id, name uint64
			err := protoFields(sub, func(num int, v uint64, _ []byte, _ uint64) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6:
			strs = append(strs, string(sub))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}

	pkgOfFunc := func(fid uint64) string {
		if idx, ok := funcs[fid]; ok && idx < uint64(len(strs)) {
			return packageOf(strs[idx])
		}
		return "other"
	}
	flat := map[string]int64{}
	cum := map[string]int64{}
	var total int64
	for _, s := range samples {
		if s.labelled {
			continue // probe work, not the simulation
		}
		total += s.count
		seen := map[string]bool{}
		for i, lid := range s.locs {
			for j, fid := range locs[lid] {
				pkg := pkgOfFunc(fid)
				if i == 0 && j == 0 {
					flat[pkg] += s.count
				}
				if !seen[pkg] {
					seen[pkg] = true
					cum[pkg] += s.count
				}
			}
		}
	}
	out := map[string]float64{"cpu.samples": float64(total)}
	if total == 0 {
		return out, nil
	}
	pct := func(n int64) float64 { return 100 * float64(n) / float64(total) }
	for _, p := range append(profiledPackages, "runtime", "math", "other") {
		out["cpu.flat."+p] = pct(flat[p])
	}
	for _, p := range cumulativePackages {
		out["cpu.cum."+p] = pct(cum[p])
	}
	return out, nil
}

// packageOf maps a profiled function name to a profiledPackages entry,
// "runtime", "math" or "other".
func packageOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "impress/internal/"); ok {
		pkg, _, _ := strings.Cut(rest, ".")
		for _, p := range profiledPackages {
			if p == pkg {
				return p
			}
		}
		return "other"
	}
	switch {
	case strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/") ||
		strings.HasPrefix(fn, "internal/runtime/") || strings.HasPrefix(fn, "gcWriteBarrier"):
		return "runtime"
	case strings.HasPrefix(fn, "math."):
		return "math"
	}
	return "other"
}

// protoFields walks the fields of one protocol-buffer message, calling f
// with the field number and either the varint value (wire type 0) or the
// payload (wire type 2). Fixed-width fields are skipped.
func protoFields(b []byte, f func(num int, v uint64, sub []byte, wire uint64) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return fmt.Errorf("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var sub []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return fmt.Errorf("bad varint in field %d", num)
			}
			b = b[n:]
		case 1, 5:
			w := 8
			if wire == 5 {
				w = 4
			}
			if len(b) < w {
				return fmt.Errorf("short fixed field %d", num)
			}
			b = b[w:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return fmt.Errorf("bad length in field %d", num)
			}
			sub, b = b[n:n+int(l)], b[n+int(l):]
		default:
			return fmt.Errorf("unsupported wire type %d in field %d", wire, num)
		}
		if err := f(num, v, sub, wire); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated integer field's values, packed (wire
// type 2) or not.
func appendVarints(dst []uint64, v uint64, sub []byte, wire uint64) []uint64 {
	if wire != 2 {
		return append(dst, v)
	}
	for len(sub) > 0 {
		x, n := binary.Uvarint(sub)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		sub = sub[n:]
	}
	return dst
}
