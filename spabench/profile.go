package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// selfGroups maps the packages whose self time sim.self_frac.* reports to
// their group names; "machine" is the simulator's own package.
var selfGroups = map[string]string{
	"repro/internal/sim":           "machine",
	"repro/internal/sim/cache":     "cache",
	"repro/internal/sim/coherence": "coherence",
	"repro/internal/sim/mem":       "mem",
	"repro/internal/sim/noc":       "noc",
	"repro/internal/sim/cpu":       "cpu",
	"repro/internal/workload":      "workload",
	"repro/internal/randx":         "randx",
}

// selfFractions reads a runtime/pprof CPU profile and returns, per group,
// the share of sampled CPU time whose leaf frame is in that group's
// package. The Go runtime (runtime, runtime/*, internal/runtime/*) is the
// "runtime" group. Every group is present, zero when unsampled.
func selfFractions(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{"runtime": 0}
	for _, g := range selfGroups {
		out[g] = 0
	}
	var total float64
	for _, s := range p.samples {
		if len(s.locs) == 0 || p.valueIdx >= len(s.values) {
			continue
		}
		v := float64(s.values[p.valueIdx])
		total += v
		lines := p.locLines[s.locs[0]]
		if len(lines) == 0 {
			continue
		}
		if g, ok := groupOf(p.strings[p.funcName[lines[0]]]); ok {
			out[g] += v
		}
	}
	if total > 0 {
		for g := range out {
			out[g] /= total
		}
	}
	return out, nil
}

// groupOf maps a symbol such as "repro/internal/sim/cache.(*Cache).Access"
// to its self-time group.
func groupOf(symbol string) (string, bool) {
	pkg := symbol
	slash := strings.LastIndexByte(pkg, '/')
	if dot := strings.IndexByte(pkg[slash+1:], '.'); dot >= 0 {
		pkg = pkg[:slash+1+dot]
	}
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") {
		return "runtime", true
	}
	g, ok := selfGroups[pkg]
	return g, ok
}

// profile is the subset of profile.proto that self time needs.
type profile struct {
	samples  []sample
	locLines map[uint64][]uint64 // location id -> function ids, leaf first
	funcName map[uint64]int64    // function id -> string table index
	strings  []string
	valueIdx int // index of the CPU-time value in each sample
}

type sample struct {
	locs   []uint64
	values []int64
}

// decodeProfile decodes the fields of a perftools Profile message that
// self time needs: sample_type (1), sample (2), location (4), function (5)
// and string_table (6).
func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locLines: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	var sampleTypes []int64
	err := eachField(b, func(num int, v uint64, sub []byte) error {
		switch num {
		case 1: // ValueType{type=1, unit=2}
			return eachField(sub, func(n int, v uint64, _ []byte) error {
				if n == 1 {
					sampleTypes = append(sampleTypes, int64(v))
				}
				return nil
			})
		case 2: // Sample{location_id=1, value=2}
			var s sample
			err := eachField(sub, func(n int, v uint64, packed []byte) error {
				switch n {
				case 1:
					return appendVarints(&s.locs, v, packed)
				case 2:
					var vals []uint64
					if err := appendVarints(&vals, v, packed); err != nil {
						return err
					}
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // Location{id=1, line=4}
			var id uint64
			var fns []uint64
			err := eachField(sub, func(n int, v uint64, line []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // Line{function_id=1}
					return eachField(line, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locLines[id] = fns
			return err
		case 5: // Function{id=1, name=2}
			var id uint64
			var name int64
			err := eachField(sub, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcName[id] = name
			return err
		case 6:
			p.strings = append(p.strings, string(sub))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	p.valueIdx = len(sampleTypes) - 1
	for i, t := range sampleTypes {
		if t >= 0 && int(t) < len(p.strings) && p.strings[t] == "cpu" {
			p.valueIdx = i
		}
	}
	for _, name := range p.funcName {
		if name < 0 || int(name) >= len(p.strings) {
			return nil, errors.New("profile: function name outside the string table")
		}
	}
	return p, nil
}

// appendVarints appends a repeated integer field, packed or not.
func appendVarints(dst *[]uint64, v uint64, packed []byte) error {
	if packed == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(packed) > 0 {
		x, n := uvarint(packed)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		*dst = append(*dst, x)
		packed = packed[n:]
	}
	return nil
}

// eachField walks a protobuf message, calling fn with each field number
// and either its varint value or its length-delimited bytes (non-nil).
func eachField(b []byte, fn func(num int, v uint64, sub []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var sub []byte
		switch wire {
		case 0:
			v, n = uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			sub = b[n : n+int(l)]
			if sub == nil {
				sub = []byte{}
			}
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, v, sub); err != nil {
			return err
		}
	}
	return nil
}

// uvarint decodes a protobuf varint, returning the value and the bytes
// read (0 or less on malformed input).
func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		x |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
