package main

// This file is a stdlib-only reader for the CPU profiles runtime/pprof
// writes: gzip around a protocol buffer in the documented
// profile.proto layout (github.com/google/pprof/proto/profile.proto).
// Only the messages the attribution needs are decoded: sample types,
// samples with their labels, locations with their (inlined) lines,
// functions, and the string table.

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// Field numbers of profile.proto.
const (
	fProfileSampleType  = 1
	fProfileSample      = 2
	fProfileLocation    = 4
	fProfileFunction    = 5
	fProfileStringTable = 6

	fValueTypeType = 1
	fValueTypeUnit = 2

	fSampleLocation = 1
	fSampleValue    = 2
	fSampleLabel    = 3

	fLabelKey = 1
	fLabelStr = 2

	fLocationID   = 1
	fLocationLine = 4

	fLineFunction = 1

	fFunctionID   = 1
	fFunctionName = 2
)

// Profile is the decoded subset of a pprof profile.
type Profile struct {
	// SampleTypes names each value column, e.g. {"cpu", "nanoseconds"}.
	SampleTypes []ValueType
	Samples     []Sample
}

// ValueType is one sample value column.
type ValueType struct{ Type, Unit string }

// Sample is one recorded stack with its values and string labels.
type Sample struct {
	// Stack lists function names innermost first, inlined frames
	// expanded.
	Stack  []string
	Values []int64
	Labels map[string]string
}

// ParseProfile decodes a gzipped (or raw) profile.proto message.
func ParseProfile(data []byte) (*Profile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: gzip: %w", err)
		}
		raw, err := io.ReadAll(zr)
		if err != nil {
			return nil, fmt.Errorf("profile: gzip: %w", err)
		}
		data = raw
	}
	return decodeProfile(data)
}

// rawSample and rawLocation hold index-valued fields until the string
// table and the function list (which may follow them) are known.
type rawSample struct {
	locs   []uint64
	values []int64
	labels [][2]int64 // key, str string indexes
}

type rawLocation struct {
	funcs []uint64 // innermost first
}

func decodeProfile(data []byte) (*Profile, error) {
	var (
		types   [][2]int64
		samples []rawSample
		locs    = map[uint64]rawLocation{}
		funcs   = map[uint64]int64{} // id → name string index
		strs    []string
	)
	err := eachField(data, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case fProfileSampleType:
			var t [2]int64
			err := eachField(b, func(num, _ int, v uint64, _ []byte) error {
				switch num {
				case fValueTypeType:
					t[0] = int64(v)
				case fValueTypeUnit:
					t[1] = int64(v)
				}
				return nil
			})
			types = append(types, t)
			return err
		case fProfileSample:
			s, err := decodeSample(b)
			samples = append(samples, s)
			return err
		case fProfileLocation:
			var id uint64
			var loc rawLocation
			err := eachField(b, func(num, _ int, v uint64, b []byte) error {
				switch num {
				case fLocationID:
					id = v
				case fLocationLine:
					return eachField(b, func(num, _ int, v uint64, _ []byte) error {
						if num == fLineFunction {
							loc.funcs = append(loc.funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = loc
			return err
		case fProfileFunction:
			var id uint64
			var name int64
			err := eachField(b, func(num, _ int, v uint64, _ []byte) error {
				switch num {
				case fFunctionID:
					id = v
				case fFunctionName:
					name = int64(v)
				}
				return nil
			})
			funcs[id] = name
			return err
		case fProfileStringTable:
			if wire != wireBytes {
				return errors.New("profile: string table entry is not length-delimited")
			}
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) (string, error) {
		if i < 0 || i >= int64(len(strs)) {
			return "", fmt.Errorf("profile: string index %d outside table of %d", i, len(strs))
		}
		return strs[i], nil
	}
	p := &Profile{}
	for _, t := range types {
		typ, err := str(t[0])
		if err != nil {
			return nil, err
		}
		unit, err := str(t[1])
		if err != nil {
			return nil, err
		}
		p.SampleTypes = append(p.SampleTypes, ValueType{typ, unit})
	}
	for _, rs := range samples {
		s := Sample{Values: rs.values}
		for _, id := range rs.locs {
			loc, ok := locs[id]
			if !ok {
				return nil, fmt.Errorf("profile: sample references unknown location %d", id)
			}
			for _, fid := range loc.funcs {
				name, err := str(funcs[fid])
				if err != nil {
					return nil, err
				}
				s.Stack = append(s.Stack, name)
			}
		}
		for _, l := range rs.labels {
			k, err := str(l[0])
			if err != nil {
				return nil, err
			}
			v, err := str(l[1])
			if err != nil {
				return nil, err
			}
			if s.Labels == nil {
				s.Labels = map[string]string{}
			}
			s.Labels[k] = v
		}
		p.Samples = append(p.Samples, s)
	}
	return p, nil
}

func decodeSample(b []byte) (rawSample, error) {
	var s rawSample
	err := eachField(b, func(num, wire int, v uint64, b []byte) error {
		switch num {
		case fSampleLocation:
			return eachUint(wire, v, b, func(u uint64) { s.locs = append(s.locs, u) })
		case fSampleValue:
			return eachUint(wire, v, b, func(u uint64) { s.values = append(s.values, int64(u)) })
		case fSampleLabel:
			var l [2]int64
			err := eachField(b, func(num, _ int, v uint64, _ []byte) error {
				switch num {
				case fLabelKey:
					l[0] = int64(v)
				case fLabelStr:
					l[1] = int64(v)
				}
				return nil
			})
			s.labels = append(s.labels, l)
			return err
		}
		return nil
	})
	return s, err
}

// Protocol buffer wire types.
const (
	wireVarint = 0
	wire64     = 1
	wireBytes  = 2
	wire32     = 5
)

// eachField walks the fields of one message, handing varints in v and
// length-delimited payloads in b.
func eachField(data []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := varint(data)
		if n == 0 {
			return errors.New("profile: truncated field key")
		}
		data = data[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case wireVarint:
			v, n = varint(data)
			if n == 0 {
				return errors.New("profile: truncated varint")
			}
			data = data[n:]
		case wire64:
			if len(data) < 8 {
				return errors.New("profile: truncated fixed64")
			}
			data = data[8:]
		case wireBytes:
			l, n := varint(data)
			if n == 0 || uint64(len(data)-n) < l {
				return errors.New("profile: truncated length-delimited field")
			}
			b = data[n : n+int(l)]
			data = data[n+int(l):]
		case wire32:
			if len(data) < 4 {
				return errors.New("profile: truncated fixed32")
			}
			data = data[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// eachUint decodes a repeated integer field in either encoding: one
// varint per field, or packed into one length-delimited field.
func eachUint(wire int, v uint64, b []byte, fn func(uint64)) error {
	if wire == wireVarint {
		fn(v)
		return nil
	}
	if wire != wireBytes {
		return fmt.Errorf("profile: repeated integer with wire type %d", wire)
	}
	for len(b) > 0 {
		u, n := varint(b)
		if n == 0 {
			return errors.New("profile: truncated packed varint")
		}
		fn(u)
		b = b[n:]
	}
	return nil
}

// varint decodes a base-128 varint, returning the value and the bytes
// consumed (0 when truncated or overlong).
func varint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// internalPrefix is the import-path prefix of the program's modules.
const internalPrefix = "repro/internal/"

// moduleOf returns the repro/internal module a function belongs to.
func moduleOf(fn string) (string, bool) {
	rest, ok := strings.CutPrefix(fn, internalPrefix)
	if !ok {
		return "", false
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	return rest, rest != ""
}

// Attribution is per-module self time over the samples of one span.
type Attribution struct {
	// SelfNS maps a module to the CPU nanoseconds of the samples whose
	// innermost repro/internal frame lies in it; FuncNS does the same
	// per function.
	SelfNS map[string]int64
	FuncNS map[string]int64
	// InternalNS sums the samples holding any repro/internal frame;
	// it equals the sum of SelfNS by construction.
	InternalNS int64
	// TotalNS sums every sample in the span; Samples counts them.
	TotalNS int64
	Samples int64
}

// Attribute charges each sample labelled span=<span> (every sample
// when span is empty) to the module of its innermost repro/internal
// frame, summing the profile's CPU-time column.
func Attribute(p *Profile, span string) Attribution {
	col, count := cpuColumn(p), -1
	for i, t := range p.SampleTypes {
		if t.Type == "samples" {
			count = i
		}
	}
	a := Attribution{SelfNS: map[string]int64{}, FuncNS: map[string]int64{}}
	for _, s := range p.Samples {
		if span != "" && s.Labels[spanLabel] != span {
			continue
		}
		if col >= len(s.Values) {
			continue
		}
		v := s.Values[col]
		a.TotalNS += v
		if count >= 0 && count < len(s.Values) {
			a.Samples += s.Values[count]
		}
		for _, fn := range s.Stack {
			if m, ok := moduleOf(fn); ok {
				a.SelfNS[m] += v
				a.FuncNS[fn] += v
				a.InternalNS += v
				break
			}
		}
	}
	return a
}

// SpanTotals sums the CPU-time column per span label ("" for samples
// outside every span: runtime threads, GC workers, the scheduler).
func SpanTotals(p *Profile) map[string]int64 {
	col := cpuColumn(p)
	out := map[string]int64{}
	for _, s := range p.Samples {
		if col < len(s.Values) {
			out[s.Labels[spanLabel]] += s.Values[col]
		}
	}
	return out
}

// cpuColumn is the index of the CPU-time sample value.
func cpuColumn(p *Profile) int {
	for i, t := range p.SampleTypes {
		if t.Type == "cpu" {
			return i
		}
	}
	return len(p.SampleTypes) - 1
}
