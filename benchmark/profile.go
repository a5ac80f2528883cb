package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// programLabel marks, in a CPU profile, the samples taken while the
// simulator itself runs (see program).
const programLabel = "regions-program"

// hostShares counts by layer the CPU-profile samples of the program's own
// work.
type hostShares struct {
	byLayer map[string]uint64
	total   uint64
}

// profile runs fn under the Go CPU profiler and attributes each sample
// taken inside a program call to the layer of its innermost function:
// flat time, inlined frames included.
func (h *hostShares) profile(fn func() error) error {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return fmt.Errorf("start CPU profile: %w", err)
	}
	err := fn()
	pprof.StopCPUProfile()
	if err != nil {
		return err
	}
	zr, err := gzip.NewReader(&buf)
	if err != nil {
		return fmt.Errorf("read CPU profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("read CPU profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return fmt.Errorf("parse CPU profile: %w", err)
	}
	if h.byLayer == nil {
		h.byLayer = map[string]uint64{}
	}
	for _, s := range p.samples {
		if p.str(s.label) != programLabel {
			continue
		}
		h.total += s.count
		if l := layerOf(p.str(p.funcName[p.locFunc[s.leaf]])); l != "" {
			h.byLayer[l] += s.count
		}
	}
	return nil
}

// pct is layer's share of the program's samples, in percent.
func (h *hostShares) pct(layer string) float64 {
	return 100 * ratio(float64(h.byLayer[layer]), float64(h.total))
}

// program runs fn, the simulator's own work, labelled so that a profile
// counts its samples and not the benchmark's analysis around it. Goroutines
// fn starts inherit the label.
func program(fn func() error) error {
	var err error
	pprof.Do(context.Background(), pprof.Labels(programLabel, "1"), func(context.Context) { err = fn() })
	return err
}

// layerOf maps a function name to its layer: a regions/internal package
// (every application package counts as "apps"), "goruntime" for the Go
// runtime, or "" for anything else.
func layerOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // type arguments may contain package paths
	}
	pkg := fn
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		pkg = fn[:slash+1+dot]
	}
	const internal = "regions/internal/"
	switch {
	case strings.HasPrefix(pkg, internal+"apps/"):
		return "apps"
	case strings.HasPrefix(pkg, internal):
		return pkg[len(internal):]
	case pkg == "runtime", strings.HasPrefix(pkg, "runtime/internal/"), strings.HasPrefix(pkg, "internal/runtime/"):
		return "goruntime"
	}
	return ""
}

// profile is the part of a pprof profile.proto that flat attribution
// needs.
type profile struct {
	samples  []sample
	locFunc  map[uint64]uint64 // location id -> innermost function id
	funcName map[uint64]int64  // function id -> string table index
	strings  []string
}

type sample struct {
	leaf  uint64 // innermost location id, 0 for none
	count uint64 // the first sample value: samples/count
	label int64  // string index of the sample's first label key, 0 for none
}

// str returns string-table entry i; entry 0 is always "".
func (p *profile) str(i int64) string {
	if i <= 0 || i >= int64(len(p.strings)) {
		return ""
	}
	return p.strings[i]
}

// Field numbers of profile.proto.
const (
	profileSample   = 2
	profileLocation = 4
	profileFunction = 5
	profileStrings  = 6
)

func parseProfile(b []byte) (*profile, error) {
	p := &profile{locFunc: map[uint64]uint64{}, funcName: map[uint64]int64{}}
	err := pbWalk(b, func(field int, v uint64, data []byte) error {
		switch field {
		case profileSample:
			var locs, vals []uint64
			var s sample
			err := pbWalk(data, func(f int, v uint64, d []byte) (err error) {
				switch f {
				case 1:
					locs, err = pbUints(locs, v, d)
				case 2:
					vals, err = pbUints(vals, v, d)
				case 3: // label: its key is field 1
					if s.label == 0 {
						err = pbWalk(d, func(f int, v uint64, _ []byte) error {
							if f == 1 {
								s.label = int64(v)
							}
							return nil
						})
					}
				}
				return err
			})
			if err != nil || len(vals) == 0 {
				return errors.Join(errors.New("malformed sample"), err)
			}
			s.count = vals[0]
			if len(locs) > 0 { // a sample without a stack has no layer
				s.leaf = locs[0]
			}
			p.samples = append(p.samples, s)
		case profileLocation:
			var id, fn uint64
			lines := 0
			err := pbWalk(data, func(f int, v uint64, d []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // the first line is the innermost inlined function
					if lines++; lines == 1 {
						return pbWalk(d, func(f int, v uint64, _ []byte) error {
							if f == 1 {
								fn = v
							}
							return nil
						})
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locFunc[id] = fn
		case profileFunction:
			var id uint64
			var name int64
			err := pbWalk(data, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.funcName[id] = name
		case profileStrings:
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	return p, err
}

var errProto = errors.New("truncated protobuf")

// pbWalk calls fn for each field of the protobuf message b: v carries a
// varint field's value, data a length-delimited field's payload (nil for
// varints). Fixed-width fields are skipped.
func pbWalk(b []byte, fn func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		field := int(key >> 3)
		switch key & 7 {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errProto
			}
			data := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(field, 0, data); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return fmt.Errorf("protobuf wire type %d", key&7)
		}
	}
	return nil
}

// pbUints appends a repeated integer field's values, packed (data) or one
// varint at a time (v).
func pbUints(dst []uint64, v uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return append(dst, v), nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return dst, errProto
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst, nil
}
