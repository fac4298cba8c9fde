package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// modulePrefix marks the program's own frames in a profile.
const modulePrefix = "amoeba/internal/"

// layerOf maps a module package to its layer. Packages not listed fold
// into "other"; samples with no module frame at all are "runtime".
var layerOf = map[string]string{
	"sim":        "sim",
	"trace":      "trace",
	"arrival":    "arrival",
	"serverless": "serverless",
	"iaas":       "iaas",
	"autoscale":  "iaas",
	"engine":     "engine",
	"controller": "controller",
	"queueing":   "controller",
	"surfaces":   "controller",
	"monitor":    "monitor",
	"meters":     "monitor",
	"pca":        "monitor",
	"linalg":     "monitor",
	"metrics":    "metrics",
	"stats":      "metrics",
	"contention": "contention",
	"resources":  "contention",
	"cluster":    "contention",
	"obs":        "obs",
	"core":       "core",
	"profiling":  "profiling",
}

// layers lists every layer a sample can be charged to, in report order.
var layers = []string{
	"sim", "trace", "arrival", "serverless", "iaas", "engine", "controller",
	"monitor", "metrics", "contention", "obs", "core", "profiling", "runtime", "other",
}

// layerForFunc returns the layer of a profiled function name, or "" if
// the function is not in the module.
func layerForFunc(name string) string {
	rest, ok := strings.CutPrefix(name, modulePrefix)
	if !ok {
		return ""
	}
	pkg := rest
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		pkg = rest[:i]
	}
	if l, ok := layerOf[pkg]; ok {
		return l
	}
	return "other"
}

// folded is a CPU profile reduced to per-layer weight.
type folded struct {
	samples int64            // profile samples
	weight  map[string]int64 // layer -> CPU nanoseconds (or sample count)
	total   int64
}

// fold decodes a gzipped pprof profile and charges each sample to the
// innermost module frame of its stack, following inlined frames (a
// location's lines run innermost first). Samples without a module frame
// go to "runtime".
func fold(data []byte) (*folded, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("fold: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("fold: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, err
	}
	valueIdx := 0
	for i, vt := range p.sampleTypes {
		if p.str(vt) == "cpu" {
			valueIdx = i
		}
	}
	funcLayer := map[uint64]string{}
	for id, nameIdx := range p.funcs {
		funcLayer[id] = layerForFunc(p.str(nameIdx))
	}
	locLayer := map[uint64]string{}
	for id, fns := range p.locs {
		for _, fn := range fns {
			if l := funcLayer[fn]; l != "" {
				locLayer[id] = l
				break
			}
		}
	}
	f := &folded{weight: map[string]int64{}}
	for _, s := range p.samples {
		if valueIdx >= len(s.values) {
			return nil, errors.New("fold: sample has fewer values than sample types")
		}
		w := s.values[valueIdx]
		layer := "runtime"
		for _, loc := range s.locs {
			if l := locLayer[loc]; l != "" {
				layer = l
				break
			}
		}
		f.samples++
		f.weight[layer] += w
		f.total += w
	}
	return f, nil
}

// add merges another folded profile into f.
func (f *folded) add(g *folded) {
	f.samples += g.samples
	f.total += g.total
	for l, w := range g.weight {
		f.weight[l] += w
	}
}

// pct returns the layer's share of the profile, in percent.
func (f *folded) pct(layer string) float64 {
	if f.total == 0 {
		return 0
	}
	return 100 * float64(f.weight[layer]) / float64(f.total)
}

// profile holds the parts of a perftools.profiles.Profile that folding
// needs.
type profile struct {
	sampleTypes []int64 // type string index of each sample value
	samples     []sample
	locs        map[uint64][]uint64 // location id -> function ids, innermost first
	funcs       map[uint64]int64    // function id -> name string index
	strings     []string
}

type sample struct {
	locs   []uint64 // leaf first
	values []int64
}

func (p *profile) str(i int64) string {
	if i < 0 || i >= int64(len(p.strings)) {
		return ""
	}
	return p.strings[i]
}

// Field numbers of profile.proto.
const (
	profSampleType  = 1
	profSample      = 2
	profLocation    = 4
	profFunction    = 5
	profStringTable = 6

	sampleLocationID = 1
	sampleValue      = 2

	valueTypeType = 1

	locationID   = 1
	locationLine = 4
	lineFunction = 1

	functionID   = 1
	functionName = 2
)

func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locs: map[uint64][]uint64{}, funcs: map[uint64]int64{}}
	err := eachField(b, func(num int, wire int, v uint64, sub []byte) error {
		switch num {
		case profSampleType:
			var typ int64
			err := eachField(sub, func(num, wire int, v uint64, _ []byte) error {
				if num == valueTypeType {
					typ = int64(v)
				}
				return nil
			})
			p.sampleTypes = append(p.sampleTypes, typ)
			return err
		case profSample:
			var s sample
			err := eachField(sub, func(num, wire int, v uint64, sub []byte) error {
				switch num {
				case sampleLocationID:
					return appendUints(&s.locs, wire, v, sub)
				case sampleValue:
					var u []uint64
					if err := appendUints(&u, wire, v, sub); err != nil {
						return err
					}
					for _, x := range u {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case profLocation:
			var id uint64
			var fns []uint64
			err := eachField(sub, func(num, wire int, v uint64, sub []byte) error {
				switch num {
				case locationID:
					id = v
				case locationLine:
					return eachField(sub, func(num, wire int, v uint64, _ []byte) error {
						if num == lineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locs[id] = fns
			return err
		case profFunction:
			var id uint64
			var name int64
			err := eachField(sub, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case functionID:
					id = v
				case functionName:
					name = int64(v)
				}
				return nil
			})
			p.funcs[id] = name
			return err
		case profStringTable:
			if wire != wireBytes {
				return errors.New("fold: string table entry is not length-delimited")
			}
			p.strings = append(p.strings, string(sub))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// Protobuf wire types.
const (
	wireVarint  = 0
	wireFixed64 = 1
	wireBytes   = 2
	wireFixed32 = 5
)

var errTruncated = errors.New("fold: truncated protobuf")

// eachField walks one protobuf message, calling fn with each field's
// number and wire type, and its scalar value (varint and fixed) or
// payload (length-delimited).
func eachField(b []byte, fn func(num, wire int, v uint64, sub []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var sub []byte
		switch wire {
		case wireVarint:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case wireFixed64:
			if len(b) < 8 {
				return errTruncated
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case wireFixed32:
			if len(b) < 4 {
				return errTruncated
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		case wireBytes:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errTruncated
			}
			sub = b[n : n+int(l)]
			b = b[n+int(l):]
		default:
			return fmt.Errorf("fold: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, sub); err != nil {
			return err
		}
	}
	return nil
}

// appendUints appends a repeated integer field, which encoders may
// write one varint per field or packed into one length-delimited run.
func appendUints(dst *[]uint64, wire int, v uint64, sub []byte) error {
	if wire != wireBytes {
		*dst = append(*dst, v)
		return nil
	}
	for len(sub) > 0 {
		x, n := binary.Uvarint(sub)
		if n <= 0 {
			return errTruncated
		}
		*dst = append(*dst, x)
		sub = sub[n:]
	}
	return nil
}
