package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"runtime/pprof"
	"testing"
	"time"

	"amoeba/internal/trace"
)

// pbuf is a minimal protobuf encoder for hand-built profiles.
type pbuf struct{ b []byte }

func (p *pbuf) key(field, wire int) { p.b = binary.AppendUvarint(p.b, uint64(field)<<3|uint64(wire)) }

func (p *pbuf) uint(field int, v uint64) {
	p.key(field, wireVarint)
	p.b = binary.AppendUvarint(p.b, v)
}

func (p *pbuf) bytes(field int, b []byte) {
	p.key(field, wireBytes)
	p.b = binary.AppendUvarint(p.b, uint64(len(b)))
	p.b = append(p.b, b...)
}

func (p *pbuf) packed(field int, vs ...uint64) {
	var q pbuf
	for _, v := range vs {
		q.b = binary.AppendUvarint(q.b, v)
	}
	p.bytes(field, q.b)
}

// fixtureProfile hand-encodes a gzipped CPU profile. Each sample is a
// stack of locations, leaf first; each location is a list of function
// names, innermost (inlined) first. Samples alternate between packed and
// one-varint-per-entry repeated fields, and carry a count and a cpu
// value; folding must weigh by the cpu value.
func fixtureProfile(t *testing.T, samples []fixtureSample) []byte {
	t.Helper()
	strs := []string{"", "samples", "count", "cpu", "nanoseconds"}
	str := func(s string) uint64 {
		for i, x := range strs {
			if x == s {
				return uint64(i)
			}
		}
		strs = append(strs, s)
		return uint64(len(strs) - 1)
	}
	var p pbuf
	for _, vt := range [][2]string{{"samples", "count"}, {"cpu", "nanoseconds"}} {
		var m pbuf
		m.uint(valueTypeType, str(vt[0]))
		m.uint(2, str(vt[1]))
		p.bytes(profSampleType, m.b)
	}
	funcID := map[string]uint64{}
	var funcs, locs pbuf
	nextLoc := uint64(1)
	for i, s := range samples {
		var locIDs []uint64
		for _, frames := range s.stack {
			var loc pbuf
			loc.uint(locationID, nextLoc)
			for _, fn := range frames {
				id, ok := funcID[fn]
				if !ok {
					id = uint64(len(funcID) + 1)
					funcID[fn] = id
					var f pbuf
					f.uint(functionID, id)
					f.uint(functionName, str(fn))
					funcs.bytes(profFunction, f.b)
				}
				var line pbuf
				line.uint(lineFunction, id)
				line.uint(2, 42) // line number, ignored
				loc.bytes(locationLine, line.b)
			}
			locs.bytes(profLocation, loc.b)
			locIDs = append(locIDs, nextLoc)
			nextLoc++
		}
		var sm pbuf
		if i%2 == 0 {
			sm.packed(sampleLocationID, locIDs...)
			sm.packed(sampleValue, 1, s.cpu)
		} else {
			for _, id := range locIDs {
				sm.uint(sampleLocationID, id)
			}
			sm.uint(sampleValue, 1)
			sm.uint(sampleValue, s.cpu)
		}
		p.bytes(profSample, sm.b)
	}
	p.b = append(p.b, locs.b...)
	p.b = append(p.b, funcs.b...)
	for _, s := range strs {
		p.bytes(profStringTable, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(p.b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return gz.Bytes()
}

type fixtureSample struct {
	stack [][]string // locations leaf first; each location's functions innermost first
	cpu   uint64
}

func TestFoldAttribution(t *testing.T) {
	samples := []fixtureSample{
		// Runtime leaf under a module caller: charged to the caller.
		{stack: [][]string{{"runtime.mallocgc"}, {"amoeba/internal/serverless.(*Platform).pump"}, {"main.main"}}, cpu: 10},
		// An inlined module frame wins over the location's outer frame.
		{stack: [][]string{{"math.Sin", "amoeba/internal/trace.(*Diurnal).Rate", "amoeba/internal/arrival.(*Generator).fire"}, {"amoeba/internal/sim.(*Simulator).Run"}}, cpu: 20},
		// No module frame at all: runtime.
		{stack: [][]string{{"runtime.gcBgMarkWorker"}, {"runtime.goexit"}}, cpu: 40},
		// The benchmark's own frames are not the module's.
		{stack: [][]string{{"main.harvest"}, {"amoeba/internal/core.Run.func1"}}, cpu: 80},
		// Packages fold into their layer; unlisted packages are "other".
		{stack: [][]string{{"sort.Float64s"}, {"amoeba/internal/stats.(*Sample).Quantile"}}, cpu: 160},
		{stack: [][]string{{"amoeba/internal/workload.Float"}}, cpu: 320},
		{stack: [][]string{{"amoeba/internal/analysis/devirt.Walk"}}, cpu: 640},
	}
	f, err := fold(fixtureProfile(t, samples))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"serverless": 10, "trace": 20, "runtime": 40, "core": 80, "metrics": 160, "other": 320 + 640}
	for layer, w := range want {
		if f.weight[layer] != w {
			t.Errorf("%s weight = %d, want %d", layer, f.weight[layer], w)
		}
	}
	if len(f.weight) != len(want) {
		t.Errorf("weights %v, want exactly the layers %v", f.weight, want)
	}
	if f.samples != int64(len(samples)) || f.total != 1270 {
		t.Errorf("samples=%d total=%d, want %d and 1270", f.samples, f.total, len(samples))
	}
	if got := f.pct("trace"); math.Abs(got-100*20.0/1270) > 1e-9 {
		t.Errorf("trace pct = %v", got)
	}
}

func TestFoldRejectsMalformedProfiles(t *testing.T) {
	if _, err := fold([]byte("not gzip")); err == nil {
		t.Error("fold accepted non-gzip input")
	}
	good := fixtureProfile(t, []fixtureSample{{stack: [][]string{{"amoeba/internal/sim.F"}}, cpu: 1}})
	zr, err := gzip.NewReader(bytes.NewReader(good))
	if err != nil {
		t.Fatal(err)
	}
	var raw bytes.Buffer
	if _, err := raw.ReadFrom(zr); err != nil {
		t.Fatal(err)
	}
	// The message ends in a string-table entry, so dropping its last
	// byte leaves a length prefix that overruns the buffer.
	if _, err := decodeProfile(raw.Bytes()[:raw.Len()-1]); err == nil {
		t.Error("decodeProfile accepted a truncated message")
	}
	// No prefix may panic or read past the end.
	for cut := range raw.Len() {
		_, _ = decodeProfile(raw.Bytes()[:cut]) // only the absence of a panic matters
	}
}

// TestFoldLiveProfile profiles a loop over Diurnal.Rate, the arrival
// thinning hot spot, and checks the folder charges it to trace.
func TestFoldLiveProfile(t *testing.T) {
	d := trace.NewDiurnal(100, 20, 3600, 1)
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiler unavailable: %v", err)
	}
	sum := 0.0
	for start := time.Now(); time.Since(start) < 700*time.Millisecond; {
		for i := 0; i < 10000; i++ {
			sum += d.Rate(float64(i))
		}
	}
	pprof.StopCPUProfile()
	if sum <= 0 {
		t.Fatal("Rate returned no load")
	}
	f, err := fold(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if f.samples < 20 {
		t.Skipf("only %d profile samples; the host is too busy to judge shares", f.samples)
	}
	if got := f.pct("trace"); got < 80 {
		t.Errorf("trace got %.1f%% of %d samples, want >= 80%% (weights %v)", got, f.samples, f.weight)
	}
}
