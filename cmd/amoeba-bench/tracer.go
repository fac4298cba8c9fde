package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"time"

	"amoeba/internal/core"
	"amoeba/internal/trace"
)

// tracer records a traced run: spans around the benchmark's calls into
// the program, and CPU profiles of exactly those calls, folded by layer.
// Profiling only the calls keeps the benchmark's own work (probes,
// forced GCs, digests) out of the layer shares. A nil tracer records
// nothing, so untraced runs pass nil.
type tracer struct {
	origin   time.Time
	spans    []span
	layers   *folded
	profiles map[string][]byte // call name -> its latest profile
	err      error             // first profiling failure
}

// span is one timed call from the benchmark into the program.
type span struct {
	name, cat  string
	start, end time.Time
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), layers: &folded{weight: map[string]int64{}}, profiles: map[string][]byte{}}
}

// add records a span from start to now.
func (t *tracer) add(name, cat string, start time.Time) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{name: name, cat: cat, start: start, end: time.Now()})
}

// profiled runs f, under the CPU profiler when t is set, and folds the
// samples into the layer table.
func (t *tracer) profiled(name string, f func()) {
	if t == nil || t.err != nil {
		f()
		return
	}
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.err = err
		f()
		return
	}
	f()
	pprof.StopCPUProfile()
	fl, err := fold(buf.Bytes())
	if err != nil {
		t.err = err
		return
	}
	t.layers.add(fl)
	t.profiles[name] = buf.Bytes()
}

// traceEvent is one Chrome/Perfetto trace-event "complete" record.
type traceEvent struct {
	Name string  `json:"name"`
	Cat  string  `json:"cat"`
	Ph   string  `json:"ph"`
	Ts   float64 `json:"ts"`  // µs since the tracer's origin
	Dur  float64 `json:"dur"` // µs
	Pid  int     `json:"pid"`
	Tid  int     `json:"tid"`
}

// write stores the traced run's artifacts in dir: spans.json in
// trace-event format, which ui.perfetto.dev and chrome://tracing open
// directly (all spans come from the benchmark's one driving goroutine,
// so they nest on one lane), and under profiles/ the last CPU profile
// of each call, which go tool pprof merges when given several.
func (t *tracer) write(dir string) error {
	evs := make([]traceEvent, len(t.spans))
	for i, s := range t.spans {
		evs[i] = traceEvent{
			Name: s.name, Cat: s.cat, Ph: "X",
			Ts:  float64(s.start.Sub(t.origin).Nanoseconds()) / 1e3,
			Dur: float64(s.end.Sub(s.start).Nanoseconds()) / 1e3,
			Pid: 1, Tid: 1,
		}
	}
	data, err := json.MarshalIndent(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"}, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "spans.json"), data, 0o644); err != nil {
		return err
	}
	profDir := filepath.Join(dir, "profiles")
	if err := os.RemoveAll(profDir); err != nil {
		return err
	}
	if err := os.MkdirAll(profDir, 0o755); err != nil {
		return err
	}
	for name, p := range t.profiles {
		file := strings.ReplaceAll(name, "/", "_") + ".pprof"
		if err := os.WriteFile(filepath.Join(profDir, file), p, 0o644); err != nil {
			return fmt.Errorf("write profile: %w", err)
		}
	}
	return nil
}

// rateCounter wraps a trace and counts Rate calls: one per arrival
// thinning candidate. Each wrapped trace belongs to one simulation cell,
// so sharded runs never share a counter across workers.
type rateCounter struct {
	trace.Trace
	calls uint64
}

func (r *rateCounter) Rate(t float64) float64 {
	r.calls++
	return r.Trace.Rate(t)
}

// countRates returns copies of the scenarios whose every trace is
// wrapped in a Rate counter, and the counters.
func countRates(scs []scenario) ([]scenario, []*rateCounter) {
	var counters []*rateCounter
	wrap := func(specs []core.ServiceSpec) []core.ServiceSpec {
		out := make([]core.ServiceSpec, len(specs))
		for i, s := range specs {
			rc := &rateCounter{Trace: s.Trace}
			counters = append(counters, rc)
			out[i] = core.ServiceSpec{Profile: s.Profile, Trace: rc}
		}
		return out
	}
	out := make([]scenario, len(scs))
	for i, s := range scs {
		out[i] = s
		out[i].sc.Services = wrap(s.sc.Services)
		out[i].sc.Background = wrap(s.sc.Background)
	}
	return out, counters
}
