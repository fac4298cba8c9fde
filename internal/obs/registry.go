package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Counter is a monotonically increasing count.
type Counter struct{ v uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v++ }

// Add adds n. It panics on a negative delta — counters only go up;
// use a Gauge for signed quantities.
func (c *Counter) Add(n int) {
	if n < 0 {
		panic("obs: negative counter delta")
	}
	c.v += uint64(n)
}

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v }

// Gauge is a last-value metric.
type Gauge struct{ v float64 }

// Set records the current value.
func (g *Gauge) Set(v float64) { g.v = v }

// Value returns the last set value.
func (g *Gauge) Value() float64 { return g.v }

// Registry holds named counters, gauges, and histograms and renders
// them in Prometheus text exposition format. Names
// may carry a Prometheus label suffix (`name{k="v"}`, see Labeled);
// exposition sorts series lexicographically, so the output of a
// deterministic run is itself deterministic.
//
// Like the Bus, a registry belongs to one simulation goroutine and is
// not locked.
type Registry struct {
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// LabelSet is an interned, pre-sorted Prometheus label suffix — the
// `{k="v",...}` block of a series name — built once and reused across
// every series sharing the label combination. Consumers that fold per
// event (MetricsSink) resolve a LabelSet once per label combination,
// cache the resulting metric pointers, and never format labels again.
// The zero LabelSet renders no suffix.
type LabelSet struct{ suffix string }

// NewLabelSet builds the sorted label block from alternating key/value
// pairs. It panics on an odd pair count — label lists are literals at
// call sites.
func NewLabelSet(kv ...string) LabelSet {
	if len(kv) == 0 {
		return LabelSet{}
	}
	if len(kv)%2 != 0 {
		panic("obs: NewLabelSet requires key/value pairs")
	}
	type pair struct{ k, v string }
	pairs := make([]pair, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		pairs = append(pairs, pair{kv[i], kv[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		//amoeba:allow hotpath Fprintf targets an in-memory strings.Builder: pure formatting, not writer I/O
		fmt.Fprintf(&b, "%s=%q", p.k, p.v)
	}
	b.WriteByte('}')
	return LabelSet{suffix: b.String()}
}

// For renders the full series name for a metric under this label set.
func (ls LabelSet) For(name string) string { return name + ls.suffix }

// Labeled renders a metric name with sorted Prometheus labels from
// alternating key/value pairs — a one-shot NewLabelSet for call sites
// that don't retain the handle.
func Labeled(name string, kv ...string) string {
	return NewLabelSet(kv...).For(name)
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// shape on first use (later calls reuse the existing one and ignore
// the shape).
func (r *Registry) Histogram(name string, lo, hi float64, sub int) *Histogram {
	h, ok := r.hists[name]
	if !ok {
		h = NewHistogram(lo, hi, sub)
		r.hists[name] = h
	}
	return h
}

// baseName strips a label suffix off a series name.
func baseName(series string) string {
	if i := strings.IndexByte(series, '{'); i >= 0 {
		return series[:i]
	}
	return series
}

// labelSuffix returns the label block of a series name including the
// braces, or "".
func labelSuffix(series string) string {
	if i := strings.IndexByte(series, '{'); i >= 0 {
		return series[i:]
	}
	return ""
}

// WritePrometheus renders every metric in Prometheus text exposition
// format (sorted; histograms as cumulative le-buckets with _sum and
// _count).
func (r *Registry) WritePrometheus(w io.Writer) error {
	typed := map[string]string{}
	var names []string
	collect := func(series, typ string) {
		names = append(names, series)
		base := baseName(series)
		if _, ok := typed[base]; !ok {
			typed[base] = typ
		}
	}
	for name := range r.counters {
		collect(name, "counter")
	}
	for name := range r.gauges {
		collect(name, "gauge")
	}
	for name := range r.hists {
		collect(name, "histogram")
	}
	sort.Strings(names)
	emittedType := map[string]bool{}
	for _, series := range names {
		base := baseName(series)
		if !emittedType[base] {
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", base, typed[base]); err != nil {
				return err
			}
			emittedType[base] = true
		}
		switch {
		case r.counters[series] != nil:
			if _, err := fmt.Fprintf(w, "%s %d\n", series, r.counters[series].Value()); err != nil {
				return err
			}
		case r.gauges[series] != nil:
			if _, err := fmt.Fprintf(w, "%s %g\n", series, r.gauges[series].Value()); err != nil {
				return err
			}
		case r.hists[series] != nil:
			if err := writeHistogram(w, series, r.hists[series]); err != nil {
				return err
			}
		}
	}
	return nil
}

// writeHistogram renders one histogram series with cumulative buckets.
func writeHistogram(w io.Writer, series string, h *Histogram) error {
	base, labels := baseName(series), labelSuffix(series)
	withLe := func(le string) string {
		if labels == "" {
			return fmt.Sprintf("%s_bucket{le=%q}", base, le)
		}
		return fmt.Sprintf("%s_bucket%s,le=%q}", base, labels[:len(labels)-1], le)
	}
	var cum uint64
	for _, b := range h.NonEmptyBuckets() {
		cum += b.Count
		if _, err := fmt.Fprintf(w, "%s %d\n", withLe(fmt.Sprintf("%g", b.Upper)), cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s %d\n", withLe("+Inf"), h.Count()); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %g\n", base, labels, h.Sum()); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", base, labels, h.Count())
	return err
}
