// Package telemetry is a dependency-free metrics registry for the service
// layer: counters, gauges, and fixed-bucket histograms, each optionally
// labeled, rendered in the Prometheus text exposition format (version
// 0.0.4) by WritePrometheus. cmd/leaksd uses it to instrument scan
// latency, queue depth, cache hit rate, chaos-induced retries, and
// per-channel leakage verdict counts without pulling a client library
// into a repository whose contract is "stdlib only".
//
// Design notes:
//
//   - Metric families are created once (typically at service start) and
//     are safe for concurrent use afterwards; creating the same family
//     twice panics, because two call sites disagreeing on a metric's type
//     or labels is a programming error, not a runtime condition.
//   - Labeled children are created lazily on first With(...) and cached;
//     With on a hot path is a map lookup under RLock.
//   - Rendering sorts families by name and children by label value, so
//     /v1/metrics output is deterministic — scrape diffs in tests compare
//     bytes, same as every other artifact in this repository.
//   - Values are float64 behind a mutex rather than atomics: every
//     metric here is touched at scan granularity (milliseconds to
//     minutes), so contention is irrelevant and the simple invariant
//     ("the mutex guards everything") is worth more than nanoseconds.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
)

// Registry holds metric families and renders them.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// family is one named metric with its labeled children.
type family struct {
	name       string
	help       string
	kind       metricKind
	labelNames []string
	buckets    []float64 // histograms only

	mu       sync.RWMutex
	children map[string]*child // key: joined label values
}

// child is one (label values) instance of a family.
type child struct {
	labelValues []string

	mu    sync.Mutex
	value float64  // counter / gauge
	count uint64   // histogram observations
	sum   float64  // histogram sum
	bkts  []uint64 // cumulative-at-render, stored per-bucket here
}

// register installs a new family, panicking on redefinition.
func (r *Registry) register(f *family) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.families[f.name]; dup {
		panic(fmt.Sprintf("telemetry: metric %q registered twice", f.name))
	}
	r.families[f.name] = f
}

func (f *family) child(labelValues []string) *child {
	if len(labelValues) != len(f.labelNames) {
		panic(fmt.Sprintf("telemetry: metric %q wants %d label values, got %d",
			f.name, len(f.labelNames), len(labelValues)))
	}
	key := strings.Join(labelValues, "\x00")
	f.mu.RLock()
	c, ok := f.children[key]
	f.mu.RUnlock()
	if ok {
		return c
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok = f.children[key]; ok {
		return c
	}
	c = &child{labelValues: append([]string(nil), labelValues...)}
	if f.kind == kindHistogram {
		c.bkts = make([]uint64, len(f.buckets))
	}
	f.children[key] = c
	return c
}

// CounterVec is a family of monotonically increasing counters.
type CounterVec struct{ f *family }

// Counter registers a counter family. With no label names the family has a
// single implicit child reachable via With().
func (r *Registry) Counter(name, help string, labelNames ...string) *CounterVec {
	f := &family{name: name, help: help, kind: kindCounter,
		labelNames: labelNames, children: make(map[string]*child)}
	r.register(f)
	return &CounterVec{f: f}
}

// With resolves the child for the given label values (created on first use).
func (v *CounterVec) With(labelValues ...string) *Counter {
	return &Counter{c: v.f.child(labelValues)}
}

// Counter is one counter instance.
type Counter struct{ c *child }

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add adds delta (must be >= 0; negative deltas panic — counters are
// monotone by definition, and silently accepting a decrement would make
// rate() queries lie).
func (c *Counter) Add(delta float64) {
	if delta < 0 || math.IsNaN(delta) {
		panic(fmt.Sprintf("telemetry: counter decremented by %v", delta))
	}
	c.c.mu.Lock()
	c.c.value += delta
	c.c.mu.Unlock()
}

// Value reads the current count (tests and admission-control logic).
func (c *Counter) Value() float64 {
	c.c.mu.Lock()
	defer c.c.mu.Unlock()
	return c.c.value
}

// GaugeVec is a family of gauges.
type GaugeVec struct{ f *family }

// Gauge registers a gauge family.
func (r *Registry) Gauge(name, help string, labelNames ...string) *GaugeVec {
	f := &family{name: name, help: help, kind: kindGauge,
		labelNames: labelNames, children: make(map[string]*child)}
	r.register(f)
	return &GaugeVec{f: f}
}

// With resolves the child for the given label values.
func (v *GaugeVec) With(labelValues ...string) *Gauge {
	return &Gauge{c: v.f.child(labelValues)}
}

// Gauge is one gauge instance.
type Gauge struct{ c *child }

// Set stores v.
func (g *Gauge) Set(v float64) {
	g.c.mu.Lock()
	g.c.value = v
	g.c.mu.Unlock()
}

// Add adds delta (may be negative).
func (g *Gauge) Add(delta float64) {
	g.c.mu.Lock()
	g.c.value += delta
	g.c.mu.Unlock()
}

// Value reads the gauge.
func (g *Gauge) Value() float64 {
	g.c.mu.Lock()
	defer g.c.mu.Unlock()
	return g.c.value
}

// HistogramVec is a family of fixed-bucket histograms.
type HistogramVec struct{ f *family }

// Histogram registers a histogram family with the given upper bucket
// bounds (must be sorted ascending; the +Inf bucket is implicit).
func (r *Registry) Histogram(name, help string, buckets []float64, labelNames ...string) *HistogramVec {
	if len(buckets) == 0 {
		buckets = DefaultLatencyBuckets()
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("telemetry: histogram %q buckets not ascending at %d", name, i))
		}
	}
	f := &family{name: name, help: help, kind: kindHistogram,
		labelNames: labelNames, buckets: append([]float64(nil), buckets...),
		children: make(map[string]*child)}
	r.register(f)
	return &HistogramVec{f: f}
}

// DefaultLatencyBuckets spans the scan-latency range this repository
// actually produces: sub-millisecond cache hits up to multi-minute chaos
// sweeps.
func DefaultLatencyBuckets() []float64 {
	return []float64{0.001, 0.005, 0.025, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120, 300}
}

// DefaultServingBuckets spans the HTTP serving-latency range: a /v1
// response-cache hit lands in single-digit microseconds, a cold render in
// the tens-to-hundreds, and anything past a millisecond is contention.
// DefaultLatencyBuckets starts where this one ends — scan compute and
// request serving live three orders of magnitude apart.
func DefaultServingBuckets() []float64 {
	return []float64{1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 1e-3, 5e-3, 2.5e-2, 0.1, 1}
}

// With resolves the child for the given label values.
func (v *HistogramVec) With(labelValues ...string) *Histogram {
	return &Histogram{f: v.f, c: v.f.child(labelValues)}
}

// Histogram is one histogram instance.
type Histogram struct {
	f *family
	c *child
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.c.mu.Lock()
	defer h.c.mu.Unlock()
	h.c.count++
	h.c.sum += v
	for i, ub := range h.f.buckets {
		if v <= ub {
			h.c.bkts[i]++
			break
		}
	}
}

// Count reads the number of observations.
func (h *Histogram) Count() uint64 {
	h.c.mu.Lock()
	defer h.c.mu.Unlock()
	return h.c.count
}

// Sum reads the sum of observations.
func (h *Histogram) Sum() float64 {
	h.c.mu.Lock()
	defer h.c.mu.Unlock()
	return h.c.sum
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

// labelString renders {k="v",...} for the given names/values plus extras.
func labelString(names, values []string, extraK, extraV string) string {
	if len(names) == 0 && extraK == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, n, escapeLabel(values[i]))
	}
	if extraK != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, extraK, escapeLabel(extraV))
	}
	b.WriteByte('}')
	return b.String()
}

// formatValue renders a sample value the way Prometheus clients do.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv(v)
}

// strconv formats with minimal digits (strconv.FormatFloat 'g').
func strconv(v float64) string { return fmt.Sprintf("%g", v) }

// WritePrometheus renders every family in the text exposition format,
// families sorted by name and children by label values, so two renders of
// the same state are byte-identical.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.RLock()
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	r.mu.RUnlock()
	sort.Strings(names)

	for _, name := range names {
		r.mu.RLock()
		f := r.families[name]
		r.mu.RUnlock()
		if err := f.write(w); err != nil {
			return err
		}
	}
	return nil
}

func (f *family) write(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.kind); err != nil {
		return err
	}
	f.mu.RLock()
	keys := make([]string, 0, len(f.children))
	for k := range f.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	children := make([]*child, 0, len(keys))
	for _, k := range keys {
		children = append(children, f.children[k])
	}
	f.mu.RUnlock()

	for _, c := range children {
		c.mu.Lock()
		switch f.kind {
		case kindCounter, kindGauge:
			fmt.Fprintf(w, "%s%s %s\n", f.name, labelString(f.labelNames, c.labelValues, "", ""), formatValue(c.value))
		case kindHistogram:
			var cum uint64
			for i, ub := range f.buckets {
				cum += c.bkts[i]
				fmt.Fprintf(w, "%s_bucket%s %d\n", f.name,
					labelString(f.labelNames, c.labelValues, "le", formatValue(ub)), cum)
			}
			fmt.Fprintf(w, "%s_bucket%s %d\n", f.name,
				labelString(f.labelNames, c.labelValues, "le", "+Inf"), c.count)
			fmt.Fprintf(w, "%s_sum%s %s\n", f.name, labelString(f.labelNames, c.labelValues, "", ""), formatValue(c.sum))
			fmt.Fprintf(w, "%s_count%s %d\n", f.name, labelString(f.labelNames, c.labelValues, "", ""), c.count)
		}
		c.mu.Unlock()
	}
	return nil
}
