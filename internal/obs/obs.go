// Package obs is the dependency-light observability layer shared by every
// daemon: an atomic metrics registry with Prometheus text exposition, an
// HTTP server bundling /metrics, /healthz, and net/http/pprof, and slog
// helpers for structured daemon logging.
//
// The registry knows three metric kinds — counters, gauges, and
// histograms — in two forms:
//
//   - direct metrics, updated on hot paths with a single atomic operation
//     (Counter.Add, Histogram.Observe), created with Counter/Gauge/
//     Histogram or their labeled *Vec variants;
//   - sampled families, whose values are pulled from a callback at scrape
//     time (SampleCounters/SampleGauges) — the right shape for state that
//     already lives behind a lock or a scheduler, like the core proxy's
//     queue depths.
//
// Metric methods are nil-safe: a nil *Counter or *Histogram ignores
// updates, so instrumentation points cost one predictable branch when
// observability is disabled.
//
// Naming follows the Prometheus conventions used across the repo:
// lasthop_<subsystem>_<metric>[_unit][_total], with subsystems pubsub,
// wire, core, device, and loadgen (see DESIGN.md §8).
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing value with an atomic hot path.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter; it is a no-op on a nil receiver.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable float64 with an atomic hot path.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value; it is a no-op on a nil receiver.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adjusts the gauge by delta; it is a no-op on a nil receiver.
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current gauge value (0 on a nil receiver).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket distribution with atomic observation. Bucket
// bounds are upper limits in ascending order; observations above the last
// bound land in an implicit +Inf bucket. Quantile estimates interpolate
// within buckets, so bound spacing sets the estimation error (use
// ExpBuckets for a constant relative error, HDR-histogram style).
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; last is +Inf
	total  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-updated
}

// newHistogram builds a histogram over the given ascending bounds.
func newHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one value; it is a no-op on a nil receiver.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.total.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations (0 on a nil receiver).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.total.Load()
}

// Sum returns the sum of observations (0 on a nil receiver).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Quantile estimates the q-quantile (q in [0,1]) by linear interpolation
// within the owning bucket, assuming non-negative observations. Values in
// the +Inf bucket are attributed to the last finite bound. Returns 0 when
// empty or on a nil receiver.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil || len(h.bounds) == 0 {
		return 0
	}
	counts := make([]uint64, len(h.counts))
	var total uint64
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum float64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if next >= rank {
			if i >= len(h.bounds) {
				return h.bounds[len(h.bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			hi := h.bounds[i]
			frac := (rank - cum) / float64(c)
			return lo + (hi-lo)*frac
		}
		cum = next
	}
	return h.bounds[len(h.bounds)-1]
}

// ExpBuckets returns n exponentially spaced bucket bounds starting at
// start and growing by factor, the usual shape for latency and size
// distributions.
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// LatencyBuckets covers 50µs to ~26s in seconds with ~12% relative error,
// an HDR-style layout for end-to-end delivery latency.
func LatencyBuckets() []float64 { return ExpBuckets(50e-6, 1.25, 60) }

// SizeBuckets covers 1 to ~32k in powers of two, for batch sizes and
// fan-out widths.
func SizeBuckets() []float64 { return ExpBuckets(1, 2, 16) }

// Sample is one scrape-time value of a sampled family.
type Sample struct {
	// Labels are the label values, aligned with the family's label names.
	Labels []string
	// Value is the sampled metric value.
	Value float64
}

// metric kinds, as rendered in the # TYPE line.
const (
	typeCounter   = "counter"
	typeGauge     = "gauge"
	typeHistogram = "histogram"
)

// family is one named metric family: its type, label schema, direct
// children, and scrape-time samplers.
type family struct {
	name       string
	help       string
	typ        string
	labelNames []string
	buckets    []float64 // histogram families only

	mu       sync.Mutex
	children map[string]any // label-values key -> *Counter | *Gauge | *Histogram
	order    []string       // child keys in creation order
	samplers []func() []Sample
}

// Registry holds metric families and renders them in the Prometheus text
// exposition format. All methods are safe for concurrent use. Registering
// a name twice with the same type and label schema returns the same
// family, so independent components can contribute samples to one family.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family

	// onScrape hooks run at the top of WriteText, before any family
	// lock is taken, so they may freely update metrics (runtime gauges
	// pumped from runtime.ReadMemStats live here). scrapeMu is held while
	// they run — one scrape at a time — because hooks keep state between
	// scrapes (the GC-pause cursor); a hook must not call OnScrape.
	scrapeMu sync.Mutex
	onScrape []func()
}

// OnScrape registers a hook that runs at the start of every WriteText
// (i.e. every /metrics scrape), before rendering. Hooks refresh gauges
// whose source is pull-based — runtime stats, /proc readings — without
// a background goroutine.
func (r *Registry) OnScrape(fn func()) {
	r.scrapeMu.Lock()
	r.onScrape = append(r.onScrape, fn)
	r.scrapeMu.Unlock()
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// lookup returns the named family, creating it on first use and panicking
// on a type or label-schema conflict — conflicting registrations are
// programming errors, caught in any test that scrapes.
func (r *Registry) lookup(name, help, typ string, labelNames []string, buckets []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{
			name:       name,
			help:       help,
			typ:        typ,
			labelNames: append([]string(nil), labelNames...),
			buckets:    append([]float64(nil), buckets...),
			children:   make(map[string]any),
		}
		r.families[name] = f
		return f
	}
	if f.typ != typ || len(f.labelNames) != len(labelNames) {
		panic(fmt.Sprintf("obs: metric %q re-registered as %s%v, was %s%v",
			name, typ, labelNames, f.typ, f.labelNames))
	}
	for i := range labelNames {
		if f.labelNames[i] != labelNames[i] {
			panic(fmt.Sprintf("obs: metric %q re-registered with labels %v, was %v",
				name, labelNames, f.labelNames))
		}
	}
	return f
}

// child returns the family's metric for the given label values, creating
// it with mk on first use.
func (f *family) child(values []string, mk func() any) any {
	if len(values) != len(f.labelNames) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d",
			f.name, len(f.labelNames), len(values)))
	}
	key := labelKey(values)
	f.mu.Lock()
	defer f.mu.Unlock()
	m, ok := f.children[key]
	if !ok {
		m = mk()
		f.children[key] = m
		f.order = append(f.order, key)
	}
	return m
}

// labelKey joins label values unambiguously.
func labelKey(values []string) string { return strings.Join(values, "\x00") }

// Counter returns the unlabeled counter with the given name, creating it
// on first use.
func (r *Registry) Counter(name, help string) *Counter {
	return r.CounterVec(name, help).With()
}

// CounterVec declares a labeled counter family.
func (r *Registry) CounterVec(name, help string, labelNames ...string) *CounterVec {
	return &CounterVec{f: r.lookup(name, help, typeCounter, labelNames, nil)}
}

// CounterVec hands out per-label-value counters of one family.
type CounterVec struct{ f *family }

// With returns the counter for the given label values.
func (v *CounterVec) With(values ...string) *Counter {
	return v.f.child(values, func() any { return &Counter{} }).(*Counter)
}

// Gauge returns the unlabeled gauge with the given name.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.GaugeVec(name, help).With()
}

// GaugeVec declares a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labelNames ...string) *GaugeVec {
	return &GaugeVec{f: r.lookup(name, help, typeGauge, labelNames, nil)}
}

// GaugeVec hands out per-label-value gauges of one family.
type GaugeVec struct{ f *family }

// With returns the gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	return v.f.child(values, func() any { return &Gauge{} }).(*Gauge)
}

// Histogram returns the unlabeled histogram with the given name and
// bucket bounds.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	return r.HistogramVec(name, help, buckets).With()
}

// HistogramVec declares a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labelNames ...string) *HistogramVec {
	return &HistogramVec{f: r.lookup(name, help, typeHistogram, labelNames, buckets)}
}

// HistogramVec hands out per-label-value histograms of one family.
type HistogramVec struct{ f *family }

// With returns the histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	f := v.f
	return f.child(values, func() any { return newHistogram(f.buckets) }).(*Histogram)
}

// SampleCounters registers a scrape-time sampler contributing counter
// samples to the named family. Several samplers may feed one family (each
// should emit distinct label values).
func (r *Registry) SampleCounters(name, help string, labelNames []string, fn func() []Sample) {
	r.sample(name, help, typeCounter, labelNames, fn)
}

// SampleGauges registers a scrape-time sampler contributing gauge samples
// to the named family.
func (r *Registry) SampleGauges(name, help string, labelNames []string, fn func() []Sample) {
	r.sample(name, help, typeGauge, labelNames, fn)
}

func (r *Registry) sample(name, help, typ string, labelNames []string, fn func() []Sample) {
	f := r.lookup(name, help, typ, labelNames, nil)
	f.mu.Lock()
	f.samplers = append(f.samplers, fn)
	f.mu.Unlock()
}

// WriteText renders every family in the Prometheus text exposition
// format, sorted by family name.
func (r *Registry) WriteText(w io.Writer) error {
	r.scrapeMu.Lock()
	for _, fn := range r.onScrape {
		fn()
	}
	r.scrapeMu.Unlock()
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		fams = append(fams, r.families[name])
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		f.render(&b)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// render appends the family's exposition lines.
func (f *family) render(b *strings.Builder) {
	f.mu.Lock()
	keys := append([]string(nil), f.order...)
	children := make([]any, len(keys))
	for i, k := range keys {
		children[i] = f.children[k]
	}
	samplers := append([]func() []Sample(nil), f.samplers...)
	f.mu.Unlock()

	if f.help != "" {
		fmt.Fprintf(b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
	}
	fmt.Fprintf(b, "# TYPE %s %s\n", f.name, f.typ)
	for i, key := range keys {
		values := labelValues(key, len(f.labelNames))
		switch m := children[i].(type) {
		case *Counter:
			writeSample(b, f.name, "", f.labelNames, values, "", float64(m.Value()))
		case *Gauge:
			writeSample(b, f.name, "", f.labelNames, values, "", m.Value())
		case *Histogram:
			m.render(b, f.name, f.labelNames, values)
		}
	}
	for _, fn := range samplers {
		for _, s := range fn() {
			writeSample(b, f.name, "", f.labelNames, s.Labels, "", s.Value)
		}
	}
}

// labelValues splits a child key back into label values.
func labelValues(key string, n int) []string {
	if n == 0 {
		return nil
	}
	return strings.SplitN(key, "\x00", n)
}

// render appends the histogram's bucket/sum/count lines.
func (h *Histogram) render(b *strings.Builder, name string, labelNames, values []string) {
	var cum uint64
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		writeSample(b, name, "_bucket", labelNames, values,
			formatFloat(bound), float64(cum))
	}
	cum += h.counts[len(h.bounds)].Load()
	writeSample(b, name, "_bucket", labelNames, values, "+Inf", float64(cum))
	writeSample(b, name, "_sum", labelNames, values, "", h.Sum())
	writeSample(b, name, "_count", labelNames, values, "", float64(h.Count()))
}

// writeSample appends one exposition line; le, when non-empty, is added as
// the histogram bucket label.
func writeSample(b *strings.Builder, name, suffix string, labelNames, values []string, le string, v float64) {
	b.WriteString(name)
	b.WriteString(suffix)
	if len(labelNames) > 0 || le != "" {
		b.WriteByte('{')
		sep := false
		for i, ln := range labelNames {
			if sep {
				b.WriteByte(',')
			}
			sep = true
			val := ""
			if i < len(values) {
				val = values[i]
			}
			fmt.Fprintf(b, "%s=%q", ln, escapeLabel(val))
		}
		if le != "" {
			if sep {
				b.WriteByte(',')
			}
			fmt.Fprintf(b, "le=%q", le)
		}
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(formatFloat(v))
	b.WriteByte('\n')
}

func formatFloat(v float64) string {
	if v == math.MaxFloat64 || math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}
