// Package obs is the zero-dependency observability core of kglids: an
// atomic metrics registry (counters, gauges, exponential-bucket
// histograms, labeled families) with Prometheus text-format exposition,
// plus a lightweight request-scoped trace context threaded through
// context.Context (see trace.go) and a debug HTTP mux serving /metrics,
// /debug/vars, and optional pprof (see handler.go).
//
// Everything is built on sync/atomic: recording a sample is a handful of
// atomic adds with no allocation and no lock on the hot path, so
// instrumented code stays within the ≤2% overhead budget the server
// bench experiment enforces. Metrics are registered once, at package
// init time of the instrumented package, against the process-wide
// Default registry; exposition walks the registry under a read lock.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// --- scalar instruments -----------------------------------------------------

// Counter is a monotonically increasing uint64.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an int64 that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// FloatGauge is a float64 gauge for quantities that are not integral —
// e.g. replication lag in seconds. Stored as IEEE-754 bits in an atomic
// uint64, so Set/Value are single atomic operations.
type FloatGauge struct {
	bits atomic.Uint64
}

// Set replaces the value.
func (g *FloatGauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *FloatGauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into cumulative buckets with fixed upper
// bounds, plus a running sum — the Prometheus histogram model. Observe is
// lock-free: one atomic add on the matching bucket, one on the count, and
// a CAS loop on the float64 sum.
type Histogram struct {
	bounds  []float64 // sorted upper bounds, +Inf excluded
	buckets []atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64 // math.Float64bits of the running sum
}

func newHistogram(bounds []float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	sort.Float64s(b)
	return &Histogram{bounds: b, buckets: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// snapshot returns cumulative bucket counts aligned with h.bounds plus
// the +Inf bucket (== total count). Buckets are read without a global
// lock, so under concurrent Observe the cumulative counts may lag the
// count column by in-flight samples; monotonicity within the snapshot is
// restored by the running cumulative sum itself.
func (h *Histogram) snapshot() (cum []uint64, count uint64, sum float64) {
	cum = make([]uint64, len(h.buckets))
	var run uint64
	for i := range h.buckets {
		run += h.buckets[i].Load()
		cum[i] = run
	}
	return cum, run, h.Sum()
}

// ExpBuckets returns count upper bounds growing geometrically from start
// by factor — the standard shape for latency histograms.
func ExpBuckets(start, factor float64, count int) []float64 {
	if start <= 0 || factor <= 1 || count < 1 {
		panic("obs: ExpBuckets needs start > 0, factor > 1, count >= 1")
	}
	out := make([]float64, count)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// DefaultLatencyBuckets spans 100µs to ~105s in x2 steps — wide enough
// for a health check and a cold similarity-edge build alike.
var DefaultLatencyBuckets = ExpBuckets(0.0001, 2, 21)

// --- labeled families -------------------------------------------------------

// labelSep joins label values into a map key; 0xff cannot appear in
// valid UTF-8 label values.
const labelSep = "\xff"

// vec is the shared child-management core of the labeled families.
type vec[T any] struct {
	mu       sync.RWMutex
	children map[string]*T
	order    []string // insertion-ordered keys for deterministic exposition
	make     func() *T
	nLabels  int
}

func newVec[T any](nLabels int, mk func() *T) *vec[T] {
	return &vec[T]{children: map[string]*T{}, make: mk, nLabels: nLabels}
}

func (v *vec[T]) with(labels ...string) *T {
	if len(labels) != v.nLabels {
		panic(fmt.Sprintf("obs: metric expects %d label values, got %d", v.nLabels, len(labels)))
	}
	// The hit path must not allocate: this runs once per request in the
	// server middleware. The joined key is built in a stack scratch
	// buffer, and a map index with a string([]byte) operand does not
	// copy, so only a genuinely new label combination pays for a string.
	n := len(labels)
	for _, l := range labels {
		n += len(l)
	}
	var scratch [96]byte
	buf := scratch[:0]
	if n > len(scratch) {
		buf = make([]byte, 0, n)
	}
	for i, l := range labels {
		if i > 0 {
			buf = append(buf, labelSep...)
		}
		buf = append(buf, l...)
	}
	v.mu.RLock()
	c := v.children[string(buf)]
	v.mu.RUnlock()
	if c != nil {
		return c
	}
	key := string(buf)
	v.mu.Lock()
	defer v.mu.Unlock()
	if c = v.children[key]; c == nil {
		c = v.make()
		v.children[key] = c
		v.order = append(v.order, key)
	}
	return c
}

// each visits children in insertion order under the read lock.
func (v *vec[T]) each(fn func(labelVals []string, c *T)) {
	v.mu.RLock()
	keys := make([]string, len(v.order))
	copy(keys, v.order)
	v.mu.RUnlock()
	sort.Strings(keys)
	for _, k := range keys {
		v.mu.RLock()
		c := v.children[k]
		v.mu.RUnlock()
		var vals []string
		if k != "" || v.nLabels > 0 {
			vals = strings.Split(k, labelSep)
		}
		fn(vals, c)
	}
}

// CounterVec is a family of counters sharing a name and label names.
type CounterVec struct{ *vec[Counter] }

// WithLabelValues returns (creating on first use) the child for the
// given label values, in label-name order.
func (v *CounterVec) WithLabelValues(labels ...string) *Counter { return v.with(labels...) }

// HistogramVec is a family of histograms sharing a name, label names,
// and bucket bounds.
type HistogramVec struct{ *vec[Histogram] }

// WithLabelValues returns the child histogram for the given label values.
func (v *HistogramVec) WithLabelValues(labels ...string) *Histogram { return v.with(labels...) }

// --- registry ---------------------------------------------------------------

type familyKind int

const (
	kindCounter familyKind = iota
	kindGauge
	kindHistogram
)

func (k familyKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// family is one registered metric name: its metadata plus either a
// single unlabeled instrument or a labeled vec.
type family struct {
	name       string
	help       string
	kind       familyKind
	labelNames []string

	counter    *Counter
	gauge      *Gauge
	floatGauge *FloatGauge
	histogram  *Histogram
	counterVec *CounterVec
	histVec    *HistogramVec
}

// Registry holds metric families and renders them as Prometheus text
// exposition. Registration panics on a duplicate or invalid name —
// registration happens once at package init, so a panic is a programming
// error surfaced at first run, never in steady state.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// Default is the process-wide registry every instrumented package
// registers into.
var Default = NewRegistry()

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

func (r *Registry) register(f *family) {
	if !validMetricName(f.name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", f.name))
	}
	for _, l := range f.labelNames {
		if !validLabelName(l) {
			panic(fmt.Sprintf("obs: invalid label name %q on %q", l, f.name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.families[f.name]; dup {
		panic(fmt.Sprintf("obs: duplicate metric name %q", f.name))
	}
	r.families[f.name] = f
}

// NewCounter registers and returns an unlabeled counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	c := &Counter{}
	r.register(&family{name: name, help: help, kind: kindCounter, counter: c})
	return c
}

// NewCounterVec registers a counter family with the given label names.
func (r *Registry) NewCounterVec(name, help string, labelNames ...string) *CounterVec {
	v := &CounterVec{newVec(len(labelNames), func() *Counter { return &Counter{} })}
	r.register(&family{name: name, help: help, kind: kindCounter, labelNames: labelNames, counterVec: v})
	return v
}

// NewGauge registers and returns an unlabeled gauge.
func (r *Registry) NewGauge(name, help string) *Gauge {
	g := &Gauge{}
	r.register(&family{name: name, help: help, kind: kindGauge, gauge: g})
	return g
}

// NewFloatGauge registers and returns an unlabeled float-valued gauge.
func (r *Registry) NewFloatGauge(name, help string) *FloatGauge {
	g := &FloatGauge{}
	r.register(&family{name: name, help: help, kind: kindGauge, floatGauge: g})
	return g
}

// NewHistogramVec registers a histogram family sharing bucket bounds
// across children.
func (r *Registry) NewHistogramVec(name, help string, buckets []float64, labelNames ...string) *HistogramVec {
	bounds := make([]float64, len(buckets))
	copy(bounds, buckets)
	sort.Float64s(bounds)
	v := &HistogramVec{newVec(len(labelNames), func() *Histogram { return newHistogram(bounds) })}
	r.register(&family{name: name, help: help, kind: kindHistogram, labelNames: labelNames, histVec: v})
	return v
}

// sortedFamilies snapshots the registered families in name order.
func (r *Registry) sortedFamilies() []*family {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func validLabelName(s string) bool {
	if s == "" || s == "le" { // le is reserved for histogram buckets
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}
