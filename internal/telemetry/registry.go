// Package telemetry is the testbed's continuous-observation plane: a
// metrics registry (counters, gauges, fixed-bucket histograms) whose
// record path is lock-free and allocation-free.
//
// The registry separates a slow registration path (named families,
// label sets, bucket layouts — taken once at wiring time, under a
// mutex) from a hot record path (a pre-resolved *Counter, *Gauge or
// *Histogram handle — atomic operations only). The capacity engine's
// zero-alloc guarantee (DESIGN.md, "Engine performance") must survive
// with telemetry enabled, so every Record/Observe/Set is 0 allocs/op;
// internal/telemetry's benchmarks and TestRecordPathZeroAlloc enforce
// the contract.
//
// Exposition (expose.go) renders the same registry two ways: the
// Prometheus text format for live scraping (cmd/pbxd /metrics) and a
// deterministic JSON snapshot for experiment dumps and golden tests.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind is a metric family's type.
type Kind string

// Metric kinds, named as Prometheus spells them.
const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// Label is one name="value" pair on a metric.
type Label struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing value. The zero value is
// usable but unregistered; obtain counters from a Registry.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a value that can go up and down, stored as float64 bits.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// SetInt stores an integer value.
func (g *Gauge) SetInt(v int) { g.Set(float64(v)) }

// Add adds delta (CAS loop; rare contention is fine off the hot path).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket histogram over non-negative values. The
// bucket layout (upper bounds; +Inf is implicit) is fixed at
// registration so the record path is a binary search plus atomic adds.
type Histogram struct {
	bounds []float64       // strictly increasing upper bounds
	counts []atomic.Uint64 // len(bounds)+1; last = overflow (+Inf)
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-updated
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// Binary search for the first bound >= v.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if v <= h.bounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	h.counts[lo].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Bounds returns the bucket upper bounds (without the implicit +Inf).
func (h *Histogram) Bounds() []float64 { return h.bounds }

// Load copies the per-bucket (non-cumulative) counts into dst, which
// must have len(Bounds())+1 entries, and returns count and sum. It
// allocates nothing, so a periodic sampler can diff consecutive loads.
func (h *Histogram) Load(dst []uint64) (count uint64, sum float64) {
	for i := range h.counts {
		dst[i] = h.counts[i].Load()
	}
	return h.count.Load(), h.Sum()
}

// NumBuckets returns the number of buckets including the overflow.
func (h *Histogram) NumBuckets() int { return len(h.counts) }

// LinearBuckets returns n upper bounds start, start+width, ….
func LinearBuckets(start, width float64, n int) []float64 {
	b := make([]float64, n)
	for i := range b {
		b[i] = start + float64(i)*width
	}
	return b
}

// ExponentialBuckets returns n upper bounds start, start·factor, ….
func ExponentialBuckets(start, factor float64, n int) []float64 {
	b := make([]float64, n)
	v := start
	for i := range b {
		b[i] = v
		v *= factor
	}
	return b
}

// QuantileFromCounts estimates the q-quantile from per-bucket
// (non-cumulative) counts laid out as bounds plus an overflow bucket,
// interpolating linearly inside the bucket. Values are assumed
// non-negative: the first bucket's lower edge is 0. Overflow mass is
// attributed to the last finite bound. Returns 0 when empty.
func QuantileFromCounts(bounds []float64, counts []uint64, q float64) float64 {
	var total uint64
	for _, c := range counts {
		total += c
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
	target := q * float64(total)
	acc := 0.0
	for i, c := range counts {
		next := acc + float64(c)
		if next >= target && c > 0 {
			if i >= len(bounds) {
				return bounds[len(bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = bounds[i-1]
			}
			frac := (target - acc) / float64(c)
			return lo + frac*(bounds[i]-lo)
		}
		acc = next
	}
	return bounds[len(bounds)-1]
}

// metric is one labeled instrument inside a family.
type metric struct {
	labels []Label // sorted by key
	sig    string  // canonical label signature for dedup/sort
	c      *Counter
	g      *Gauge
	h      *Histogram
	// fns is a pull-style counter's or gauge's readers: the value is
	// their sum. Registration swaps in a new slice, so a reader that
	// ValueFunc handed out never races a later registration.
	fns atomic.Pointer[[]func() float64]
}

// family groups the metrics sharing one name.
type family struct {
	name    string
	help    string
	kind    Kind
	bounds  []float64 // histograms only
	metrics []*metric
}

// Registry holds metric families. Registration takes a mutex; the
// returned handles record with atomics only. The zero value is not
// usable; use NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// labelSig builds the canonical signature of a sorted label set.
func labelSig(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	return b.String()
}

// getFamily finds or creates a family, enforcing kind consistency.
func (r *Registry) getFamily(name, help string, kind Kind) *family {
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind}
		r.families[name] = f
		return f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("telemetry: %s registered as %s, requested as %s", name, f.kind, kind))
	}
	return f
}

// find returns the existing metric with this label set, if any.
func (f *family) find(sig string) *metric {
	for _, m := range f.metrics {
		if m.sig == sig {
			return m
		}
	}
	return nil
}

func sortLabels(labels []Label) []Label {
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	return ls
}

// Counter registers (or finds) a counter and returns its handle.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	ls := sortLabels(labels)
	sig := labelSig(ls)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.getFamily(name, help, KindCounter)
	if m := f.find(sig); m != nil {
		return m.c
	}
	m := &metric{labels: ls, sig: sig, c: &Counter{}}
	f.metrics = append(f.metrics, m)
	return m.c
}

// Gauge registers (or finds) a gauge and returns its handle.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	ls := sortLabels(labels)
	sig := labelSig(ls)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.getFamily(name, help, KindGauge)
	if m := f.find(sig); m != nil {
		return m.g
	}
	m := &metric{labels: ls, sig: sig, g: &Gauge{}}
	f.metrics = append(f.metrics, m)
	return m.g
}

// Histogram registers (or finds) a histogram with the given upper
// bounds. Re-registration with different bounds panics: bucket layout
// is part of a family's identity (the golden snapshot test pins it).
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("telemetry: histogram bounds must be strictly increasing")
		}
	}
	if len(bounds) == 0 {
		panic("telemetry: histogram needs at least one bound")
	}
	ls := sortLabels(labels)
	sig := labelSig(ls)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.getFamily(name, help, KindHistogram)
	if f.bounds == nil {
		f.bounds = append([]float64(nil), bounds...)
	} else if len(f.bounds) != len(bounds) {
		panic(fmt.Sprintf("telemetry: %s re-registered with different bucket layout", name))
	}
	if m := f.find(sig); m != nil {
		return m.h
	}
	h := &Histogram{bounds: f.bounds, counts: make([]atomic.Uint64, len(f.bounds)+1)}
	m := &metric{labels: ls, sig: sig, h: h}
	f.metrics = append(f.metrics, m)
	return m.h
}

// CounterFunc registers a pull-style counter evaluated at snapshot
// time — for subsystems that already keep their own counters (the
// netsim scheduler, a server's Counters) and must not pay per-event
// atomics. Registering again on the same label set adds fn to the
// sum: the backends of a farm, or a crashed server and its restart,
// publish into one registry the total an outside collector would add
// up.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	r.registerFunc(name, help, KindCounter, fn, labels)
}

// GaugeFunc registers a pull-style gauge evaluated at snapshot time.
// Registering again on the same label set replaces the reader: a level
// is not a sum.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.registerFunc(name, help, KindGauge, fn, labels)
}

func (r *Registry) registerFunc(name, help string, kind Kind, fn func() float64, labels []Label) {
	ls := sortLabels(labels)
	sig := labelSig(ls)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.getFamily(name, help, kind)
	m := f.find(sig)
	if m == nil {
		m = &metric{labels: ls, sig: sig}
		f.metrics = append(f.metrics, m)
	}
	var fns []func() float64
	if old := m.fns.Load(); old != nil && kind == KindCounter {
		fns = append(fns, *old...)
	}
	fns = append(fns, fn)
	m.fns.Store(&fns)
}

// value evaluates a scalar metric (counter, gauge or func).
func (m *metric) value() float64 {
	if fns := m.fns.Load(); fns != nil {
		total := 0.0
		for _, fn := range *fns {
			total += fn()
		}
		return total
	}
	switch {
	case m.c != nil:
		return float64(m.c.Value())
	case m.g != nil:
		return m.g.Value()
	}
	return 0
}

// ValueFunc returns a reader for the named scalar metric summed over
// all its label sets, or nil when the family is unknown or a
// histogram. The returned func allocates nothing per call, so the
// monitor sampler can poll it every virtual second.
func (r *Registry) ValueFunc(name string) func() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok || f.kind == KindHistogram {
		return nil
	}
	ms := f.metrics
	return func() float64 {
		total := 0.0
		for _, m := range ms {
			total += m.value()
		}
		return total
	}
}

// FindHistogram returns the unlabeled histogram registered under name,
// or nil.
func (r *Registry) FindHistogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok || f.kind != KindHistogram {
		return nil
	}
	if m := f.find(""); m != nil {
		return m.h
	}
	return nil
}
