package telemetry

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("reqs_total", "requests")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	// Same name+labels returns the same handle.
	if c2 := reg.Counter("reqs_total", "requests"); c2 != c {
		t.Fatalf("re-registration returned a different counter handle")
	}
	// Different label sets are distinct metrics.
	ca := reg.Counter("by_kind", "", L("kind", "a"))
	cb := reg.Counter("by_kind", "", L("kind", "b"))
	if ca == cb {
		t.Fatalf("distinct label sets shared a handle")
	}
	ca.Inc()
	ca.Inc()
	cb.Inc()
	snap := reg.Snapshot()
	if got := snap.Scalar("by_kind"); got != 3 {
		t.Fatalf("Scalar(by_kind) = %v, want 3", got)
	}

	g := reg.Gauge("level", "")
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", got)
	}
	g.SetInt(7)
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge = %v, want 7", got)
	}
}

func TestLabelOrderCanonical(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("m", "", L("b", "2"), L("a", "1"))
	b := reg.Counter("m", "", L("a", "1"), L("b", "2"))
	if a != b {
		t.Fatalf("label order changed metric identity")
	}
}

func TestKindMismatchPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("x", "")
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic on kind mismatch")
		}
	}()
	reg.Gauge("x", "")
}

func TestHistogramBuckets(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat", "", []float64{1, 2, 5})
	for _, v := range []float64{0.5, 1, 1.5, 3, 10} {
		h.Observe(v)
	}
	if got := h.Count(); got != 5 {
		t.Fatalf("count = %d, want 5", got)
	}
	if got := h.Sum(); got != 16 {
		t.Fatalf("sum = %v, want 16", got)
	}
	dst := make([]uint64, h.NumBuckets())
	h.Load(dst)
	want := []uint64{2, 1, 1, 1} // <=1: {0.5,1}; <=2: {1.5}; <=5: {3}; +Inf: {10}
	for i, w := range want {
		if dst[i] != w {
			t.Fatalf("bucket[%d] = %d, want %d (all %v)", i, dst[i], w, dst)
		}
	}
}

func TestBucketHelpers(t *testing.T) {
	lin := LinearBuckets(1, 2, 3)
	if want := []float64{1, 3, 5}; !equalFloats(lin, want) {
		t.Fatalf("LinearBuckets = %v, want %v", lin, want)
	}
	exp := ExponentialBuckets(1, 10, 3)
	if want := []float64{1, 10, 100}; !equalFloats(exp, want) {
		t.Fatalf("ExponentialBuckets = %v, want %v", exp, want)
	}
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestQuantileProperty is the satellite property test: for random
// sample sets, the histogram's estimated quantile must land within one
// bucket width of the exact sorted-sample quantile.
func TestQuantileProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	bounds := LinearBuckets(0.05, 0.05, 40) // 0.05 .. 2.0
	quantiles := []float64{0.1, 0.25, 0.5, 0.9, 0.99}
	for trial := 0; trial < 50; trial++ {
		reg := NewRegistry()
		h := reg.Histogram("q", "", bounds)
		n := 50 + rng.Intn(2000)
		samples := make([]float64, n)
		for i := range samples {
			// Mix of uniform mass in-range and a tail past the last bound.
			v := rng.Float64() * 1.9
			if rng.Intn(20) == 0 {
				v = 2.0 + rng.Float64()*3
			}
			samples[i] = v
			h.Observe(v)
		}
		sort.Float64s(samples)
		dst := make([]uint64, h.NumBuckets())
		h.Load(dst)
		for _, q := range quantiles {
			got := QuantileFromCounts(bounds, dst, q)
			idx := int(q * float64(n))
			if idx >= n {
				idx = n - 1
			}
			exact := samples[idx]
			if exact > bounds[len(bounds)-1] {
				// Overflow mass is clamped to the last finite bound by design.
				exact = bounds[len(bounds)-1]
			}
			width := 0.05
			if diff := got - exact; diff > width+1e-9 || diff < -width-1e-9 {
				t.Fatalf("trial %d q=%v: estimate %v vs exact %v (>1 bucket width off, n=%d)",
					trial, q, got, exact, n)
			}
		}
	}
}

func TestQuantileEdgeCases(t *testing.T) {
	bounds := []float64{1, 2, 3}
	if got := QuantileFromCounts(bounds, make([]uint64, 4), 0.5); got != 0 {
		t.Fatalf("empty quantile = %v, want 0", got)
	}
	counts := []uint64{0, 0, 0, 5} // all overflow
	if got := QuantileFromCounts(bounds, counts, 0.5); got != 3 {
		t.Fatalf("overflow quantile = %v, want last bound 3", got)
	}
}

// TestConcurrentWriters is the satellite race test: hammer every
// instrument type from many goroutines while snapshots and Prometheus
// exposition run concurrently; run under -race.
func TestConcurrentWriters(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("c", "")
	g := reg.Gauge("g", "")
	h := reg.Histogram("h", "", LinearBuckets(0.1, 0.1, 10))

	const workers = 8
	const iters = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i%10) / 10)
			}
		}()
	}
	// The reader is joined before the test returns: left running, it
	// would still be allocating inside a later test's AllocsPerRun.
	done := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-done:
				return
			default:
				reg.Snapshot()
				var buf bytes.Buffer
				_ = reg.WritePrometheus(&buf)
			}
		}
	}()
	wg.Wait()
	close(done)
	<-readerDone

	if got := c.Value(); got != workers*iters {
		t.Fatalf("counter = %d, want %d", got, workers*iters)
	}
	if got := h.Count(); got != workers*iters {
		t.Fatalf("histogram count = %d, want %d", got, workers*iters)
	}
}

func TestSnapshotDeterminismAndJSON(t *testing.T) {
	build := func() *Registry {
		reg := NewRegistry()
		reg.Counter("zeta", "last family").Add(3)
		reg.Counter("alpha", "first family", L("k", "b")).Inc()
		reg.Counter("alpha", "first family", L("k", "a")).Add(2)
		reg.Gauge("mid", "").Set(1.25)
		reg.Histogram("hist", "", []float64{1, 2}).Observe(1.5)
		return reg
	}
	s1, err1 := build().Snapshot().MarshalIndent()
	s2, err2 := build().Snapshot().MarshalIndent()
	if err1 != nil || err2 != nil {
		t.Fatalf("marshal errors: %v / %v", err1, err2)
	}
	if !bytes.Equal(s1, s2) {
		t.Fatalf("snapshot JSON not byte-stable:\n%s\n---\n%s", s1, s2)
	}
	var decoded Snapshot
	if err := json.Unmarshal(s1, &decoded); err != nil {
		t.Fatalf("round-trip unmarshal: %v", err)
	}
	if err := ValidateSnapshot(decoded, "alpha", "hist", "mid", "zeta"); err != nil {
		t.Fatalf("ValidateSnapshot: %v", err)
	}
	if err := ValidateSnapshot(decoded, "missing_family"); err == nil {
		t.Fatalf("ValidateSnapshot accepted a missing required family")
	}
	// Families sorted by name; alpha's metrics sorted by label signature.
	if decoded.Families[0].Name != "alpha" || decoded.Families[len(decoded.Families)-1].Name != "zeta" {
		t.Fatalf("families not sorted: %+v", decoded.Families)
	}
	if decoded.Families[0].Metrics[0].Labels[0].Value != "a" {
		t.Fatalf("metrics not sorted by label signature")
	}
}

func TestWritePrometheus(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("sip_messages_total", "messages", L("dir", "in"), L("kind", "INVITE")).Add(13)
	reg.Gauge("pbx_active_channels", "active").SetInt(4)
	h := reg.Histogram("pbx_call_setup_seconds", "setup", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE pbx_active_channels gauge",
		"pbx_active_channels 4\n",
		`sip_messages_total{dir="in",kind="INVITE"} 13`,
		"# TYPE pbx_call_setup_seconds histogram",
		`pbx_call_setup_seconds_bucket{le="0.1"} 1`,
		`pbx_call_setup_seconds_bucket{le="1"} 2`,
		`pbx_call_setup_seconds_bucket{le="+Inf"} 3`,
		"pbx_call_setup_seconds_sum 5.55",
		"pbx_call_setup_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestValueFuncAndFuncMetrics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("c", "", L("k", "a")).Add(2)
	reg.Counter("c", "", L("k", "b")).Add(3)
	fn := reg.ValueFunc("c")
	if fn == nil {
		t.Fatalf("ValueFunc(c) = nil")
	}
	if got := fn(); got != 5 {
		t.Fatalf("ValueFunc(c)() = %v, want 5", got)
	}
	if reg.ValueFunc("absent") != nil {
		t.Fatalf("ValueFunc for unknown family should be nil")
	}
	var pulled float64
	reg.GaugeFunc("pull", "", func() float64 { return pulled })
	pulled = 9
	if got := reg.Snapshot().Scalar("pull"); got != 9 {
		t.Fatalf("GaugeFunc scalar = %v, want 9", got)
	}
	reg.CounterFunc("pullc", "", func() float64 { return 11 })
	if got := reg.Snapshot().Scalar("pullc"); got != 11 {
		t.Fatalf("CounterFunc scalar = %v, want 11", got)
	}
}

// TestFuncReregistration pins what a second registration on the same
// label set does: a counter's readers add up (two servers publishing
// into one registry count like one shared handle), a gauge's reader is
// replaced (a level is not a sum). A ValueFunc taken before the second
// registration sees it, and a concurrent registration does not race
// the reads.
func TestFuncReregistration(t *testing.T) {
	reg := NewRegistry()
	reg.CounterFunc("sum_total", "", func() float64 { return 3 }, L("k", "a"))
	reg.GaugeFunc("level", "", func() float64 { return 3 }, L("k", "a"))
	sum, level := reg.ValueFunc("sum_total"), reg.ValueFunc("level")
	reg.CounterFunc("sum_total", "", func() float64 { return 4 }, L("k", "a"))
	reg.GaugeFunc("level", "", func() float64 { return 4 }, L("k", "a"))
	if got := sum(); got != 7 {
		t.Errorf("second CounterFunc: ValueFunc = %v, want 3+4 = 7", got)
	}
	if got := reg.Snapshot().Scalar("sum_total"); got != 7 {
		t.Errorf("second CounterFunc: snapshot = %v, want 7", got)
	}
	if got := level(); got != 4 {
		t.Errorf("second GaugeFunc: ValueFunc = %v, want the replacement's 4", got)
	}
	if f := reg.Snapshot().Family("sum_total"); len(f.Metrics) != 1 {
		t.Errorf("re-registration added a series: %d metrics, want 1", len(f.Metrics))
	}
	if allocs := testing.AllocsPerRun(100, func() { sum() }); allocs != 0 {
		t.Errorf("summed CounterFunc read: %v allocs/op, want 0", allocs)
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			reg.CounterFunc("sum_total", "", func() float64 { return 1 }, L("k", "a"))
		}
	}()
	for i := 0; i < 100; i++ {
		sum()
	}
	wg.Wait()
	if got := sum(); got != 107 {
		t.Errorf("after 100 more registrations: %v, want 107", got)
	}
}
