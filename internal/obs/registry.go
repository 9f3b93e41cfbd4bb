// Package obs is the virtualizer's observability spine: a dependency-free
// metrics registry (atomic counters, gauges and fixed-bucket histograms with
// conformant Prometheus text exposition) plus a per-job span tracer whose
// timelines export as JSON and as Chrome trace_event files.
//
// The package deliberately depends on the standard library only, so every
// layer of the system — credit pool, converter, file writer, cloud store,
// CDW network client, benchmark harness, daemons — can publish into one
// registry without import cycles or third-party baggage.
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
	"time"
)

// Counter is a monotonically increasing metric.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n. Negative deltas are ignored: counters only go up.
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a metric that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adjusts the gauge by n (may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket latency/size histogram. Buckets are cumulative
// upper bounds, exposed Prometheus-style as name_bucket{le="..."} series plus
// name_sum and name_count. Observations made through ObserveEx additionally
// remember the most recent exemplar per bucket — a (value, trace ID) pair
// linking the bucket to one concrete distributed trace that landed in it.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last is +Inf
	sum    atomic.Uint64  // float64 bits
	count  atomic.Int64

	exMu sync.Mutex
	exs  []Exemplar // lazily sized to len(bounds)+1 on first ObserveEx
}

// Exemplar links one histogram bucket to a concrete traced observation.
type Exemplar struct {
	Value   float64
	TraceID uint64
	Time    time.Time
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// ObserveEx records one value and, when traceID is non-zero, remembers it as
// the containing bucket's exemplar.
func (h *Histogram) ObserveEx(v float64, traceID uint64) {
	h.Observe(v)
	if traceID == 0 {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.exMu.Lock()
	if h.exs == nil {
		h.exs = make([]Exemplar, len(h.bounds)+1)
	}
	h.exs[i] = Exemplar{Value: v, TraceID: traceID, Time: time.Now()}
	h.exMu.Unlock()
}

// Exemplars copies the per-bucket exemplars (len(Bounds)+1 entries; zero
// TraceID means the bucket has none). Returns nil when no exemplar was ever
// recorded.
func (h *Histogram) Exemplars() []Exemplar {
	h.exMu.Lock()
	defer h.exMu.Unlock()
	if h.exs == nil {
		return nil
	}
	out := make([]Exemplar, len(h.exs))
	copy(out, h.exs)
	return out
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// DurationBuckets is the default bucket layout for stage latencies: 10µs to
// 30s on a roughly logarithmic grid. Values are seconds.
var DurationBuckets = []float64{
	0.00001, 0.00005, 0.0001, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30,
}

// DepthBuckets suits small integer distributions such as adaptive-split
// depth or retry counts.
var DepthBuckets = []float64{0, 1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64}

// CountBuckets suits item counts such as files per COPY manifest or records
// per micro-batch: powers of two from 1 to 65536.
var CountBuckets = []float64{
	1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024,
	2048, 4096, 8192, 16384, 32768, 65536,
}

// LabeledValue is one series of a labeled gauge family: the label value and
// the gauge reading.
type LabeledValue struct {
	Label string
	Value float64
}

// metric is one registered series with its exposition metadata.
type metric struct {
	name string
	help string
	typ  string // "counter" | "gauge" | "histogram"

	counter     *Counter
	gauge       *Gauge
	counterFunc func() int64
	gaugeFunc   func() float64
	hist        *Histogram

	labelKey    string
	labeledFunc func() []LabeledValue
}

// Registry holds named metrics and renders them in Prometheus text format.
// Registration is not idempotent: registering a name twice panics, catching
// wiring mistakes early.
type Registry struct {
	mu      sync.RWMutex
	metrics []*metric
	byName  map[string]*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*metric)}
}

func (r *Registry) register(m *metric) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[m.name]; dup {
		panic("obs: duplicate metric " + m.name)
	}
	r.byName[m.name] = m
	r.metrics = append(r.metrics, m)
}

// Counter registers and returns a counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.register(&metric{name: name, help: help, typ: "counter", counter: c})
	return c
}

// CounterFunc registers a counter whose value is read from fn at exposition
// time (for counters already maintained elsewhere).
func (r *Registry) CounterFunc(name, help string, fn func() int64) {
	r.register(&metric{name: name, help: help, typ: "counter", counterFunc: fn})
}

// Gauge registers and returns a gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{}
	r.register(&metric{name: name, help: help, typ: "gauge", gauge: g})
	return g
}

// GaugeFunc registers a gauge whose value is read from fn at exposition time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(&metric{name: name, help: help, typ: "gauge", gaugeFunc: fn})
}

// LabeledGaugeFunc registers a gauge family keyed by one label (e.g. the
// stream name): fn is read at exposition time and each entry renders as
// name{labelKey="label"} value, sorted by label so the exposition stays
// byte-stable.
func (r *Registry) LabeledGaugeFunc(name, help, labelKey string, fn func() []LabeledValue) {
	r.register(&metric{name: name, help: help, typ: "gauge", labelKey: labelKey, labeledFunc: fn})
}

// Histogram registers and returns a histogram with the given cumulative
// upper bounds (ascending; +Inf is implicit). Nil buckets default to
// DurationBuckets.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if buckets == nil {
		buckets = DurationBuckets
	}
	bounds := make([]float64, len(buckets))
	copy(bounds, buckets)
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram buckets must be ascending: " + name)
		}
	}
	h := &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
	r.register(&metric{name: name, help: help, typ: "histogram", hist: h})
	return h
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders every registered series in Prometheus text
// exposition format: each series carries # HELP and # TYPE lines, histograms
// expand to _bucket/_sum/_count. Series are emitted sorted by name, so the
// exposition is byte-stable regardless of registration order — scrape
// diffing and the exposition regression tests rely on it.
func (r *Registry) WritePrometheus(w io.Writer) error {
	return r.writeProm(w, false)
}

// WritePrometheusExemplars renders the same exposition with OpenMetrics-style
// exemplar annotations on histogram buckets that have one:
//
//	name_bucket{le="0.1"} 7 # {trace_id="00ab..."} 0.04 1700000000.000
//
// Classic Prometheus text parsers reject mid-line '#', which is why the
// default exposition leaves exemplars out and this variant is opt-in
// (GET /metrics?exemplars=1).
func (r *Registry) WritePrometheusExemplars(w io.Writer) error {
	return r.writeProm(w, true)
}

func (r *Registry) writeProm(w io.Writer, exemplars bool) error {
	r.mu.RLock()
	metrics := make([]*metric, len(r.metrics))
	copy(metrics, r.metrics)
	r.mu.RUnlock()
	sort.Slice(metrics, func(i, j int) bool { return metrics[i].name < metrics[j].name })

	var sb strings.Builder
	for _, m := range metrics {
		fmt.Fprintf(&sb, "# HELP %s %s\n", m.name, m.help)
		fmt.Fprintf(&sb, "# TYPE %s %s\n", m.name, m.typ)
		switch {
		case m.counter != nil:
			fmt.Fprintf(&sb, "%s %d\n", m.name, m.counter.Value())
		case m.counterFunc != nil:
			fmt.Fprintf(&sb, "%s %d\n", m.name, m.counterFunc())
		case m.gauge != nil:
			fmt.Fprintf(&sb, "%s %d\n", m.name, m.gauge.Value())
		case m.gaugeFunc != nil:
			fmt.Fprintf(&sb, "%s %s\n", m.name, formatFloat(m.gaugeFunc()))
		case m.labeledFunc != nil:
			vals := m.labeledFunc()
			sort.Slice(vals, func(i, j int) bool { return vals[i].Label < vals[j].Label })
			for _, lv := range vals {
				fmt.Fprintf(&sb, "%s{%s=%q} %s\n", m.name, m.labelKey, lv.Label, formatFloat(lv.Value))
			}
		case m.hist != nil:
			h := m.hist
			var exs []Exemplar
			if exemplars {
				exs = h.Exemplars()
			}
			cum := int64(0)
			for i, b := range h.bounds {
				cum += h.counts[i].Load()
				fmt.Fprintf(&sb, "%s_bucket{le=\"%s\"} %d", m.name, formatFloat(b), cum)
				writeExemplar(&sb, exs, i)
				sb.WriteByte('\n')
			}
			cum += h.counts[len(h.bounds)].Load()
			fmt.Fprintf(&sb, "%s_bucket{le=\"+Inf\"} %d", m.name, cum)
			writeExemplar(&sb, exs, len(h.bounds))
			sb.WriteByte('\n')
			fmt.Fprintf(&sb, "%s_sum %s\n", m.name, formatFloat(h.Sum()))
			fmt.Fprintf(&sb, "%s_count %d\n", m.name, cum)
		}
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

func writeExemplar(sb *strings.Builder, exs []Exemplar, i int) {
	if i >= len(exs) || exs[i].TraceID == 0 {
		return
	}
	fmt.Fprintf(sb, " # {trace_id=%q} %s %.3f",
		FormatTraceID(exs[i].TraceID), formatFloat(exs[i].Value),
		float64(exs[i].Time.UnixNano())/1e9)
}

// HistSnapshot is a point-in-time copy of one histogram, suitable for
// summary statistics in benchmark reports.
type HistSnapshot struct {
	Name   string
	Bounds []float64 // upper bounds, +Inf implicit
	Counts []int64   // per-bucket (non-cumulative), len(Bounds)+1
	Sum    float64
	Count  int64
}

// Mean returns the average observed value.
func (s HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// Quantile estimates the q-quantile (0..1) by linear interpolation within
// the containing bucket. Values beyond the last finite bound clamp to it.
func (s HistSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	cum := float64(0)
	for i, b := range s.Bounds {
		prev := cum
		cum += float64(s.Counts[i])
		if cum >= rank && s.Counts[i] > 0 {
			lo := float64(0)
			if i > 0 {
				lo = s.Bounds[i-1]
			}
			frac := (rank - prev) / float64(s.Counts[i])
			return lo + (b-lo)*frac
		}
	}
	return s.Bounds[len(s.Bounds)-1]
}

// Histograms snapshots every registered histogram in registration order.
func (r *Registry) Histograms() []HistSnapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []HistSnapshot
	for _, m := range r.metrics {
		if m.hist == nil {
			continue
		}
		h := m.hist
		snap := HistSnapshot{
			Name:   m.name,
			Bounds: h.bounds,
			Counts: make([]int64, len(h.counts)),
			Sum:    h.Sum(),
			Count:  h.Count(),
		}
		for i := range h.counts {
			snap.Counts[i] = h.counts[i].Load()
		}
		out = append(out, snap)
	}
	return out
}
