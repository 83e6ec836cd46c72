package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind discriminates the metric families a Registry holds.
type Kind int

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
	KindSeries
)

// String returns the Prometheus type name for the kind (series render as
// gauges).
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindHistogram:
		return "histogram"
	default:
		return "gauge"
	}
}

// Counter is a monotonically increasing integer metric.
type Counter struct{ v atomic.Int64 }

// Add adds d, which must not be negative.
func (c *Counter) Add(d int64) { c.v.Add(d) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous float value, settable from any goroutine.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds d to the gauge.
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into fixed cumulative buckets.
type Histogram struct {
	bounds  []float64 // upper bounds, ascending; +Inf is implicit
	counts  []atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	// Linear scan: bucket slices here are small (≤ ~16) and the scan is
	// branch-predictable, beating sort.SearchFloat64s at this size.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nv) {
			return
		}
	}
}

// NewHistogram returns a standalone histogram with the given cumulative
// upper bounds (+Inf is implicit), outside any registry — for components
// that need observation counts and quantiles without a collector attached
// (the profiler's window-latency histogram).
func NewHistogram(bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	h := &Histogram{bounds: bs}
	h.counts = make([]atomic.Int64, len(bs)+1)
	return h
}

// Quantile returns an interpolated estimate of the q-quantile (q clamped
// to [0, 1]) from the cumulative buckets, assuming observations are
// uniformly distributed within each bucket and non-negative (the first
// bucket interpolates from 0). It returns NaN for an empty histogram or
// one with no finite bounds; when the rank falls in the +Inf bucket it
// returns the highest finite bound, the histogram_quantile convention.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 || len(h.bounds) == 0 {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	cum := int64(0)
	for i, b := range h.bounds {
		prev := cum
		cum += h.counts[i].Load()
		if float64(cum) >= rank {
			inBucket := cum - prev
			if inBucket == 0 {
				return b
			}
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			frac := (rank - float64(prev)) / float64(inBucket)
			return lo + (b-lo)*frac
		}
	}
	return h.bounds[len(h.bounds)-1]
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Point is one sample of a Series: V observed at x-coordinate X (for the
// operator's per-window series, X is the window index).
type Point struct {
	X float64 `json:"x"`
	V float64 `json:"v"`
}

// Series is a bounded time series: appends keep the most recent cap
// points. It is the registry's first-class representation of the paper's
// per-window trajectories.
type Series struct {
	mu    sync.Mutex
	capN  int
	start int
	pts   []Point
}

// Append records one point, evicting the oldest when full.
func (s *Series) Append(x, v float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.pts) < s.capN {
		s.pts = append(s.pts, Point{x, v})
		return
	}
	s.pts[s.start] = Point{x, v}
	s.start = (s.start + 1) % s.capN
}

// Points returns the retained points, oldest first.
func (s *Series) Points() []Point {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Point, 0, len(s.pts))
	out = append(out, s.pts[s.start:]...)
	out = append(out, s.pts[:s.start]...)
	return out
}

// Last returns the most recent point; ok is false for an empty series.
func (s *Series) Last() (Point, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.pts) == 0 {
		return Point{}, false
	}
	i := s.start - 1
	if i < 0 {
		i = len(s.pts) - 1
	}
	return s.pts[i], true
}

// family is one named metric family: all children share a kind, help text
// and label names, and differ in label values.
type family struct {
	name      string
	help      string
	kind      Kind
	labels    []string
	bounds    []float64 // histograms
	seriesCap int       // series

	mu       sync.RWMutex
	children map[string]any
	order    []string            // child keys in creation order
	labelSet map[string][]string // child key -> label values
}

const labelSep = "\x1f"

func (f *family) child(labelVals []string) any {
	if len(labelVals) != len(f.labels) {
		panic(fmt.Sprintf("telemetry: metric %s wants %d label values, got %d",
			f.name, len(f.labels), len(labelVals)))
	}
	key := strings.Join(labelVals, labelSep)
	f.mu.RLock()
	c, ok := f.children[key]
	f.mu.RUnlock()
	if ok {
		return c
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[key]; ok {
		return c
	}
	switch f.kind {
	case KindCounter:
		c = &Counter{}
	case KindGauge:
		c = &Gauge{}
	case KindHistogram:
		h := &Histogram{bounds: f.bounds}
		h.counts = make([]atomic.Int64, len(f.bounds)+1)
		c = h
	case KindSeries:
		c = &Series{capN: f.seriesCap}
	}
	f.children[key] = c
	f.order = append(f.order, key)
	vals := make([]string, len(labelVals))
	copy(vals, labelVals)
	f.labelSet[key] = vals
	return c
}

// Registry holds metric families by name.
type Registry struct {
	mu    sync.Mutex
	fams  map[string]*family
	order []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// DefSeriesCap is the number of points a Series retains by default: enough
// for every window of the paper's longest experiment many times over while
// bounding memory under indefinite runs.
const DefSeriesCap = 1024

func (r *Registry) family(name, help string, kind Kind, labels []string, bounds []float64, seriesCap int) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.fams[name]; ok {
		if f.kind != kind || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("telemetry: metric %s re-registered with a different kind or label set", name))
		}
		return f
	}
	f := &family{
		name: name, help: help, kind: kind,
		labels:   append([]string(nil), labels...),
		children: make(map[string]any),
		labelSet: make(map[string][]string),
	}
	switch kind {
	case KindHistogram:
		f.bounds = append([]float64(nil), bounds...)
		sort.Float64s(f.bounds)
	case KindSeries:
		if seriesCap <= 0 {
			seriesCap = DefSeriesCap
		}
		f.seriesCap = seriesCap
	}
	r.fams[name] = f
	r.order = append(r.order, name)
	return f
}

// Counter returns the unlabeled counter named name, registering it on
// first use.
func (r *Registry) Counter(name, help string) *Counter {
	return r.family(name, help, KindCounter, nil, nil, 0).child(nil).(*Counter)
}

// Gauge returns the unlabeled gauge named name.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.family(name, help, KindGauge, nil, nil, 0).child(nil).(*Gauge)
}

// Histogram returns the unlabeled histogram named name with the given
// cumulative upper bounds (+Inf is implicit).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	return r.family(name, help, KindHistogram, nil, bounds, 0).child(nil).(*Histogram)
}

// Series returns the unlabeled series named name retaining up to capN
// points (0 means DefSeriesCap).
func (r *Registry) Series(name, help string, capN int) *Series {
	return r.family(name, help, KindSeries, nil, nil, capN).child(nil).(*Series)
}

// CounterVec is a labeled counter family.
type CounterVec struct{ f *family }

// CounterVec registers (or fetches) a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.family(name, help, KindCounter, labels, nil, 0)}
}

// With returns the child counter for the given label values.
func (v *CounterVec) With(labelVals ...string) *Counter {
	return v.f.child(labelVals).(*Counter)
}

// GaugeVec is a labeled gauge family.
type GaugeVec struct{ f *family }

// GaugeVec registers (or fetches) a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{r.family(name, help, KindGauge, labels, nil, 0)}
}

// With returns the child gauge for the given label values.
func (v *GaugeVec) With(labelVals ...string) *Gauge {
	return v.f.child(labelVals).(*Gauge)
}

// HistogramVec is a labeled histogram family.
type HistogramVec struct{ f *family }

// HistogramVec registers (or fetches) a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	return &HistogramVec{r.family(name, help, KindHistogram, labels, bounds, 0)}
}

// With returns the child histogram for the given label values.
func (v *HistogramVec) With(labelVals ...string) *Histogram {
	return v.f.child(labelVals).(*Histogram)
}

// SeriesVec is a labeled series family.
type SeriesVec struct{ f *family }

// SeriesVec registers (or fetches) a labeled series family.
func (r *Registry) SeriesVec(name, help string, capN int, labels ...string) *SeriesVec {
	return &SeriesVec{r.family(name, help, KindSeries, labels, nil, capN)}
}

// With returns the child series for the given label values.
func (v *SeriesVec) With(labelVals ...string) *Series {
	return v.f.child(labelVals).(*Series)
}
