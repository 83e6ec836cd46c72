package telemetry_test

import (
	"io"
	"testing"

	"streamop/internal/telemetry"
)

// The primitives must stay cheap enough to sit at window and batch
// boundaries of a 100k pps pipeline: single atomic ops for counters and
// gauges, a short linear scan for histograms, one mutex-protected append
// for series. The root bench_test.go guard measures the end-to-end budget
// (<5% on the full operator); these isolate the per-call costs.

func BenchmarkCounterInc(b *testing.B) {
	c := telemetry.NewRegistry().Counter("bench_counter", "")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

func BenchmarkGaugeSet(b *testing.B) {
	g := telemetry.NewRegistry().Gauge("bench_gauge", "")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Set(float64(i))
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := telemetry.NewRegistry().Histogram("bench_hist", "",
		[]float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(1e-4)
	}
}

func BenchmarkSeriesAppend(b *testing.B) {
	s := telemetry.NewRegistry().Series("bench_series", "", 1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Append(float64(i), float64(i))
	}
}

// BenchmarkVecWith measures the labeled-child lookup that instrumentation
// avoids on hot paths by caching handles at SetCollector time.
func BenchmarkVecWith(b *testing.B) {
	v := telemetry.NewRegistry().CounterVec("bench_vec", "", "node")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v.With("q1").Add(1)
	}
}

func BenchmarkEventEmit(b *testing.B) {
	c := telemetry.NewWithEvents(io.Discard)
	fields := map[string]any{"node": "q1", "window": 3, "sample_size": 1000}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Emit("window_flush", fields)
	}
}

// BenchmarkNilCollector measures the disabled path: every call must reduce
// to a nil check.
func BenchmarkNilCollector(b *testing.B) {
	var c *telemetry.Collector
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if c.Enabled() {
			b.Fatal("nil collector enabled")
		}
		c.Emit("event", nil)
	}
}

func BenchmarkWritePrometheus(b *testing.B) {
	c := telemetry.New()
	r := c.Registry()
	for i := 0; i < 8; i++ {
		node := string(rune('a' + i))
		r.CounterVec("bench_tuples_total", "", "node").With(node).Add(int64(i))
		s := r.SeriesVec("bench_window_series", "", 0, "node").With(node)
		for w := 0; w < 100; w++ {
			s.Append(float64(w), float64(w*i))
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := c.WritePrometheus(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
