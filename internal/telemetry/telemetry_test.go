package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "a counter")
	c.Add(1)
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}
	g := r.Gauge("g", "a gauge")
	g.Set(2.5)
	g.Add(-1)
	if g.Value() != 1.5 {
		t.Errorf("gauge = %v, want 1.5", g.Value())
	}
	// Same name returns the same metric.
	if r.Counter("c_total", "a counter") != c {
		t.Error("Counter did not return the registered instance")
	}
}

func TestHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "hist", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 5, 5, 50, 500} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Errorf("count = %d, want 5", h.Count())
	}
	if h.Sum() != 560.5 {
		t.Errorf("sum = %v, want 560.5", h.Sum())
	}
	snap := r.Snapshot()
	m, ok := snap.Get("h")
	if !ok || len(m.Values) != 1 {
		t.Fatalf("snapshot missing h: %+v", snap)
	}
	want := []int64{1, 3, 4} // cumulative at le=1, 10, 100
	for i, b := range m.Values[0].Buckets {
		if b.Count != want[i] {
			t.Errorf("bucket le=%v count = %d, want %d", b.UpperBound, b.Count, want[i])
		}
	}
}

func TestSeriesEviction(t *testing.T) {
	r := NewRegistry()
	s := r.Series("s", "series", 3)
	for i := 0; i < 5; i++ {
		s.Append(float64(i), float64(i*10))
	}
	pts := s.Points()
	if len(pts) != 3 || pts[0].X != 2 || pts[2].X != 4 {
		t.Errorf("points = %+v, want x=2..4", pts)
	}
	last, ok := s.Last()
	if !ok || last.V != 40 {
		t.Errorf("last = %+v ok=%v, want v=40", last, ok)
	}
}

func TestVecChildrenAreDistinct(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("per_node_total", "per node", "node")
	v.With("a").Add(2)
	v.With("b").Add(3)
	snap := r.Snapshot()
	if got, ok := snap.Value("per_node_total", "a"); !ok || got != 2 {
		t.Errorf("a = %v ok=%v, want 2", got, ok)
	}
	if got, ok := snap.Value("per_node_total", "b"); !ok || got != 3 {
		t.Errorf("b = %v ok=%v, want 3", got, ok)
	}
}

func TestPrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("tuples_total", "tuples", "node").With("q1").Add(7)
	r.Histogram("dur_seconds", "durations", []float64{0.1, 1}).Observe(0.5)
	sv := r.SeriesVec("win_sample", "per-window sample size", 8, "node")
	sv.With("q1").Append(0, 100)
	sv.With("q1").Append(1, 90)
	r.GaugeVec("esc", "escaping", "k").With("a\"b\\c\nd").Set(1)

	var b bytes.Buffer
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE tuples_total counter",
		`tuples_total{node="q1"} 7`,
		"# TYPE dur_seconds histogram",
		`dur_seconds_bucket{le="1"} 1`,
		`dur_seconds_bucket{le="+Inf"} 1`,
		"dur_seconds_sum 0.5",
		"dur_seconds_count 1",
		"# TYPE win_sample gauge",
		`win_sample{node="q1",window="0"} 100`,
		`win_sample{node="q1",window="1"} 90`,
		`esc{k="a\"b\\c\nd"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q\n%s", want, out)
		}
	}
}

func TestEventLogJSONL(t *testing.T) {
	var b bytes.Buffer
	l := NewEventLog(&b)
	l.now = func() time.Time { return time.Unix(100, 0).UTC() }
	l.Emit("window_flush", map[string]any{"node": "q", "sample_size": 42})
	l.Emit("cleaning", nil)
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	var ev map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &ev); err != nil {
		t.Fatalf("line 0 not JSON: %v", err)
	}
	if ev["event"] != "window_flush" || ev["node"] != "q" || ev["sample_size"] != float64(42) || ev["seq"] != float64(1) {
		t.Errorf("event = %v", ev)
	}
	if err := json.Unmarshal([]byte(lines[1]), &ev); err != nil || ev["event"] != "cleaning" {
		t.Errorf("line 1 = %v err=%v", ev, err)
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, fmt.Errorf("disk full") }

func TestEventLogDropsOnError(t *testing.T) {
	l := NewEventLog(failWriter{})
	l.Emit("x", nil)
	if l.Dropped() != 1 {
		t.Errorf("dropped = %d, want 1", l.Dropped())
	}
}

func TestNilCollectorIsSafe(t *testing.T) {
	var c *Collector
	if c.Enabled() || c.EventsEnabled() {
		t.Error("nil collector claims to be enabled")
	}
	c.Emit("x", map[string]any{"a": 1})
	if n := len(c.Snapshot().Metrics); n != 0 {
		t.Errorf("nil snapshot has %d metrics", n)
	}
	if err := c.WritePrometheus(io.Discard); err != nil {
		t.Errorf("WritePrometheus: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	if c.Registry() != nil {
		t.Error("nil collector has a registry")
	}
}

func TestServeMetrics(t *testing.T) {
	c := New()
	c.Registry().Counter("up_total", "up").Add(1)
	srv, addr, err := c.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + addr.String() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "up_total 1") {
		t.Errorf("body = %s", body)
	}
	resp, err = http.Get("http://" + addr.String() + "/metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("snapshot JSON: %v", err)
	}
	resp.Body.Close()
	if _, ok := snap.Get("up_total"); !ok {
		t.Errorf("snapshot missing up_total: %+v", snap)
	}
}

func TestConcurrentMetricAccess(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.CounterVec("ct_total", "", "w").With(fmt.Sprint(i % 2)).Add(1)
				r.Gauge("gg", "").Add(1)
				r.Histogram("hh", "", []float64{10, 100}).Observe(float64(j))
				r.Series("ss", "", 16).Append(float64(j), 1)
			}
		}(i)
	}
	wg.Wait()
	snap := r.Snapshot()
	a, _ := snap.Value("ct_total", "0")
	b, _ := snap.Value("ct_total", "1")
	if a+b != 8000 {
		t.Errorf("counters sum = %v, want 8000", a+b)
	}
	if g, _ := snap.Value("gg"); g != 8000 {
		t.Errorf("gauge = %v, want 8000", g)
	}
	if h, _ := snap.Value("hh"); h != 8000 {
		t.Errorf("histogram count = %v, want 8000", h)
	}
}
