package engine_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"streamop/internal/engine"
	"streamop/internal/telemetry"
	"streamop/internal/trace"
)

const engSSQuery = `
SELECT tb, uts, srcIP, UMAX(sum(len), ssthreshold()) AS adjlen
FROM PKT
WHERE ssample(len, 100, 2, 10) = TRUE
GROUP BY time/1 as tb, srcIP, uts
HAVING ssfinal_clean(sum(len), count_distinct$(*)) = TRUE
CLEANING WHEN ssdo_clean(count_distinct$(*)) = TRUE
CLEANING BY ssclean_with(sum(len)) = TRUE`

func TestEngineTelemetryRun(t *testing.T) {
	c := telemetry.New()
	e, _ := engine.New(4096)
	e.SetCollector(c)
	low, err := e.AddLowLevel("sampler", mustPlan(t, engSSQuery, trace.Schema()))
	if err != nil {
		t.Fatal(err)
	}
	high, err := e.AddHighLevel("counter", low,
		mustPlan(t, "SELECT tb, count(*) FROM sampler GROUP BY tb as tb", low.Schema()))
	if err != nil {
		t.Fatal(err)
	}
	feed, _ := trace.NewSteady(trace.SteadyConfig{Seed: 2, Duration: 4, Rate: 20000})
	if err := e.Run(feed); err != nil {
		t.Fatal(err)
	}

	snap := c.Snapshot()
	for _, n := range []*engine.Node{low, high} {
		st := n.Stats()
		if got, ok := snap.Value("streamop_node_tuples_in", st.Name); !ok || int64(got) != st.TuplesIn {
			t.Errorf("node %s tuples_in gauge = %v (ok=%v), stats %d", st.Name, got, ok, st.TuplesIn)
		}
		if got, ok := snap.Value("streamop_node_tuples_out", st.Name); !ok || int64(got) != st.TuplesOut {
			t.Errorf("node %s tuples_out gauge = %v (ok=%v), stats %d", st.Name, got, ok, st.TuplesOut)
		}
		if got, ok := snap.Value("streamop_operator_tuples_in_total", st.Name); !ok || int64(got) != st.Operator.TuplesIn {
			t.Errorf("node %s operator tuples_in counter = %v (ok=%v), stats %d", st.Name, got, ok, st.Operator.TuplesIn)
		}
	}
	if _, ok := snap.Value("streamop_ring_drops", "source"); !ok {
		t.Error("missing source ring drops gauge")
	}
	if peak, ok := snap.Value("streamop_ring_peak_occupancy", "source"); !ok || peak <= 0 {
		t.Errorf("ring peak = %v (ok=%v), want > 0", peak, ok)
	}
	if e.RingPeak() <= 0 {
		t.Errorf("RingPeak = %d, want > 0", e.RingPeak())
	}

	// Both node operators contribute per-window series under their node
	// names, and the exposition carries them.
	var b bytes.Buffer
	if err := c.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`streamop_window_sample_size{node="sampler",window="0"}`,
		`streamop_window_sample_size{node="counter",window="0"}`,
		`streamop_sfun_gauge{node="sampler",state="subsetsum_sampling_state",gauge="threshold",window="0"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q", want)
		}
	}
}

func TestEngineTelemetryRunParallel(t *testing.T) {
	c := telemetry.New()
	e, _ := engine.New(1024)
	e.SetCollector(c)
	low, err := e.AddLowLevel("sampler", mustPlan(t, engSSQuery, trace.Schema()))
	if err != nil {
		t.Fatal(err)
	}
	feed, _ := trace.NewSteady(trace.SteadyConfig{Seed: 2, Duration: 2, Rate: 20000})
	if err := e.RunParallel(feed, 0); err != nil {
		t.Fatal(err)
	}
	snap := c.Snapshot()
	st := low.Stats()
	if got, ok := snap.Value("streamop_node_tuples_in", "sampler"); !ok || int64(got) != st.TuplesIn {
		t.Errorf("tuples_in gauge = %v (ok=%v), stats %d", got, ok, st.TuplesIn)
	}
	// Unpaced runs apply backpressure: the per-node ring must not drop.
	if got, ok := snap.Value("streamop_ring_drops", "sampler"); !ok || got != 0 {
		t.Errorf("ring drops gauge = %v (ok=%v), want 0", got, ok)
	}
}

// TestNodeStatsSerialParallelConsistent verifies the satellite requirement
// that Node.Stats counters agree between Run and RunParallel over the same
// query tree and feed (unpaced, so nothing drops). Run under -race in CI.
func TestNodeStatsSerialParallelConsistent(t *testing.T) {
	build := func() (*engine.Engine, *engine.Node, *engine.Node) {
		e, _ := engine.New(1024)
		low, err := e.AddLowLevel("sampler", mustPlan(t, engSSQuery, trace.Schema()))
		if err != nil {
			t.Fatal(err)
		}
		high, err := e.AddHighLevel("counter", low,
			mustPlan(t, "SELECT tb, count(*) FROM sampler GROUP BY tb as tb", low.Schema()))
		if err != nil {
			t.Fatal(err)
		}
		return e, low, high
	}
	feedCfg := trace.SteadyConfig{Seed: 5, Duration: 3, Rate: 30000}

	serial, sLow, sHigh := build()
	feed, _ := trace.NewSteady(feedCfg)
	if err := serial.Run(feed); err != nil {
		t.Fatal(err)
	}
	parallel, pLow, pHigh := build()
	feed, _ = trace.NewSteady(feedCfg)
	if err := parallel.RunParallel(feed, 0); err != nil {
		t.Fatal(err)
	}

	if parallel.Drops() != 0 {
		t.Fatalf("parallel run dropped %d packets", parallel.Drops())
	}
	for _, pair := range [][2]*engine.Node{{sLow, pLow}, {sHigh, pHigh}} {
		s, p := pair[0].Stats(), pair[1].Stats()
		if s.TuplesIn != p.TuplesIn || s.TuplesOut != p.TuplesOut {
			t.Errorf("node %s: serial in/out = %d/%d, parallel = %d/%d",
				s.Name, s.TuplesIn, s.TuplesOut, p.TuplesIn, p.TuplesOut)
		}
		if s.Operator != p.Operator {
			t.Errorf("node %s: operator stats diverge\nserial:   %+v\nparallel: %+v",
				s.Name, s.Operator, p.Operator)
		}
	}
	if sLow.Stats().TuplesIn == 0 || sHigh.Stats().TuplesIn == 0 {
		t.Error("consistency test processed no tuples")
	}
}

// TestPartialNodeGaugesLive: a partial-aggregation node's
// streamop_node_* gauges move while the serial loop runs, under Run and in
// a session, as an operator node's do (they read 0 until the final sync),
// and a sharded RunParallel publishes every per-shard view it documents.
func TestPartialNodeGaugesLive(t *testing.T) {
	const groupBy = "SELECT tb, srcIP, sum(len) FROM PKT GROUP BY time/1 as tb, srcIP"
	build := func() (*engine.Engine, *telemetry.Collector, *engine.PartialNode) {
		c := telemetry.New()
		e, _ := engine.New(4096)
		e.SetCollector(c)
		pn, err := e.AddLowLevelPartialAgg("p", mustPlan(t, groupBy, trace.Schema()), 256)
		if err != nil {
			t.Fatal(err)
		}
		return e, c, pn
	}
	cfg := trace.SteadyConfig{Seed: 3, Duration: 4, Rate: 20000}
	modes := map[string]func(e *engine.Engine, feed trace.Feed) error{
		"run": func(e *engine.Engine, feed trace.Feed) error { return e.Run(feed) },
		"session": func(e *engine.Engine, feed trace.Feed) error {
			if err := e.Start(context.Background(), feed); err != nil {
				return err
			}
			return e.Wait()
		},
	}
	for name, run := range modes {
		t.Run(name, func(t *testing.T) {
			e, c, pn := build()
			inner, _ := trace.NewSteady(cfg)
			scraped := false
			// Scraped from the feed, on the goroutine that runs the serial
			// loop, so what it reads of the node is settled.
			feed := &cancelAt{inner: inner, at: 60000, cancel: func() {
				scraped = true
				snap, st := c.Snapshot(), pn.Stats()
				for gauge, want := range map[string]float64{
					"streamop_node_tuples_in":    float64(st.TuplesIn),
					"streamop_node_tuples_out":   float64(st.TuplesOut),
					"streamop_node_busy_seconds": st.Busy.Seconds(),
				} {
					// The serial loop pops 512 packets at a time.
					if got, ok := snap.Value(gauge, "p"); !ok || got <= 0 || got > want || want-got > 512 {
						t.Errorf("%s mid-run = %v (ok=%v), Stats() says %v", gauge, got, ok, want)
					}
				}
			}}
			if err := run(e, feed); err != nil {
				t.Fatal(err)
			}
			if !scraped {
				t.Fatal("feed ended before the scrape point")
			}
		})
	}

	t.Run("shards", func(t *testing.T) {
		e, c, pn := build()
		pn.SetShards(2)
		feed, _ := trace.NewSteady(cfg)
		if err := e.RunParallel(feed, 0); err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(c.Handler())
		defer srv.Close()
		resp, err := http.Get(srv.URL + "/debug/state")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var state struct {
			Engine struct {
				Nodes []struct {
					Name   string
					Shards []map[string]float64
				}
			}
		}
		if err := json.NewDecoder(resp.Body).Decode(&state); err != nil {
			t.Fatal(err)
		}
		if len(state.Engine.Nodes) != 1 || len(state.Engine.Nodes[0].Shards) != 2 {
			t.Fatalf("/debug/state nodes = %+v, want node p with 2 shards", state.Engine.Nodes)
		}
		var in, out float64
		for i, sh := range state.Engine.Nodes[0].Shards {
			for _, field := range []string{"id", "ring_cap", "ring_len", "ring_drops", "folded", "tuples_in", "tuples_out", "evictions", "residents", "busy_ns"} {
				if _, ok := sh[field]; !ok {
					t.Errorf("shard %d: /debug/state has no %q", i, field)
				}
			}
			if sh["id"] != float64(i) || sh["folded"] != sh["tuples_in"] || sh["busy_ns"] <= 0 || sh["evictions"] <= 0 {
				t.Errorf("shard %d: implausible /debug/state entry %v", i, sh)
			}
			in, out = in+sh["tuples_in"], out+sh["tuples_out"]
		}
		if st := pn.Stats(); int64(in) != e.Packets() || int64(in) != st.TuplesIn || int64(out) != st.TuplesOut {
			t.Errorf("shards sum to %v in, %v out; %d packets, Stats() %d in, %d out", in, out, e.Packets(), st.TuplesIn, st.TuplesOut)
		}
		snap := c.Snapshot()
		for _, shard := range []string{"0", "1"} {
			for _, family := range []string{"tuples_in", "busy_seconds", "evictions", "ring_occupancy", "ring_drops"} {
				if _, ok := snap.Value("streamop_shard_"+family, "p", shard); !ok {
					t.Errorf("streamop_shard_%s{node=p,shard=%s} missing", family, shard)
				}
			}
		}
	})
}
