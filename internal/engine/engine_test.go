package engine_test

import (
	"math"
	"testing"

	"streamop/internal/engine"
	"streamop/internal/gsql"
	"streamop/internal/sfunlib"
	"streamop/internal/trace"
	"streamop/internal/tuple"
)

func mustPlan(t testing.TB, src string, schema *tuple.Schema) *gsql.Plan {
	t.Helper()
	q, err := gsql.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	p, err := gsql.Analyze(q, schema, sfunlib.Default(1))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestEngineValidation(t *testing.T) {
	if _, err := engine.New(0); err == nil {
		t.Error("ring size 0 accepted")
	}
	e, _ := engine.New(1024)
	if err := e.Run(nil); err == nil {
		t.Error("Run without nodes accepted")
	}
	plan := mustPlan(t, "SELECT uts, len FROM PKT", trace.Schema())
	if _, err := e.AddLowLevel("", plan); err == nil {
		t.Error("empty node name accepted")
	}
	if _, err := e.AddLowLevel("sel", plan); err != nil {
		t.Fatal(err)
	}
	if _, err := e.AddLowLevel("sel", plan); err == nil {
		t.Error("duplicate node name accepted")
	}
	if _, err := e.AddHighLevel("h", nil, plan); err == nil {
		t.Error("nil parent accepted")
	}
}

func TestSingleLowLevelSelection(t *testing.T) {
	e, _ := engine.New(4096)
	plan := mustPlan(t, "SELECT uts, len FROM PKT WHERE len >= 1500", trace.Schema())
	n, err := e.AddLowLevel("bigonly", plan)
	if err != nil {
		t.Fatal(err)
	}
	var got int64
	n.Subscribe(func(row tuple.Tuple) error {
		if row[1].AsInt() < 1500 {
			t.Errorf("selection leaked len %v", row[1])
		}
		got++
		return nil
	})
	feed, _ := trace.NewSteady(trace.SteadyConfig{Seed: 1, Duration: 0.5, Rate: 20000})
	if err := e.Run(feed); err != nil {
		t.Fatal(err)
	}
	st := n.Stats()
	if st.TuplesOut != got || got == 0 {
		t.Errorf("out = %d, app saw %d", st.TuplesOut, got)
	}
	// ~40% of packets are 1500 bytes.
	frac := float64(got) / float64(e.Packets())
	if math.Abs(frac-0.4) > 0.05 {
		t.Errorf("pass fraction = %v", frac)
	}
	if e.Drops() != 0 {
		t.Errorf("drops = %d", e.Drops())
	}
	if e.StreamDuration() <= 0 {
		t.Error("no stream duration")
	}
	if st.Busy <= 0 {
		t.Error("no busy time recorded")
	}
	if u := e.Utilization(n); u <= 0 {
		t.Errorf("utilization = %v", u)
	}
}

func TestTwoLevelPipeline(t *testing.T) {
	// Low level: pass-through selection. High level: per-window packet
	// count. The high-level count must equal the packet count.
	e, _ := engine.New(4096)
	low := mustPlan(t, "SELECT time, srcIP, len, uts FROM PKT", trace.Schema())
	lowNode, err := e.AddLowLevel("passthrough", low)
	if err != nil {
		t.Fatal(err)
	}
	high := mustPlan(t, "SELECT tb, count(*), sum(len) FROM passthrough GROUP BY time/1 as tb", lowNode.Schema())
	highNode, err := e.AddHighLevel("counts", lowNode, high)
	if err != nil {
		t.Fatal(err)
	}
	var totalCount, totalLen int64
	highNode.Subscribe(func(row tuple.Tuple) error {
		totalCount += row[1].AsInt()
		totalLen += row[2].AsInt()
		return nil
	})
	feed, _ := trace.NewSteady(trace.SteadyConfig{Seed: 2, Duration: 2, Rate: 5000})
	if err := e.Run(feed); err != nil {
		t.Fatal(err)
	}
	if totalCount != e.Packets() {
		t.Errorf("high-level counted %d of %d packets", totalCount, e.Packets())
	}
	if totalLen <= 0 {
		t.Error("no bytes counted")
	}
	if highNode.Stats().TuplesIn != lowNode.Stats().TuplesOut {
		t.Error("tuple accounting mismatch between levels")
	}
}

func TestLowLevelPushdownReducesHighLevelWork(t *testing.T) {
	// Figure 6's mechanism: a basic-SS low-level query forwards far fewer
	// tuples than a pass-through selection, cutting high-level input.
	run := func(lowSrc string) (lowOut int64) {
		e, _ := engine.New(4096)
		low := mustPlan(t, lowSrc, trace.Schema())
		n, err := e.AddLowLevel("low", low)
		if err != nil {
			t.Fatal(err)
		}
		feed, _ := trace.NewSteady(trace.SteadyConfig{Seed: 3, Duration: 1, Rate: 20000})
		if err := e.Run(feed); err != nil {
			t.Fatal(err)
		}
		return n.Stats().TuplesOut
	}
	all := run("SELECT time, srcIP, len, uts FROM PKT")
	sampled := run("SELECT time, srcIP, len, uts FROM PKT WHERE bssample(len, 50000) = TRUE")
	if sampled*20 > all {
		t.Errorf("pushdown forwarded %d of %d tuples; expected heavy reduction", sampled, all)
	}
	if sampled == 0 {
		t.Error("pushdown forwarded nothing")
	}
}

func TestHighLevelSamplingOverLowSelection(t *testing.T) {
	// Full paper topology: selection low level feeding the dynamic
	// subset-sum sampling operator at the high level.
	e, _ := engine.New(4096)
	low := mustPlan(t, "SELECT time, srcIP, destIP, len, uts FROM PKT", trace.Schema())
	lowNode, err := e.AddLowLevel("sel", low)
	if err != nil {
		t.Fatal(err)
	}
	high := mustPlan(t, `
SELECT uts, srcIP, UMAX(sum(len), ssthreshold()) AS adjlen
FROM sel
WHERE ssample(len, 100, 2, 10) = TRUE
GROUP BY time/5 as tb, srcIP, uts
HAVING ssfinal_clean(sum(len), count_distinct$(*)) = TRUE
CLEANING WHEN ssdo_clean(count_distinct$(*)) = TRUE
CLEANING BY ssclean_with(sum(len)) = TRUE`, lowNode.Schema())
	highNode, err := e.AddHighLevel("sample", lowNode, high)
	if err != nil {
		t.Fatal(err)
	}
	var est float64
	var rows int
	highNode.Subscribe(func(row tuple.Tuple) error {
		est += row[2].AsFloat()
		rows++
		return nil
	})
	var actual float64
	counting := mustPlan(t, "SELECT uts, len FROM PKT", trace.Schema())
	e2, _ := engine.New(4096)
	cn, _ := e2.AddLowLevel("count", counting)
	cn.Subscribe(func(row tuple.Tuple) error {
		actual += row[1].AsFloat()
		return nil
	})
	feed, _ := trace.NewSteady(trace.SteadyConfig{Seed: 4, Duration: 4.9, Rate: 20000})
	if err := e.Run(feed); err != nil {
		t.Fatal(err)
	}
	feed2, _ := trace.NewSteady(trace.SteadyConfig{Seed: 4, Duration: 4.9, Rate: 20000})
	if err := e2.Run(feed2); err != nil {
		t.Fatal(err)
	}
	if rows == 0 || rows > 100 {
		t.Fatalf("sample rows = %d", rows)
	}
	if rel := math.Abs(est-actual) / actual; rel > 0.15 {
		t.Errorf("estimate %v vs actual %v (rel err %v)", est, actual, rel)
	}
}

func TestCascadedHighLevels(t *testing.T) {
	// low -> high1 (per-second sums) -> high2 (per-2-second totals).
	e, _ := engine.New(4096)
	low := mustPlan(t, "SELECT time, len, uts FROM PKT", trace.Schema())
	lowNode, _ := e.AddLowLevel("l", low)
	h1 := mustPlan(t, "SELECT tb, sum(len) AS bytes FROM l GROUP BY time/1 as tb", lowNode.Schema())
	n1, err := e.AddHighLevel("persec", lowNode, h1)
	if err != nil {
		t.Fatal(err)
	}
	h2 := mustPlan(t, "SELECT tb2, sum(bytes) FROM persec GROUP BY tb/2 as tb2", n1.Schema())
	n2, err := e.AddHighLevel("per2sec", n1, h2)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	n2.Subscribe(func(row tuple.Tuple) error {
		total += row[1].AsInt()
		return nil
	})
	feed, _ := trace.NewSteady(trace.SteadyConfig{Seed: 5, Duration: 6, Rate: 2000})
	if err := e.Run(feed); err != nil {
		t.Fatal(err)
	}
	// Total through both levels must be the full byte count.
	var want int64
	feed2, _ := trace.NewSteady(trace.SteadyConfig{Seed: 5, Duration: 6, Rate: 2000})
	for {
		p, ok := feed2.Next()
		if !ok {
			break
		}
		want += int64(p.Len)
	}
	if total != want {
		t.Errorf("cascaded total = %d, want %d", total, want)
	}
}

func TestHighLevelSchemaMismatchRejected(t *testing.T) {
	e, _ := engine.New(1024)
	low := mustPlan(t, "SELECT time, len, uts FROM PKT", trace.Schema())
	lowNode, _ := e.AddLowLevel("l", low)
	// Analyzed against the wrong schema (PKT instead of l's output).
	bad := mustPlan(t, "SELECT uts, len FROM PKT", trace.Schema())
	if _, err := e.AddHighLevel("h", lowNode, bad); err == nil {
		t.Error("schema mismatch accepted")
	}
}

func TestRuntimeErrorSurfacesNodeName(t *testing.T) {
	e, _ := engine.New(1024)
	plan := mustPlan(t, "SELECT len/(len-len) FROM PKT", trace.Schema())
	if _, err := e.AddLowLevel("boom", plan); err != nil {
		t.Fatal(err)
	}
	feed, _ := trace.NewSteady(trace.SteadyConfig{Seed: 6, Duration: 0.01, Rate: 1000})
	err := e.Run(feed)
	if err == nil {
		t.Fatal("runtime error swallowed")
	}
}

func TestFanOutOneLowToTwoHighs(t *testing.T) {
	// One low-level node feeding two independent high-level consumers:
	// both must see every forwarded tuple, with independent rows.
	e, _ := engine.New(4096)
	low := mustPlan(t, "SELECT time, srcIP, len, uts FROM PKT", trace.Schema())
	lowNode, err := e.AddLowLevel("l", low)
	if err != nil {
		t.Fatal(err)
	}
	h1 := mustPlan(t, "SELECT tb, count(*) FROM l GROUP BY time/1 as tb", lowNode.Schema())
	n1, err := e.AddHighLevel("counts", lowNode, h1)
	if err != nil {
		t.Fatal(err)
	}
	h2 := mustPlan(t, "SELECT tb, sum(len) FROM l GROUP BY time/1 as tb", lowNode.Schema())
	n2, err := e.AddHighLevel("bytes", lowNode, h2)
	if err != nil {
		t.Fatal(err)
	}
	var count, bytes int64
	n1.Subscribe(func(row tuple.Tuple) error { count += row[1].AsInt(); return nil })
	n2.Subscribe(func(row tuple.Tuple) error { bytes += row[1].AsInt(); return nil })
	feed, _ := trace.NewSteady(trace.SteadyConfig{Seed: 11, Duration: 2, Rate: 3000})
	if err := e.Run(feed); err != nil {
		t.Fatal(err)
	}
	if count != e.Packets() {
		t.Errorf("consumer 1 counted %d of %d", count, e.Packets())
	}
	if bytes <= 0 {
		t.Error("consumer 2 saw nothing")
	}
	if n1.Stats().TuplesIn != n2.Stats().TuplesIn {
		t.Errorf("fan-out delivered unevenly: %d vs %d",
			n1.Stats().TuplesIn, n2.Stats().TuplesIn)
	}
}

func TestNodeStatsSnapshot(t *testing.T) {
	e, _ := engine.New(1024)
	plan := mustPlan(t, "SELECT uts FROM PKT", trace.Schema())
	n, _ := e.AddLowLevel("n", plan)
	feed, _ := trace.NewSteady(trace.SteadyConfig{Seed: 1, Duration: 0.1, Rate: 1000})
	if err := e.Run(feed); err != nil {
		t.Fatal(err)
	}
	st := n.Stats()
	if st.Name != "n" || st.TuplesIn == 0 || st.TuplesOut != st.TuplesIn {
		t.Errorf("stats = %+v", st)
	}
	if st.Operator.TuplesIn != st.TuplesIn {
		t.Error("operator stats inconsistent with node stats")
	}
}

func TestNodesAndEmptyDuration(t *testing.T) {
	e, _ := engine.New(64)
	if e.StreamDuration() != 0 {
		t.Error("duration before any packet != 0")
	}
	l1, _ := e.AddLowLevel("a", mustPlan(t, "SELECT uts FROM PKT", trace.Schema()))
	p, err := e.AddLowLevelPartialAgg("b",
		mustPlan(t, "SELECT tb, count(*) FROM PKT GROUP BY time/1 as tb", trace.Schema()), 8)
	if err != nil {
		t.Fatal(err)
	}
	h, _ := e.AddHighLevel("c", l1, mustPlan(t, "SELECT tb, count(*) FROM a GROUP BY uts/1e9 as tb", l1.Schema()))
	nodes := e.Nodes()
	if len(nodes) != 3 {
		t.Fatalf("Nodes = %d", len(nodes))
	}
	if nodes[0] != l1 || nodes[1] != p.Base() || nodes[2] != h {
		t.Error("Nodes order wrong")
	}
	if e.Utilization(l1) != 0 {
		t.Error("utilization before running != 0")
	}
}
