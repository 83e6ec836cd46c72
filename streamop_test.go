package streamop_test

import (
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"streamop"
	"streamop/internal/tuple"
	"streamop/internal/value"
)

func TestPublicQuickstartFlow(t *testing.T) {
	q, err := streamop.Compile(`
SELECT tb, uts, srcIP, destIP, UMAX(sum(len), ssthreshold()) AS adjlen
FROM PKT
WHERE ssample(len, 500, 2, 10) = TRUE
GROUP BY time/2 as tb, srcIP, destIP, uts
HAVING ssfinal_clean(sum(len), count_distinct$(*)) = TRUE
CLEANING WHEN ssdo_clean(count_distinct$(*)) = TRUE
CLEANING BY ssclean_with(sum(len)) = TRUE`, streamop.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cols := q.Columns()
	if len(cols) != 5 || cols[4] != "adjlen" {
		t.Fatalf("Columns = %v", cols)
	}
	feed, err := streamop.NewSteadyFeed(streamop.SteadyConfig{Seed: 1, Duration: 1.9, Rate: 30000})
	if err != nil {
		t.Fatal(err)
	}
	var actual float64
	counted, err := streamop.NewSteadyFeed(streamop.SteadyConfig{Seed: 1, Duration: 1.9, Rate: 30000})
	if err != nil {
		t.Fatal(err)
	}
	for {
		p, ok := counted.Next()
		if !ok {
			break
		}
		actual += float64(p.Len)
	}
	if err := q.RunFeed(feed); err != nil {
		t.Fatal(err)
	}
	if len(q.Collected) == 0 || len(q.Collected) > 500 {
		t.Fatalf("rows = %d", len(q.Collected))
	}
	var est float64
	for _, row := range q.Collected {
		v, ok := row.Get("adjlen")
		if !ok {
			t.Fatal("adjlen column missing")
		}
		_ = v
		est += row.Values[4].AsFloat()
	}
	if rel := math.Abs(est-actual) / actual; rel > 0.2 {
		t.Errorf("estimate %v vs actual %v", est, actual)
	}
	if q.Stats().TuplesIn == 0 {
		t.Error("no stats")
	}
}

func TestPublicRowGet(t *testing.T) {
	q, err := streamop.Compile(`SELECT uts, len FROM PKT WHERE len > 0`, streamop.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := q.ProcessPacket(streamop.Packet{Time: 5, Len: 99}); err != nil {
		t.Fatal(err)
	}
	if len(q.Collected) != 1 {
		t.Fatalf("rows = %d", len(q.Collected))
	}
	v, ok := q.Collected[0].Get("len")
	if !ok || v.String() != "99" {
		t.Errorf("Get(len) = %v, %v", v, ok)
	}
	if _, ok := q.Collected[0].Get("nope"); ok {
		t.Error("Get(nope) ok")
	}
}

func TestPublicCompileErrors(t *testing.T) {
	if _, err := streamop.Compile("not a query", streamop.Options{}); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := streamop.Compile("SELECT nosuch FROM PKT GROUP BY time as tb", streamop.Options{}); err == nil {
		t.Error("unknown column accepted")
	}
}

func TestPublicCustomRegistry(t *testing.T) {
	reg := streamop.NewRegistry()
	reg.MustRegisterState(&streamop.StateType{
		Name: "tick_state",
		Init: func(old any) any { n := 0; return &n },
	})
	reg.MustRegisterFunc(&streamop.Func{
		Name: "everyother", State: "tick_state",
		Call: func(state any, args []streamop.Value) (streamop.Value, error) {
			n := state.(*int)
			*n++
			return streamop.BoolValue(*n%2 == 1), nil
		},
	})
	q, err := streamop.Compile(
		`SELECT uts FROM PKT WHERE everyother() = TRUE`,
		streamop.Options{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := q.ProcessPacket(streamop.Packet{Time: uint64(i), Len: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if len(q.Collected) != 5 {
		t.Errorf("custom sfun admitted %d of 10", len(q.Collected))
	}
}

func TestPublicValueConstructors(t *testing.T) {
	if !streamop.BoolValue(true).Truth() {
		t.Error("BoolValue")
	}
	if streamop.IntValue(-3).Int() != -3 {
		t.Error("IntValue")
	}
	if streamop.UintValue(7).Uint() != 7 {
		t.Error("UintValue")
	}
	if streamop.FloatValue(1.5).Float() != 1.5 {
		t.Error("FloatValue")
	}
	if streamop.StringValue("x").Str() != "x" {
		t.Error("StringValue")
	}
}

func TestPublicEngineTopology(t *testing.T) {
	reg := streamop.DefaultRegistry(1)
	e, err := streamop.NewEngine(4096)
	if err != nil {
		t.Fatal(err)
	}
	lowPlan, err := streamop.ParseAndAnalyze(
		"SELECT time, len, uts FROM PKT", streamop.PKTSchema(), reg)
	if err != nil {
		t.Fatal(err)
	}
	low, err := e.AddLowLevel("low", lowPlan)
	if err != nil {
		t.Fatal(err)
	}
	highPlan, err := streamop.ParseAndAnalyze(
		"SELECT tb, count(*) FROM low GROUP BY time/1 as tb", low.Schema(), reg)
	if err != nil {
		t.Fatal(err)
	}
	high, err := e.AddHighLevel("high", low, highPlan)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	high.Subscribe(func(row streamop.Tuple) error {
		total += row[1].AsInt()
		return nil
	})
	feed, err := streamop.NewSteadyFeed(streamop.SteadyConfig{Seed: 9, Duration: 2, Rate: 5000})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(feed); err != nil {
		t.Fatal(err)
	}
	if total != e.Packets() {
		t.Errorf("counted %d of %d", total, e.Packets())
	}
	if e.Utilization(low) <= 0 || e.Utilization(high) <= 0 {
		t.Error("no utilization recorded")
	}
}

func TestPublicFlowSampler(t *testing.T) {
	s, err := streamop.NewFlowSampler(streamop.FlowSamplerConfig{
		TargetSize: 100, InitialZ: 50, Theta: 2, RelaxFactor: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	feed, err := streamop.NewFlowsFeed(streamop.DefaultFlows(2, 5))
	if err != nil {
		t.Fatal(err)
	}
	var actual float64
	for {
		p, ok := feed.Next()
		if !ok {
			break
		}
		actual += float64(p.Len)
		s.Offer(p)
	}
	flows := s.EndWindow()
	if len(flows) == 0 || len(flows) > 100 {
		t.Fatalf("flows = %d", len(flows))
	}
	est := streamop.EstimateFlowBytes(flows)
	if rel := math.Abs(est-actual) / actual; rel > 0.3 {
		t.Errorf("estimate %v vs actual %v", est, actual)
	}
}

func TestPublicMergeAndFlood(t *testing.T) {
	bg, err := streamop.NewSteadyFeed(streamop.SteadyConfig{Seed: 3, Duration: 1, Rate: 1000})
	if err != nil {
		t.Fatal(err)
	}
	atk, err := streamop.NewFloodFeed(streamop.FloodConfig{Seed: 4, Start: 0.2, End: 0.4, Rate: 5000, Victim: 42})
	if err != nil {
		t.Fatal(err)
	}
	m := streamop.MergeFeeds(bg, atk)
	var prev uint64
	attack := 0
	for {
		p, ok := m.Next()
		if !ok {
			break
		}
		if p.Time < prev {
			t.Fatal("merge out of order")
		}
		prev = p.Time
		if p.DstIP == 42 {
			attack++
		}
	}
	if attack < 800 {
		t.Errorf("attack packets = %d", attack)
	}
}

// TestPublicSession exercises the standing-query surface end to end
// through the facade: Start a session over a live feed, Install a tap
// plus two queries against it, stream rows from a Subscription and the
// Rows iterator, Uninstall one mid-stream, and Drain.
func TestPublicSession(t *testing.T) {
	e, err := streamop.NewEngine(1024)
	if err != nil {
		t.Fatal(err)
	}
	feed, err := streamop.NewSteadyFeed(streamop.SteadyConfig{Seed: 1, Duration: 5, Rate: 20000})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.StartWith(context.Background(), feed, streamop.StartOptions{}); err != nil {
		t.Fatal(err)
	}
	heavy, err := e.Install("heavy", "SELECT srcIP, len FROM tap", streamop.InstallOptions{
		Via: "SELECT time, srcIP, len, uts FROM PKT WHERE len >= 1500",
	})
	if err != nil {
		t.Fatal(err)
	}
	if heavy.Explain() == "" || len(heavy.Columns()) != 2 {
		t.Fatalf("handle = %v %q", heavy.Columns(), heavy.Explain())
	}
	other, err := e.Install("other", "SELECT len FROM tap", streamop.InstallOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if e.TapCount() != 1 {
		t.Fatalf("TapCount = %d, want 1 (deduplicated)", e.TapCount())
	}
	sub := heavy.Subscribe()
	select {
	case row := <-sub.C():
		if len(row) != 2 {
			t.Fatalf("row = %v", row)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no rows on subscription")
	}
	sub.Close()
	got := 0
	for range other.Rows(context.Background()) {
		if got++; got == 3 {
			break
		}
	}
	if got != 3 {
		t.Fatalf("iterator rows = %d", got)
	}
	if err := e.Uninstall("other"); err != nil {
		t.Fatal(err)
	}
	if names := e.Installed(); len(names) != 1 {
		t.Fatalf("Installed = %d", len(names))
	}
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Install("late", "SELECT len FROM tap", streamop.InstallOptions{}); err != nil {
		t.Fatalf("idle install after drain: %v", err)
	}
}

// TestPublicStringOffSchemaErrs offers a numeric aggregate's argument a
// String the schema does not declare: the tuple errs, as an erring
// argument would, and the rows before it stay in the window.
func TestPublicStringOffSchemaErrs(t *testing.T) {
	schema := tuple.MustSchema("S",
		tuple.Field{Name: "ts", Kind: value.Int, Ordering: tuple.Increasing},
		tuple.Field{Name: "x", Kind: value.Int},
	)
	for _, src := range []string{
		`SELECT tb, sum(x) FROM S GROUP BY ts/4 AS tb`,
		`SELECT tb, avg(x) FROM S GROUP BY ts/4 AS tb`,
		`SELECT tb, sum(x) FROM S WHERE x > 0 GROUP BY ts/4 AS tb`,
		`SELECT tb, count(*), sum$(x) FROM S GROUP BY ts/4 AS tb`,
	} {
		q, err := streamop.Compile(src, streamop.Options{Schema: schema})
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if err := q.ProcessTuple(streamop.Tuple{streamop.IntValue(1), streamop.IntValue(6)}); err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		err = q.ProcessTuple(streamop.Tuple{streamop.IntValue(1), streamop.StringValue("boom")})
		if err == nil || !strings.Contains(err.Error(), "String") {
			t.Fatalf("%s: err = %v, want one naming the String", src, err)
		}
		if err := q.Flush(); err != nil {
			t.Fatalf("%s: Flush: %v", src, err)
		}
		if len(q.Collected) != 1 {
			t.Fatalf("%s: %d rows, want 1", src, len(q.Collected))
		}
		if vals := q.Collected[0].Values; vals[len(vals)-1].AsFloat() != 6 {
			t.Fatalf("%s: row %v, want the first tuple's 6 alone", src, vals)
		}
		if st := q.Stats(); st.TuplesIn != 2 || st.TuplesAccepted != 2 {
			t.Fatalf("%s: stats %+v, want both tuples in and accepted", src, st)
		}
	}
}
