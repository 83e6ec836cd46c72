package engine_test

import (
	"strings"
	"testing"

	"streamop/internal/engine"
	"streamop/internal/gsql"
	"streamop/internal/sfun"
	"streamop/internal/sfunlib"
	"streamop/internal/trace"
	"streamop/internal/tuple"
	"streamop/internal/value"
	"streamop/internal/xrand"
)

func TestPartialAggValidation(t *testing.T) {
	e, _ := engine.New(1024)
	sel := mustPlan(t, "SELECT uts FROM PKT", trace.Schema())
	if _, err := e.AddLowLevelPartialAgg("p", sel, 16); err == nil {
		t.Error("selection plan accepted")
	}
	withWhere := mustPlan(t, "SELECT tb, count(*) FROM PKT WHERE len > 0 GROUP BY time as tb", trace.Schema())
	if _, err := e.AddLowLevelPartialAgg("p", withWhere, 16); err == nil {
		t.Error("plan with WHERE accepted")
	}
	ok := mustPlan(t, "SELECT tb, srcIP, sum(len) FROM PKT GROUP BY time/1 as tb, srcIP", trace.Schema())
	if _, err := e.AddLowLevelPartialAgg("p", ok, 0); err == nil {
		t.Error("zero slots accepted")
	}
	if _, err := e.AddLowLevelPartialAgg("p", ok, 16); err != nil {
		t.Fatal(err)
	}
	if _, err := e.AddLowLevelPartialAgg("p", ok, 16); err == nil {
		t.Error("duplicate name accepted")
	}
}

// TestPartialAggRefinement: the canonical Gigascope pattern — a tiny
// fixed-size low-level partial-aggregation table feeding a high-level
// final aggregation. The re-aggregated totals must be exact no matter how
// many collisions the low level suffers.
func TestPartialAggRefinement(t *testing.T) {
	e, _ := engine.New(4096)
	lowPlan := mustPlan(t,
		"SELECT tb, srcIP, sum(len) AS bytes, count(*) AS pkts FROM PKT GROUP BY time/1 as tb, srcIP",
		trace.Schema())
	low, err := e.AddLowLevelPartialAgg("partial", lowPlan, 64)
	if err != nil {
		t.Fatal(err)
	}
	highPlan := mustPlan(t,
		"SELECT tb2, srcIP, sum(bytes), sum(pkts) FROM partial GROUP BY tb/1 as tb2, srcIP",
		low.Schema())
	high, err := e.AddHighLevel("final", low.Base(), highPlan)
	if err != nil {
		t.Fatal(err)
	}
	got := map[[2]uint64][2]int64{}
	high.Subscribe(func(row tuple.Tuple) error {
		k := [2]uint64{row[0].AsUint(), row[1].Uint()}
		v := got[k]
		v[0] += row[2].AsInt()
		v[1] += row[3].AsInt()
		got[k] = v
		return nil
	})

	// Many more sources than slots: collisions guaranteed.
	cfg := trace.DefaultSteady(21, 3)
	cfg.Rate = 20000
	feed, _ := trace.NewSteady(cfg)
	if err := e.Run(feed); err != nil {
		t.Fatal(err)
	}
	if low.Evictions() == 0 {
		t.Fatal("no collisions; table too large for the test to mean anything")
	}

	// Oracle.
	feed2, _ := trace.NewSteady(cfg)
	want := map[[2]uint64][2]int64{}
	for {
		p, ok := feed2.Next()
		if !ok {
			break
		}
		k := [2]uint64{p.Time / 1e9, uint64(p.SrcIP)}
		v := want[k]
		v[0] += int64(p.Len)
		v[1]++
		want[k] = v
	}
	if len(got) != len(want) {
		t.Fatalf("groups: got %d, want %d", len(got), len(want))
	}
	for k, w := range want {
		if got[k] != w {
			t.Fatalf("group %v: got %v, want %v", k, got[k], w)
		}
	}
}

// TestPartialAggIsOrderOfMagnitudeCheaperThanFull compares a partial
// low-level node (bounded table, no sampling machinery) against a full
// operator doing the same grouping at the low level. The partial node must
// forward far fewer tuples than packets when keys repeat.
func TestPartialAggDataReduction(t *testing.T) {
	e, _ := engine.New(4096)
	plan := mustPlan(t, "SELECT tb, srcIP, sum(len) FROM PKT GROUP BY time/1 as tb, srcIP", trace.Schema())
	low, err := e.AddLowLevelPartialAgg("p", plan, 4096)
	if err != nil {
		t.Fatal(err)
	}
	cfg := trace.SteadyConfig{Seed: 5, Duration: 2, Rate: 20000, Hosts: 64}
	feed, _ := trace.NewSteady(cfg)
	if err := e.Run(feed); err != nil {
		t.Fatal(err)
	}
	st := low.Stats()
	if st.TuplesOut*10 > st.TuplesIn {
		t.Errorf("partial agg forwarded %d of %d tuples; expected heavy reduction",
			st.TuplesOut, st.TuplesIn)
	}
	if low.Evictions() != 0 {
		t.Errorf("evictions = %d with an oversized table", low.Evictions())
	}
}

// TestPartialAggHeavyHitterPushdown: §8's suggestion — support the heavy
// hitters algorithm by aggregation at the low level. A 64-slot partial
// table feeding the Manku-Motwani query must still surface the heavy
// source.
func TestPartialAggHeavyHitterPushdown(t *testing.T) {
	e, _ := engine.New(4096)
	lowPlan := mustPlan(t,
		"SELECT tb, srcIP, sum(len) AS bytes, count(*) AS pkts FROM PKT GROUP BY time/60 as tb, srcIP",
		trace.Schema())
	low, err := e.AddLowLevelPartialAgg("partial", lowPlan, 64)
	if err != nil {
		t.Fatal(err)
	}
	highPlan := mustPlan(t, `
SELECT tb2, srcIP, sum(bytes), sum(pkts)
FROM partial
GROUP BY tb/1 as tb2, srcIP
HAVING sum(pkts) >= 5000
CLEANING WHEN local_count(500) = TRUE
CLEANING BY sum(pkts) >= current_bucket() - first(current_bucket())`,
		low.Schema())
	high, err := e.AddHighLevel("hh", low.Base(), highPlan)
	if err != nil {
		t.Fatal(err)
	}
	foundHeavy := false
	high.Subscribe(func(row tuple.Tuple) error {
		if row[1].Uint() == 0x0a000001 {
			foundHeavy = true
		}
		return nil
	})
	// One heavy source among a wide tail.
	r := xrand.New(6)
	pkts := make([]trace.Packet, 0, 60000)
	for i := 0; i < 60000; i++ {
		src := uint32(0x0a000001)
		if r.Float64() >= 0.3 {
			src = 0x0a010000 + uint32(r.Intn(20000))
		}
		pkts = append(pkts, trace.Packet{Time: uint64(i) * 1e6, SrcIP: src, Len: 100})
	}
	if err := e.Run(sliceFeed(pkts)); err != nil {
		t.Fatal(err)
	}
	if !foundHeavy {
		t.Error("heavy source missing through partial-agg pushdown")
	}
}

// TestStringSumArgumentErrsOnEitherStep sums a scalar that returns a
// String for an odd length, off the schema, on a partial-aggregation node
// and on an operator node: both walks check the argument the same way, so
// Run returns the same error from either and no node is counted failed.
func TestStringSumArgumentErrsOnEitherStep(t *testing.T) {
	for _, partial := range []bool{true, false} {
		reg := sfunlib.Default(1)
		reg.MustRegisterFunc(&sfun.Func{
			Name: "odd",
			Call: func(_ any, args []value.Value) (value.Value, error) {
				if args[0].AsInt()%2 == 1 {
					return value.NewString("boom"), nil
				}
				return args[0], nil
			},
		})
		q, err := gsql.Parse("SELECT tb, sum(odd(len)) FROM PKT GROUP BY time/1 as tb")
		if err != nil {
			t.Fatal(err)
		}
		plan, err := gsql.Analyze(q, trace.Schema(), reg)
		if err != nil {
			t.Fatal(err)
		}
		e, _ := engine.New(1024)
		if partial {
			_, err = e.AddLowLevelPartialAgg("p", plan, 64)
		} else {
			_, err = e.AddLowLevel("p", plan)
		}
		if err != nil {
			t.Fatal(err)
		}
		err = e.Run(sliceFeed([]trace.Packet{{Time: 1, Len: 40}, {Time: 2, Len: 41}, {Time: 3, Len: 42}}))
		if want := `sum(odd(len)) argument: String "boom" is not a number`; err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("partial %v: Run = %v, want an error naming %s", partial, err, want)
		}
		if f := e.Failures(); len(f) != 0 {
			t.Errorf("partial %v: Failures() = %+v, want none", partial, f)
		}
	}
}

// sliceFeed adapts a packet slice to trace.Feed.
type sliceFeedT struct {
	pkts []trace.Packet
	i    int
}

func sliceFeed(pkts []trace.Packet) trace.Feed { return &sliceFeedT{pkts: pkts} }

func (s *sliceFeedT) Next() (trace.Packet, bool) {
	if s.i >= len(s.pkts) {
		return trace.Packet{}, false
	}
	p := s.pkts[s.i]
	s.i++
	return p, true
}
