package core

import (
	"fmt"
	"testing"

	"streamop/internal/profile"
	"streamop/internal/trace"
	"streamop/internal/tuple"
	"streamop/internal/value"
)

func TestCompileDefaults(t *testing.T) {
	q, err := Compile(`SELECT uts, len FROM PKT WHERE len > 100`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := q.Columns(); len(got) != 2 || got[0] != "uts" || got[1] != "len" {
		t.Errorf("Columns = %v", got)
	}
	if q.Plan() == nil {
		t.Error("Plan is nil")
	}
}

func TestCompileParseAndAnalyzeErrors(t *testing.T) {
	if _, err := Compile(`SELECT`, Options{}); err == nil {
		t.Error("parse error swallowed")
	}
	if _, err := Compile(`SELECT ghost FROM PKT GROUP BY time as tb`, Options{}); err == nil {
		t.Error("analyze error swallowed")
	}
}

func TestRunFeedCollectsRows(t *testing.T) {
	q, err := Compile(`SELECT tb, count(*) FROM PKT GROUP BY time/1 as tb`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	feed, err := trace.NewSteady(trace.SteadyConfig{Seed: 1, Duration: 2.5, Rate: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if err := q.RunFeed(feed); err != nil {
		t.Fatal(err)
	}
	if len(q.Collected) != 3 {
		t.Fatalf("rows = %d, want 3 windows", len(q.Collected))
	}
	var total int64
	for _, r := range q.Collected {
		total += r.Values[1].AsInt()
	}
	if total != q.Stats().TuplesIn {
		t.Errorf("counted %d of %d", total, q.Stats().TuplesIn)
	}
}

func TestEmitCallback(t *testing.T) {
	var got []Row
	q, err := Compile(`SELECT uts FROM PKT WHERE len > 0`, Options{
		OnRow: func(r Row) error { got = append(got, r); return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := q.ProcessPacket(trace.Packet{Time: 1, Len: 5}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || len(q.Collected) != 0 {
		t.Errorf("emit got %d, Rows %d", len(got), len(q.Collected))
	}
}

func TestEmitErrorPropagates(t *testing.T) {
	q, err := Compile(`SELECT uts FROM PKT`, Options{
		OnRow: func(Row) error { return fmt.Errorf("sink full") },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := q.ProcessPacket(trace.Packet{Time: 1, Len: 5}); err == nil {
		t.Error("emit error swallowed")
	}
}

func TestRowGet(t *testing.T) {
	r := Row{Columns: []string{"a", "b"}, Values: tuple.Tuple{value.NewInt(1), value.NewInt(2)}}
	if v, ok := r.Get("b"); !ok || v.String() != "2" {
		t.Errorf("Get(b) = %v, %v", v, ok)
	}
	if _, ok := r.Get("c"); ok {
		t.Error("Get(c) ok")
	}
}

func TestCustomSchemaTuples(t *testing.T) {
	schema := tuple.MustSchema("S",
		tuple.Field{Name: "seq", Kind: value.Uint, Ordering: tuple.Increasing},
		tuple.Field{Name: "v", Kind: value.Int},
	)
	q, err := Compile(`SELECT w, sum(v) FROM S GROUP BY seq/10 as w`, Options{Schema: schema})
	if err != nil {
		t.Fatal(err)
	}
	// ProcessPacket must refuse: not the PKT schema.
	if err := q.ProcessPacket(trace.Packet{}); err == nil {
		t.Error("ProcessPacket accepted non-PKT schema")
	}
	for i := uint64(0); i < 25; i++ {
		tp := tuple.Tuple{value.NewUint(i), value.NewInt(2)}
		if err := q.ProcessTuple(tp); err != nil {
			t.Fatal(err)
		}
	}
	if err := q.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(q.Collected) != 3 {
		t.Fatalf("rows = %d", len(q.Collected))
	}
	if q.Collected[0].Values[1].AsInt() != 20 {
		t.Errorf("window 0 sum = %v", q.Collected[0].Values[1])
	}
}

// One profiler contract for every entry point: a query offered packet by
// packet reports the rows into and out of each stage that the same query
// offered through ProcessPackets reports, but for dequeue (a per-packet
// entry point converts no batch).
func TestProfilePerPacketMatchesBatches(t *testing.T) {
	feed, err := trace.NewSteady(trace.SteadyConfig{Seed: 2, Duration: 4, Rate: 3000})
	if err != nil {
		t.Fatal(err)
	}
	var pkts []trace.Packet
	for p, ok := feed.Next(); ok; p, ok = feed.Next() {
		pkts = append(pkts, p)
	}
	for _, src := range []string{
		`SELECT tb, uts, srcIP, UMAX(sum(len), ssthreshold()) AS adjlen FROM PKT
		 WHERE ssample(len, 100, 2, 10) = TRUE GROUP BY time/1 as tb, srcIP, uts
		 HAVING ssfinal_clean(sum(len), count_distinct$(*)) = TRUE
		 CLEANING WHEN ssdo_clean(count_distinct$(*)) = TRUE
		 CLEANING BY ssclean_with(sum(len)) = TRUE`,
		`SELECT uts, len * 2 FROM PKT WHERE len > 700`,
	} {
		stages := func(batched bool) []profile.StageReport {
			q, err := Compile(src, Options{Seed: 1, Profile: true})
			if err != nil {
				t.Fatal(err)
			}
			if batched {
				err = q.ProcessPackets(pkts)
			} else {
				for _, p := range pkts {
					if err = q.ProcessPacket(p); err != nil {
						break
					}
				}
			}
			if err == nil {
				err = q.Flush()
			}
			if err != nil {
				t.Fatal(err)
			}
			return q.Profiler().Report().Nodes[0].Stages
		}
		perPacket, batched := stages(false), stages(true)
		walked := false
		for i, want := range batched {
			if profile.Stage(i) == profile.StageDequeue {
				continue
			}
			got := perPacket[i]
			if got.RowsIn != want.RowsIn || got.RowsOut != want.RowsOut {
				t.Errorf("%s: stage %s: per packet %d → %d rows, batched %d → %d", src, want.Stage, got.RowsIn, got.RowsOut, want.RowsIn, want.RowsOut)
			}
			walked = walked || want.RowsIn > 0 && profile.Stage(i) != profile.StageKernelGroupBy
		}
		if !walked {
			t.Errorf("%s: no stage past GROUP BY saw a row; the test compares nothing", src)
		}
	}
}
