package operator_test

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"streamop/internal/gsql"
	"streamop/internal/operator"
	"streamop/internal/sfunlib"
	"streamop/internal/trace"
	"streamop/internal/tuple"
	"streamop/internal/xrand"
)

// TestAggregationAgainstOracle runs a grouping query over random packet
// streams and cross-checks every output row against a brute-force
// computation.
func TestAggregationAgainstOracle(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		nPkts := 200 + r.Intn(2000)
		srcs := 1 + r.Intn(8)
		windowSec := 1 + r.Intn(5)
		var pkts []trace.Packet
		ts := uint64(0)
		for i := 0; i < nPkts; i++ {
			ts += uint64(r.Intn(2e8)) // nondecreasing, crosses windows
			pkts = append(pkts, trace.Packet{
				Time:  ts,
				SrcIP: uint32(1 + r.Intn(srcs)),
				Len:   uint16(40 + r.Intn(1460)),
			})
		}
		rows := runQuiet(t, fmt.Sprintf(`
SELECT tb, srcIP, sum(len), count(*), min(len), max(len), avg(len)
FROM PKT
GROUP BY time/%d as tb, srcIP`, windowSec), pkts)

		// Oracle.
		type key struct {
			tb  uint64
			src uint32
		}
		type stat struct {
			sum, cnt, min, max int64
		}
		oracle := map[key]*stat{}
		for _, p := range pkts {
			k := key{p.Time / 1e9 / uint64(windowSec), p.SrcIP}
			s, ok := oracle[k]
			if !ok {
				s = &stat{min: int64(p.Len), max: int64(p.Len)}
				oracle[k] = s
			}
			l := int64(p.Len)
			s.sum += l
			s.cnt++
			if l < s.min {
				s.min = l
			}
			if l > s.max {
				s.max = l
			}
		}
		if len(rows) != len(oracle) {
			t.Logf("seed %x: %d rows vs %d oracle groups", seed, len(rows), len(oracle))
			return false
		}
		for _, row := range rows {
			k := key{row[0].AsUint(), uint32(row[1].Uint())}
			s, ok := oracle[k]
			if !ok {
				t.Logf("seed %x: unexpected group %v", seed, k)
				return false
			}
			if row[2].AsInt() != s.sum || row[3].AsInt() != s.cnt ||
				row[4].AsInt() != s.min || row[5].AsInt() != s.max {
				t.Logf("seed %x: group %v mismatch: %v vs %+v", seed, k, row, s)
				return false
			}
			wantAvg := float64(s.sum) / float64(s.cnt)
			if diff := row[6].AsFloat() - wantAvg; diff > 1e-9 || diff < -1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// runQuiet is run without the t.Fatalf on process errors (property tests
// return false instead).
func runQuiet(t *testing.T, src string, packets []trace.Packet) []tuple.Tuple {
	t.Helper()
	return run(t, src, packets)
}

// TestSupergroupInvariantQuick: under random min-hash-style queries, each
// supergroup's output is exactly the k smallest distinct hashes of its
// rows (all of them when it has fewer than k), which a plain GROUP BY
// over the same hashes lists.
func TestSupergroupInvariantQuick(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		k := 2 + r.Intn(12)
		srcs := 1 + r.Intn(4)
		var pkts []trace.Packet
		for i := 0; i < 3000; i++ {
			pkts = append(pkts, trace.Packet{
				Time:  uint64(i) * 1e6,
				SrcIP: uint32(1 + r.Intn(srcs)),
				DstIP: uint32(r.Intn(400)),
				Len:   1,
			})
		}
		rows := run(t, fmt.Sprintf(`
SELECT tb, srcIP, HX
FROM PKT
WHERE HX <= Kth_smallest_value$(HX, %d)
GROUP BY time/60 as tb, srcIP, H(destIP) as HX
SUPERGROUP BY tb, srcIP
HAVING HX <= Kth_smallest_value$(HX, %d)
CLEANING WHEN count_distinct$(*) >= %d
CLEANING BY HX <= Kth_smallest_value$(HX, %d)`, k, k, k, k), pkts)
		all := run(t, `
SELECT tb, srcIP, HX
FROM PKT
GROUP BY time/60 as tb, srcIP, H(destIP) as HX`, pkts)
		perSrc := func(rows []tuple.Tuple) map[uint64][]uint64 {
			m := map[uint64][]uint64{}
			for _, row := range rows {
				m[row[1].Uint()] = append(m[row[1].Uint()], row[2].Uint())
			}
			for _, hs := range m {
				slices.Sort(hs)
			}
			return m
		}
		got, want := perSrc(rows), perSrc(all)
		if len(got) != len(want) {
			return false
		}
		for src, hs := range want {
			if len(hs) > k {
				hs = hs[:k]
			}
			if !slices.Equal(got[src], hs) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// TestNonMonotonicTimestamps: Gigascope semantics close the window on any
// change of an ordered group-by value; a timestamp regression therefore
// flushes (it does not crash or corrupt state).
func TestNonMonotonicTimestamps(t *testing.T) {
	pkts := []trace.Packet{
		{Time: 1e9, Len: 10},
		{Time: 25e9, Len: 20}, // window 0 -> 2
		{Time: 3e9, Len: 30},  // regression: window 2 -> 0 again
	}
	rows := run(t, `SELECT tb, sum(len) FROM PKT GROUP BY time/10 as tb`, pkts)
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3 (each change flushes)", len(rows))
	}
	if rows[0][1].AsInt() != 10 || rows[1][1].AsInt() != 20 || rows[2][1].AsInt() != 30 {
		t.Errorf("rows = %v", rows)
	}
}

// TestEmitErrorAborts: an output-sink error from the emit callback aborts
// processing with the error.
func TestEmitErrorAborts(t *testing.T) {
	q, _ := gsql.Parse(`SELECT uts FROM PKT`)
	plan, err := gsql.Analyze(q, trace.Schema(), sfunlib.Default(1))
	if err != nil {
		t.Fatal(err)
	}
	op, _ := operator.New(plan, func(tuple.Tuple) error { return fmt.Errorf("downstream full") })
	p := trace.Packet{Time: 1, Len: 1}
	if err := op.Process(p.Tuple()); err == nil {
		t.Error("emit error swallowed")
	}
}

// TestFlushIdempotent: flushing twice (or with no open window) is a no-op.
func TestFlushIdempotent(t *testing.T) {
	q, _ := gsql.Parse(`SELECT tb, count(*) FROM PKT GROUP BY time/10 as tb`)
	plan, _ := gsql.Analyze(q, trace.Schema(), sfunlib.Default(1))
	var n int
	op, _ := operator.New(plan, func(tuple.Tuple) error { n++; return nil })
	if err := op.Flush(); err != nil {
		t.Fatal(err)
	}
	p := trace.Packet{Time: 1e9, Len: 1}
	op.Process(p.Tuple())
	if err := op.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := op.Flush(); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("emitted %d rows, want 1", n)
	}
}
