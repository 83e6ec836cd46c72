package sfunlib

import (
	"fmt"
	"sort"
	"testing"

	"streamop/internal/gsql"
	"streamop/internal/operator"
	"streamop/internal/sample/distinct"
	"streamop/internal/sample/priority"
	"streamop/internal/sample/reservoir"
	"streamop/internal/sample/subsetsum"
	"streamop/internal/trace"
	"streamop/internal/tuple"
	"streamop/internal/value"
	"streamop/internal/xrand"
)

// The SFUN families are thin wrappers over their internal/sample packages,
// so a query and the package driven by hand over the same records, on the
// seed the query's state derives, must choose the same sample. These tests
// run each family as a query over a multi-window feed and compare every
// window's kept tags with the package's.

const (
	queryWindow = 10 // seconds per window: GROUP BY time/10
	querySeed   = 77
)

// queryWindows are the per-window record counts of queryFeed: windows above
// and below the sample sizes, so fill, skip and cleaning paths all run.
var queryWindows = []int{3000, 40, 5000, 1200}

// queryFeed builds one packet per record, each with a unique uts, a random
// length and a destination from a pool of 3000.
func queryFeed() []trace.Packet {
	r := xrand.New(5)
	var out []trace.Packet
	for w, n := range queryWindows {
		for i := 0; i < n; i++ {
			out = append(out, trace.Packet{
				Time:  uint64(w)*queryWindow*1e9 + uint64(i)*(queryWindow*1e9/uint64(n)),
				DstIP: uint32(r.Intn(3000)),
				Len:   uint16(40 + r.Intn(1461)),
			})
		}
	}
	return out
}

// runQuery runs src over packets with the library registered at querySeed
// and returns the output rows.
func runQuery(t *testing.T, src string, packets []trace.Packet) []tuple.Tuple {
	t.Helper()
	q, err := gsql.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := gsql.Analyze(q, trace.Schema(), Default(querySeed))
	if err != nil {
		t.Fatal(err)
	}
	var rows []tuple.Tuple
	op, err := operator.New(plan, func(row tuple.Tuple) error {
		rows = append(rows, row.Clone())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range packets {
		if err := op.Process(p.Tuple()); err != nil {
			t.Fatal(err)
		}
	}
	if err := op.Flush(); err != nil {
		t.Fatal(err)
	}
	return rows
}

// windowed splits packets by window.
func windowed(packets []trace.Packet) [][]trace.Packet {
	out := make([][]trace.Packet, len(queryWindows))
	for _, p := range packets {
		w := p.Time / 1e9 / queryWindow
		out[w] = append(out[w], p)
	}
	return out
}

// keptByWindow collects column col of rows whose first column is the
// window, as a sorted list per window.
func keptByWindow(rows []tuple.Tuple, col int) [][]uint64 {
	out := make([][]uint64, len(queryWindows))
	for _, row := range rows {
		w := row[0].AsUint()
		out[w] = append(out[w], row[col].AsUint())
	}
	for _, tags := range out {
		sort.Slice(tags, func(i, j int) bool { return tags[i] < tags[j] })
	}
	return out
}

func sortedTags(tags []uint64) []uint64 {
	out := append([]uint64(nil), tags...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func sameTags(t *testing.T, w int, got, want []uint64) {
	t.Helper()
	if len(want) == 0 {
		t.Fatalf("window %d: the package kept nothing", w)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("window %d: query kept %d tags, package %d\nquery   %v\npackage %v", w, len(got), len(want), got, want)
	}
}

// TestQueryMatchesPackage runs rsample, psample, dsample and bssample as
// queries and compares each window's sample with the family's package.
// The operator creates one supergroup state per window, so window w's
// state is instance w+1 of its family's seed sequence.
func TestQueryMatchesPackage(t *testing.T) {
	packets := queryFeed()
	byWindow := windowed(packets)

	t.Run("rsample", func(t *testing.T) {
		const n = 60
		rows := runQuery(t, fmt.Sprintf(`
SELECT tb, uts FROM PKT
WHERE rsample(uts, %d, 5) = TRUE
GROUP BY time/%d as tb, uts
HAVING rsfinal_clean(uts) = TRUE
CLEANING WHEN rsdo_clean(count_distinct$(*)) = TRUE
CLEANING BY rsclean_with(uts) = TRUE`, n, queryWindow), packets)
		got := keptByWindow(rows, 1)
		for w, pkts := range byWindow {
			r, err := reservoir.New[uint64](n, instanceRng(querySeed, uint64(w+1), rsSeedMul))
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range pkts {
				r.Offer(p.Time)
			}
			sameTags(t, w, got[w], sortedTags(r.Items))
		}
	})

	t.Run("psample", func(t *testing.T) {
		const k = 50
		rows := runQuery(t, fmt.Sprintf(`
SELECT tb, uts, pstau() FROM PKT
WHERE psample(uts, len, %d) = TRUE
GROUP BY time/%d as tb, uts
HAVING pskeep(uts) = TRUE
CLEANING WHEN psdo_clean(count_distinct$(*)) = TRUE
CLEANING BY pskeep(uts) = TRUE`, k, queryWindow), packets)
		got := keptByWindow(rows, 1)
		for w, pkts := range byWindow {
			s, err := priority.New[uint64](k, instanceRng(querySeed, uint64(w+1), psSeedMul))
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range pkts {
				s.Offer(float64(p.Len), p.Time)
			}
			var want []uint64
			for _, sm := range s.Items {
				want = append(want, sm.Payload)
			}
			sameTags(t, w, got[w], sortedTags(want))
			for _, row := range rows {
				if row[0].AsUint() == uint64(w) && row[2].AsFloat() != s.Tau {
					t.Fatalf("window %d: pstau() %v, package tau %v", w, row[2].AsFloat(), s.Tau)
				}
			}
		}
	})

	t.Run("dsample", func(t *testing.T) {
		const capacity = 300
		rows := runQuery(t, fmt.Sprintf(`
SELECT tb, HX, dsscale() FROM PKT
WHERE dsample(HX, %d) = TRUE
GROUP BY time/%d as tb, H(destIP) as HX
CLEANING WHEN dsdo_clean(count_distinct$(*)) = TRUE
CLEANING BY dskeep(HX) = TRUE`, capacity, queryWindow), packets)
		got := keptByWindow(rows, 1)
		for w, pkts := range byWindow {
			s, err := distinct.New(capacity)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range pkts {
				s.Offer(value.Hash(value.NewUint(uint64(p.DstIP)), 0x5eed))
			}
			var want []uint64
			for _, e := range s.Sample() {
				want = append(want, e.Hash)
			}
			sameTags(t, w, got[w], sortedTags(want))
			for _, row := range rows {
				if row[0].AsUint() == uint64(w) && row[2].AsUint() != 1<<s.Level() {
					t.Fatalf("window %d: dsscale() %v, package level %d", w, row[2], s.Level())
				}
			}
		}
	})

	t.Run("bssample", func(t *testing.T) {
		// bssample is the selection-query predicate of Figs. 5 and 6: one
		// state for the whole stream, so one Basic sampler across windows.
		const z = 4000
		rows := runQuery(t, fmt.Sprintf(`SELECT time/%d, uts FROM PKT WHERE bssample(len, %d) = TRUE`, queryWindow, z), packets)
		got := keptByWindow(rows, 1)
		b, err := subsetsum.NewBasic[uint64](z)
		if err != nil {
			t.Fatal(err)
		}
		want := make([][]uint64, len(queryWindows))
		for _, p := range packets {
			if b.Offer(float64(p.Len), p.Time) {
				w := p.Time / 1e9 / queryWindow
				want[w] = append(want[w], p.Time)
			}
		}
		for w := range want {
			sameTags(t, w, got[w], want[w])
		}
	})
}
