package operator

import (
	"testing"

	"streamop/internal/checkpoint"
	"streamop/internal/gsql"
	"streamop/internal/sfunlib"
	"streamop/internal/trace"
	"streamop/internal/tuple"
	"streamop/internal/value"
)

// TestGroupArenaInvariants runs the subset-sum query at N = 1 000 — several
// cleanings a window — over 42 one-second windows, batch by batch, once
// uninterrupted and once snapshotted and restored into a fresh operator
// halfway through, and holds the window-ordered arena to its contract
// after every batch:
//   - until the open window's first eviction its groups, in the order
//     sg.groups walks them, are arena entries 0, 1, 2, …;
//   - no group struct is resident twice, in sg.groups or in the group
//     table, and the two hold the same groups;
//   - the arena's handed-out prefix is exactly the resident groups plus
//     the ones evicted this window, and nothing past the cursor is in use.
//
// The restored run's rows and Stats equal the uninterrupted run's.
func TestGroupArenaInvariants(t *testing.T) {
	const src = `
SELECT tb, uts, srcIP, UMAX(sum(len), ssthreshold()) AS adjlen
FROM PKT
WHERE ssample(len, 1000, 2, 10) = TRUE
GROUP BY time/1 as tb, srcIP, uts
HAVING ssfinal_clean(sum(len), count_distinct$(*)) = TRUE
CLEANING WHEN ssdo_clean(count_distinct$(*)) = TRUE
CLEANING BY ssclean_with(sum(len)) = TRUE`
	feed, err := trace.NewSteady(trace.SteadyConfig{Seed: 3, Duration: 42, Rate: 10000})
	if err != nil {
		t.Fatal(err)
	}
	var pkts []trace.Packet
	for p, ok := feed.Next(); ok; p, ok = feed.Next() {
		pkts = append(pkts, p)
	}
	newOp := func(rows *[]tuple.Tuple) *Operator {
		q, err := gsql.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := gsql.Analyze(q, trace.Schema(), sfunlib.Default(1))
		if err != nil {
			t.Fatal(err)
		}
		op, err := New(plan, func(row tuple.Tuple) error {
			*rows = append(*rows, row.Clone())
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return op
	}

	ordered := 0 // batches whose open window was checked against the arena
	resident := map[*group]bool{}
	check := func(o *Operator) {
		t.Helper()
		clear(resident)
		var walk []*group
		for _, sg := range o.sgList {
			for _, g := range sg.groups {
				if resident[g] {
					t.Fatalf("window %d: group %s twice in the supergroup-group tables", o.windowIdx, g.key)
				}
				resident[g] = true
				walk = append(walk, g)
			}
		}
		inTable := 0
		for _, s := range o.groups.slots {
			if s.g == nil {
				continue
			}
			if !resident[s.g] {
				t.Fatalf("window %d: group %s in the group table but no supergroup's", o.windowIdx, s.g.key)
			}
			inTable++
		}
		if inTable != len(walk) || o.groups.len() != len(walk) {
			t.Fatalf("window %d: %d groups in the table (len %d), %d in the supergroups",
				o.windowIdx, inTable, o.groups.len(), len(walk))
		}
		for _, g := range o.evicted {
			if resident[g] {
				t.Fatalf("window %d: evicted group %s is resident", o.windowIdx, g.key)
			}
			resident[g] = true
		}
		if len(resident) != o.next {
			t.Fatalf("window %d: %d resident or evicted groups, arena cursor at %d", o.windowIdx, len(resident), o.next)
		}
		for i, g := range o.arena {
			if resident[g] != (i < o.next) {
				t.Fatalf("window %d: arena entry %d (cursor %d) in use: %v", o.windowIdx, i, o.next, resident[g])
			}
		}
		if len(o.sgList) > 1 {
			t.Fatalf("%d supergroups: the query has one a window", len(o.sgList))
		}
		if o.stats.GroupsEvicted != o.winBase.GroupsEvicted || len(walk) == 0 {
			return // the open window has evicted: reuse is out of arena order
		}
		ordered++
		for i, g := range walk {
			if g != o.arena[i] {
				t.Fatalf("window %d: group %d of the walk is not arena entry %d", o.windowIdx, i, i)
			}
		}
	}
	run := func(o *Operator, pkts []trace.Packet) {
		t.Helper()
		b := tuple.NewBatch(trace.Schema(), 256)
		for off := 0; off < len(pkts); off += 256 {
			b.Reset()
			trace.AppendBatch(b, pkts[off:min(off+256, len(pkts))])
			if err := o.ProcessBatch(b); err != nil {
				t.Fatal(err)
			}
			check(o)
		}
	}

	var ref, got []tuple.Tuple
	opRef := newOp(&ref)
	run(opRef, pkts)
	if err := opRef.Flush(); err != nil {
		t.Fatal(err)
	}
	st := opRef.Stats()
	t.Logf("%+v; arena %d groups; %d batches checked in arena order", st, len(opRef.arena), ordered)
	if st.Windows < 40 || st.Cleanings < 2*st.Windows {
		t.Fatalf("%d windows, %d cleanings: want ≥ 40 windows and several cleanings each", st.Windows, st.Cleanings)
	}
	if ordered < int(st.Windows) {
		t.Fatalf("only %d batches checked the arena order over %d windows", ordered, st.Windows)
	}

	cut := len(pkts) / 2
	opA := newOp(&got)
	run(opA, pkts[:cut])
	enc := checkpoint.NewEncoder()
	if err := opA.Snapshot(enc); err != nil {
		t.Fatal(err)
	}
	opB := newOp(&got)
	if err := opB.Restore(checkpoint.NewDecoder(enc.Bytes())); err != nil {
		t.Fatal(err)
	}
	for _, g := range opA.arena {
		if lookupKey(&opB.groups, g.vals) == g {
			t.Fatalf("restored table reaches pre-restore group %s", g.key)
		}
	}
	check(opB)
	run(opB, pkts[cut:])
	if err := opB.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ref) {
		t.Fatalf("restored run emitted %d rows, uninterrupted %d", len(got), len(ref))
	}
	for i := range ref {
		for j := range ref[i] {
			if value.Compare(got[i][j], ref[i][j]) != 0 {
				t.Fatalf("row %d: restored %v, uninterrupted %v", i, got[i], ref[i])
			}
		}
	}
	if opB.Stats() != st {
		t.Fatalf("restored stats %+v, uninterrupted %+v", opB.Stats(), st)
	}
}
