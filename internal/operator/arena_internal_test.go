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
// halfway through, and holds the group store's slots to their contract
// after every batch:
//   - until the open window's first eviction its groups, in the order
//     sg.groups walks them, are slots 0, 1, 2, …;
//   - no slot is resident twice, in sg.groups or in the group table, and
//     the two hold the same slots, each under its key's hash and found by
//     probing for its key;
//   - the slots before the store's cursor are exactly the resident ones
//     plus the ones cleaning freed this window, and none past it is in
//     use.
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

	ordered := 0 // batches whose open window was checked against slot order
	resident := map[int32]bool{}
	check := func(o *Operator) {
		t.Helper()
		clear(resident)
		var walk []int32
		for _, sg := range o.sgList {
			for _, g := range sg.groups {
				if resident[g] {
					t.Fatalf("window %d: slot %d twice in the supergroup-group tables", o.windowIdx, g)
				}
				resident[g] = true
				walk = append(walk, g)
			}
		}
		inTable := 0
		for _, e := range o.groups.entries {
			if e.ref == 0 {
				continue
			}
			g := int32(e.ref - 1)
			if !resident[g] {
				t.Fatalf("window %d: slot %d in the group table but no supergroup's", o.windowIdx, g)
			}
			if h := tuple.HashValues(o.store.keyVals(g, nil)); o.store.hash[g] != h || e.hash != uint32(h) {
				t.Fatalf("window %d: slot %d under hash %x, its key %s hashes to %x", o.windowIdx, g, e.hash,
					o.store.key(g), tuple.HashValues(o.store.keyVals(g, nil)))
			}
			if got := lookupKey(&o.groups, &o.store, o.store.keyVals(g, nil)); got != g {
				t.Fatalf("window %d: probing for slot %d's key %s finds slot %d", o.windowIdx, g, o.store.key(g), got)
			}
			inTable++
		}
		if inTable != len(walk) || o.groups.len() != len(walk) {
			t.Fatalf("window %d: %d groups in the table (len %d), %d in the supergroups",
				o.windowIdx, inTable, o.groups.len(), len(walk))
		}
		for _, g := range o.store.free {
			if resident[g] {
				t.Fatalf("window %d: freed slot %d is resident", o.windowIdx, g)
			}
			resident[g] = true
		}
		if len(resident) != int(o.store.next) {
			t.Fatalf("window %d: %d resident or freed slots, store cursor at %d", o.windowIdx, len(resident), o.store.next)
		}
		for g := range resident {
			if g >= o.store.next {
				t.Fatalf("window %d: slot %d in use past the cursor %d", o.windowIdx, g, o.store.next)
			}
		}
		if len(o.sgList) > 1 {
			t.Fatalf("%d supergroups: the query has one a window", len(o.sgList))
		}
		if o.stats.GroupsEvicted != o.winBase.GroupsEvicted || len(walk) == 0 {
			return // the open window has evicted: reuse is out of slot order
		}
		ordered++
		for i, g := range walk {
			if g != int32(i) {
				t.Fatalf("window %d: group %d of the walk is slot %d", o.windowIdx, i, g)
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
	t.Logf("%+v; store %d slots; %d batches checked in slot order", st, len(opRef.store.hash), ordered)
	if st.Windows < 40 || st.Cleanings < 2*st.Windows {
		t.Fatalf("%d windows, %d cleanings: want ≥ 40 windows and several cleanings each", st.Windows, st.Cleanings)
	}
	if ordered < int(st.Windows) {
		t.Fatalf("only %d batches checked the slot order over %d windows", ordered, st.Windows)
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
	if len(opB.store.hash) != opB.groups.len() {
		t.Fatalf("restored store has %d slots for %d groups", len(opB.store.hash), opB.groups.len())
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

// TestGroupBytesPerResident bounds what one resident group of the ledger's
// subset-sum query (sample_walk's: N = 10 000, four GROUP BY items, one
// sum) occupies in the group store and table — groupBytes, what
// /debug/profile reports — at the batch with the most groups resident,
// over four one-second windows of the ledger's feed.
func TestGroupBytesPerResident(t *testing.T) {
	const bound = 112 // bytes a resident group
	q, err := gsql.Parse(`
SELECT tb, uts, srcIP, destIP, UMAX(sum(len), ssthreshold()) AS adjlen
FROM PKT
WHERE ssample(len, 10000, 2, 10) = TRUE
GROUP BY time/1 AS tb, srcIP, destIP, uts
HAVING ssfinal_clean(sum(len), count_distinct$(*)) = TRUE
CLEANING WHEN ssdo_clean(count_distinct$(*)) = TRUE
CLEANING BY ssclean_with(sum(len)) = TRUE`)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := gsql.Analyze(q, trace.Schema(), sfunlib.Default(1))
	if err != nil {
		t.Fatal(err)
	}
	op, err := New(plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	feed, err := trace.NewSteady(trace.DefaultSteady(1, 4))
	if err != nil {
		t.Fatal(err)
	}
	b := tuple.NewBatch(trace.Schema(), 256)
	pkts := make([]trace.Packet, 0, 256)
	peak, bytes := 0, int64(0)
	for done := false; !done; {
		pkts = pkts[:0]
		for len(pkts) < cap(pkts) {
			p, ok := feed.Next()
			if done = !ok; done {
				break
			}
			pkts = append(pkts, p)
		}
		b.Reset()
		trace.AppendBatch(b, pkts)
		if err := op.ProcessBatch(b); err != nil {
			t.Fatal(err)
		}
		if n := op.groups.len(); n > peak {
			peak, bytes = n, op.groupBytes()
		}
	}
	per := float64(bytes) / float64(peak)
	t.Logf("%d bytes for %d resident groups: %.1f B a group", bytes, peak, per)
	if peak < 15000 || per > bound {
		t.Fatalf("%.1f bytes a group at %d resident, want at most %d at the CLEANING WHEN bound (~20 000)", per, peak, bound)
	}
}
