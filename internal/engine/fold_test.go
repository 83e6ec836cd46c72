package engine_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"streamop/internal/agg/aggref"
	"streamop/internal/checkpoint"
	"streamop/internal/engine"
	"streamop/internal/gsql"
	"streamop/internal/trace"
	"streamop/internal/tuple"
	"streamop/internal/value"
	"streamop/internal/xrand"
)

// The partial-aggregation fold's reference test: a partial node fed one
// popped batch at a time (HopBatch), at batch sizes that split windows at
// every offset, is held to foldRef — a slice of slots folded row by row
// through the plan's closures — on the rows it emits, Evictions, the error
// and the input position it surfaced at, and the table's snapshot bytes.

// foldSizes are the batch sizes each fold test drives the node at.
var foldSizes = []int{1, 3, 7, 64, 512}

// foldQueries cover the fold's GROUP BY fronts.
var foldQueries = []struct{ name, src string }{
	// Kernels, Uint ordered column: the raw-word window check.
	{"plain", `SELECT tb, srcIP, sum(len), count(*), max(len) FROM PKT GROUP BY time/1 as tb, srcIP`},
	// A Float ordered column: the raw-word check must stand aside.
	{"float_window", `SELECT tb, srcIP, count(*), sum(len) FROM PKT GROUP BY (time/1)*1.5 as tb, srcIP`},
	// Every batch in closure mode: the kernel evaluates the OR whole and
	// divides by zero, the closure short-circuits.
	{"closure_group_by", `SELECT tb, big, srcIP, count(*) FROM PKT GROUP BY time/1 as tb, (len > 0 OR len/(len-len) = 1) as big, srcIP`},
	// A GROUP BY item that errs at the row whose len is 100.
	{"group_by_errs", `SELECT tb, x, count(*) FROM PKT GROUP BY time/1 as tb, 1000/(len-100) as x`},
	// An aggregate argument that errs at the row whose len is 100.
	{"agg_arg_errs", `SELECT tb, srcIP, sum(1000/(len-100)) FROM PKT GROUP BY time/1 as tb, srcIP`},
	// SELECT items computed from a group-by variable and from aggregates.
	{"computed", `SELECT tb, srcIP % 7 AS m, sum(len)/count(*) AS avg, count(*) FROM PKT GROUP BY time/1 as tb, srcIP`},
	// A computed SELECT item that errs at every group of count 3, at a
	// collision eviction or a window flush (TestPartialFoldSelectErrs).
	{"select_errs", `SELECT tb, srcIP, 1000/(count(*)-3) AS x FROM PKT GROUP BY time/1 as tb, srcIP`},
}

// refSlot is one slot of the reference table. Its aggregates are package
// aggref's row forms, not the columns the table keeps.
type refSlot struct {
	used bool
	hash uint64
	key  []value.Value
	aggs refAggs
}

// refAggs are a slot's aggregates, read by index as gsql.Ctx.Aggs.
type refAggs []aggref.Agg

func (a refAggs) Agg(i int) value.Value { return a[i].Value() }

// foldRef is the direct-mapped partial aggregation of the paper's Fig. 1
// written out plainly: one row at a time, GROUP BY and aggregate arguments
// through the plan's closures, a window per run of equal ordered values.
type foldRef struct {
	plan      *gsql.Plan
	node      string
	slots     []refSlot
	mask      uint64
	open      bool
	window    []value.Value
	windows   int64
	evictions int64
	rows      []tuple.Tuple
	// failedIn names where a SELECT error arose: "eviction" or "flush".
	failedIn string
}

func newFoldRef(plan *gsql.Plan, node string, slots int) *foldRef {
	return &foldRef{plan: plan, node: node, slots: make([]refSlot, slots), mask: uint64(slots - 1)}
}

func (r *foldRef) fail(format string, args ...any) error {
	return fmt.Errorf("engine: node %q: %s", r.node, fmt.Sprintf(format, args...))
}

// offer folds one packet row.
func (r *foldRef) offer(row tuple.Tuple) error {
	ctx := gsql.Ctx{Tuple: row}
	vals := make([]value.Value, len(r.plan.GroupBy))
	for i, gb := range r.plan.GroupBy {
		v, err := gb(&ctx)
		if err != nil {
			return r.fail("group-by: %v", err)
		}
		vals[i] = v
	}
	ord := make([]value.Value, len(r.plan.OrderedIdx))
	for i, idx := range r.plan.OrderedIdx {
		ord[i] = vals[idx]
	}
	if r.open && !equalVals(ord, r.window) {
		if err := r.flush(); err != nil {
			return err
		}
	}
	if !r.open {
		r.open = true
		r.window = append(r.window[:0], ord...)
	}
	h := tuple.HashValues(vals)
	slot := &r.slots[h&r.mask]
	if slot.used && (slot.hash != h || !equalVals(slot.key, vals)) {
		if err := r.emit(slot); err != nil {
			r.failedIn = "eviction"
			return err
		}
		slot.used = false
		r.evictions++
	}
	if !slot.used {
		slot.used, slot.hash, slot.key = true, h, vals
		slot.aggs = make(refAggs, len(r.plan.Aggs))
		for i, def := range r.plan.Aggs {
			a, ok := aggref.New(def.Name)
			if !ok {
				return r.fail("%s: no reference aggregate", def.Display)
			}
			slot.aggs[i] = a
		}
	}
	ctx = gsql.Ctx{Tuple: row, GroupVals: vals}
	for i, def := range r.plan.Aggs {
		var av value.Value
		if def.Arg != nil {
			var err error
			if av, err = def.Arg(&ctx); err != nil {
				return r.fail("%s argument: %v", def.Display, err)
			}
		}
		slot.aggs[i].Update(av)
	}
	return nil
}

// emit evaluates the SELECT list over one resident group.
func (r *foldRef) emit(slot *refSlot) error {
	ctx := gsql.Ctx{GroupVals: slot.key, Aggs: slot.aggs}
	out := make(tuple.Tuple, len(r.plan.SelectExprs))
	for i, sel := range r.plan.SelectExprs {
		v, err := sel(&ctx)
		if err != nil {
			return r.fail("SELECT %s: %v", r.plan.SelectNames[i], err)
		}
		out[i] = v
	}
	r.rows = append(r.rows, out)
	return nil
}

// flush closes the open window: every resident group, in slot order.
func (r *foldRef) flush() error {
	for i := range r.slots {
		if r.slots[i].used {
			if err := r.emit(&r.slots[i]); err != nil {
				r.failedIn = "flush"
				return err
			}
			r.slots[i].used = false
		}
	}
	if r.open {
		r.open = false
		r.windows++
	}
	return nil
}

// snapshot encodes the reference table as a partial node's snapshot.
func (r *foldRef) snapshot(t *testing.T) []byte {
	t.Helper()
	e := checkpoint.NewEncoder()
	e.Bool(r.open)
	e.Values(r.window)
	e.I64(r.windows)
	e.I64(r.evictions)
	residents := 0
	for i := range r.slots {
		if r.slots[i].used {
			residents++
		}
	}
	e.Len(residents)
	for i := range r.slots {
		if s := &r.slots[i]; s.used {
			e.U64(s.hash & r.mask)
			e.Values(s.key)
			for _, a := range s.aggs {
				a.Encode(e)
			}
		}
	}
	return e.Bytes()
}

func equalVals(a, b []value.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !value.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// foldResult is what one side of the comparison observed: the rows, the
// evictions, the error and the input position of the batch it surfaced at
// (the flush's is len(pkts)), and the snapshot taken after the last packet
// (or the error), before the end-of-stream flush.
type foldResult struct {
	rows      []tuple.Tuple
	evictions int64
	err       error
	at        int
	snap      []byte
	failedIn  string // the reference's only (foldRef.failedIn)
}

func runFoldRef(t *testing.T, plan *gsql.Plan, slots int, pkts []trace.Packet) foldResult {
	t.Helper()
	ref := newFoldRef(plan, "fold", slots)
	res := foldResult{at: len(pkts)}
	for i, p := range pkts {
		if res.err = ref.offer(p.Tuple()); res.err != nil {
			res.at = i
			break
		}
	}
	res.snap = ref.snapshot(t)
	if res.err == nil {
		res.err = ref.flush()
	}
	res.rows, res.evictions, res.failedIn = ref.rows, ref.evictions, ref.failedIn
	return res
}

// runFold drives a partial node of slots slots over pkts in batches of
// size, until one errs; then snapshots it and, if none erred, flushes it
// with a Run over an empty feed.
func runFold(t *testing.T, src string, slots int, pkts []trace.Packet, size int) foldResult {
	t.Helper()
	e, err := engine.New(4096)
	if err != nil {
		t.Fatal(err)
	}
	node, err := e.AddLowLevelPartialAgg("fold", mustPlan(t, src, trace.Schema()), slots)
	if err != nil {
		t.Fatal(err)
	}
	var res foldResult
	node.Subscribe(func(row tuple.Tuple) error {
		res.rows = append(res.rows, row.Clone())
		return nil
	})
	res.at = len(pkts)
	for off := 0; off < len(pkts); off += size {
		if res.err = e.HopBatch(pkts[off:min(off+size, len(pkts))]); res.err != nil {
			res.at = off
			break
		}
	}
	if res.snap, err = node.OperatorSnapshot(); err != nil {
		t.Fatal(err)
	}
	if res.err == nil {
		res.err = e.Run(sliceFeed(nil))
	}
	res.evictions = node.Evictions()
	return res
}

// checkFold holds a partial node at every batch size to the reference,
// and returns the reference's run.
func checkFold(t *testing.T, src string, slots int, pkts []trace.Packet, sizes []int) foldResult {
	t.Helper()
	want := runFoldRef(t, mustPlan(t, src, trace.Schema()), slots, pkts)
	for _, size := range sizes {
		got := runFold(t, src, slots, pkts, size)
		label := fmt.Sprintf("size %d", size)
		if fmt.Sprint(got.err) != fmt.Sprint(want.err) {
			t.Fatalf("%s: err = %v, want %v", label, got.err, want.err)
		}
		if want.err != nil && (want.at < got.at || want.at >= got.at+size) {
			t.Fatalf("%s: error at input %d, reference's at %d", label, got.at, want.at)
		}
		if got.evictions != want.evictions {
			t.Fatalf("%s: %d evictions, want %d", label, got.evictions, want.evictions)
		}
		if len(got.rows) != len(want.rows) {
			t.Fatalf("%s: %d rows, want %d", label, len(got.rows), len(want.rows))
		}
		for i := range want.rows {
			for j, v := range want.rows[i] {
				if g := got.rows[i][j]; g.Kind() != v.Kind() || g.Bits() != v.Bits() {
					t.Fatalf("%s: row %d field %d = %v (%v), want %v (%v)", label, i, j, g, g.Kind(), v, v.Kind())
				}
			}
		}
		if !bytes.Equal(got.snap, want.snap) {
			t.Fatalf("%s: snapshot differs from the reference's", label)
		}
	}
	return want
}

// foldPackets builds count packets over seconds seconds from srcs sources,
// their lengths 40..1439 except the poison length 100 at index poison (no
// poison when it is negative).
func foldPackets(count, seconds, srcs int, seed uint64, poison int) []trace.Packet {
	r := xrand.New(seed)
	pkts := make([]trace.Packet, count)
	for i := range pkts {
		l := 40 + r.Intn(1400)
		if l == 100 {
			l = 101
		}
		if i == poison {
			l = 100
		}
		pkts[i] = trace.Packet{
			Time:  uint64(i) * uint64(seconds) * 1e9 / uint64(count),
			SrcIP: 0x0a000000 + uint32(r.Intn(srcs)),
			Len:   uint16(l),
		}
	}
	return pkts
}

// TestPartialFoldMatchesReference: 16 slots under 40 sources collide, so
// the fold evicts as well as flushes, over windows straddling batches.
func TestPartialFoldMatchesReference(t *testing.T) {
	for _, q := range foldQueries {
		t.Run(q.name, func(t *testing.T) {
			want := checkFold(t, q.src, 16, foldPackets(3000, 11, 40, 7, 1777), foldSizes)
			if errs := strings.HasSuffix(q.name, "_errs"); errs != (want.err != nil) {
				t.Fatalf("reference error %v", want.err)
			}
			if want.evictions == 0 || len(want.rows) == 0 {
				t.Fatalf("reference: %d evictions, %d rows: the test does not bite", want.evictions, len(want.rows))
			}
		})
	}
}

// FuzzFold holds the fold, at the batch size and table size the input
// names, to the reference over packets decoded from the input: its first
// byte picks the query, its second the batch size, its third the table
// size, and every four bytes after them make a packet.
func FuzzFold(f *testing.F) {
	for q := range foldQueries {
		f.Add([]byte{byte(q), 6, 2, 0, 1, 2, 3, 1, 4, 7, 0, 2, 0, 10, 1, 0, 7, 3, 2, 1, 2, 5, 1, 9, 0, 2, 5, 4, 1, 0, 0, 60, 3})
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		src, size, slots := foldQueries[int(data[0])%len(foldQueries)].src, 1+int(data[1])%70, 1<<(data[2]%6)
		var pkts []trace.Packet
		var ts uint64
		for b := data[3:]; len(b) >= 4 && len(pkts) < 400; b = b[4:] {
			if b[0]%8 == 0 {
				ts += 1e9
			}
			pkts = append(pkts, trace.Packet{
				Time:  ts,
				SrcIP: uint32(b[1] % 8),
				Len:   uint16(b[2]) * 4,
				Proto: b[3],
			})
		}
		checkFold(t, src, slots, pkts, []int{size})
	})
}

// TestPartialFoldSelectErrs: a computed SELECT item that errs stops the
// output mid-run at a collision eviction (16 slots under 40 sources) and
// at a window flush (4 096 slots, no eviction), rows before it output, and
// the node stops where the reference does.
func TestPartialFoldSelectErrs(t *testing.T) {
	src := foldQueries[len(foldQueries)-1].src
	for _, c := range []struct {
		slots    int
		pkts     []trace.Packet
		failedIn string
	}{
		{16, foldPackets(3000, 11, 40, 7, -1), "eviction"},
		{4096, foldPackets(400, 4, 40, 7, -1), "flush"},
	} {
		t.Run(c.failedIn, func(t *testing.T) {
			want := checkFold(t, src, c.slots, c.pkts, foldSizes)
			if want.err == nil || want.failedIn != c.failedIn || len(want.rows) == 0 {
				t.Fatalf("reference: error %v at the %s after %d rows; want one at the %s after some rows", want.err, want.failedIn, len(want.rows), c.failedIn)
			}
		})
	}
}

// TestPartialRestoreRefusesRepeatedSlot: a snapshot is input from outside
// the program, and one that lists a resident slot twice is refused: the
// table would count two residents in one slot, and never return to none.
func TestPartialRestoreRefusesRepeatedSlot(t *testing.T) {
	src := foldQueries[0].src
	ref := newFoldRef(mustPlan(t, src, trace.Schema()), "fold", 16)
	if err := ref.offer(foldPackets(1, 1, 1, 7, -1)[0].Tuple()); err != nil {
		t.Fatal(err)
	}
	once := ref.snapshot(t)
	// The payload: a header, the resident count, then each slot's record.
	head := checkpoint.NewEncoder()
	head.Bool(ref.open)
	head.Values(ref.window)
	head.I64(ref.windows)
	head.I64(ref.evictions)
	count := func(n int) []byte {
		e := checkpoint.NewEncoder()
		e.Len(n)
		return e.Bytes()
	}
	prefix := append(head.Bytes(), count(1)...)
	if !bytes.HasPrefix(once, prefix) {
		t.Fatal("the reference's payload does not open with its header and a count of one")
	}
	rec := once[len(prefix):]
	twice := append(append(append(head.Bytes(), count(2)...), rec...), rec...)

	restore := func(payload []byte) error {
		e, err := engine.New(64)
		if err != nil {
			t.Fatal(err)
		}
		node, err := e.AddLowLevelPartialAgg("fold", mustPlan(t, src, trace.Schema()), 16)
		if err != nil {
			t.Fatal(err)
		}
		return node.OperatorRestore(payload)
	}
	if err := restore(once); err != nil {
		t.Fatalf("restoring the one-slot payload: %v", err)
	}
	if err := restore(twice); err == nil || !strings.Contains(err.Error(), "twice") {
		t.Fatalf("restoring a payload that lists slot %d twice: err = %v, want it refused", ref.slotOf(t), err)
	}
}

// slotOf returns the one resident slot of the reference.
func (r *foldRef) slotOf(t *testing.T) int {
	t.Helper()
	for i := range r.slots {
		if r.slots[i].used {
			return i
		}
	}
	t.Fatal("no resident slot")
	return -1
}
