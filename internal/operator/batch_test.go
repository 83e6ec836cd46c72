package operator_test

import (
	"bytes"
	"fmt"
	"testing"

	"streamop/internal/checkpoint"
	"streamop/internal/gsql"
	"streamop/internal/operator"
	"streamop/internal/sfun"
	"streamop/internal/sfunlib"
	"streamop/internal/trace"
	"streamop/internal/tracing"
	"streamop/internal/tuple"
	"streamop/internal/value"
	"streamop/internal/xrand"
)

// The walk's equivalence tests hold ProcessBatch at batch sizes that
// split windows at every offset, and Process per row, to the oracle
// (oracle_test.go): the same rows in the same order (bit-identical
// values), the same stats, the same errors at the same input positions.

// compilePlan compiles src against schema with registry reg.
func compilePlan(t *testing.T, src string, schema *tuple.Schema, reg *sfun.Registry) *gsql.Plan {
	t.Helper()
	q, err := gsql.Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	plan, err := gsql.Analyze(q, schema, reg)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	return plan
}

// newEquivOp compiles src against schema with a fresh seeded registry and
// returns the operator plus its output sink.
func newEquivOp(t *testing.T, src string, schema *tuple.Schema, seed uint64) (*operator.Operator, *[]tuple.Tuple) {
	t.Helper()
	return sinkOp(t, src, schema, sfunlib.Default(seed), false)
}

// walkSizes are the batch sizes each oracle test drives ProcessBatch at;
// 0 stands for Process per row.
var walkSizes = []int{0, 1, 3, 7, 64, 512}

// runSubject drives op over rows — Process per row when size is 0, else
// ProcessBatch over batches of size rows, each followed by an empty batch
// (a no-op) — until one errs, and then flushes if flush and none did. It
// returns the input position of the row (the batch, the flush) the error
// surfaced at, and the error.
func runSubject(op *operator.Operator, schema *tuple.Schema, rows []tuple.Tuple, size int, flush bool) (int, error) {
	b := tuple.NewBatch(schema, size)
	step := max(size, 1)
	for off := 0; off < len(rows); off += step {
		var err error
		if size == 0 {
			err = op.Process(rows[off])
		} else {
			b.Reset()
			for _, row := range rows[off:min(off+size, len(rows))] {
				b.AppendRow(row)
			}
			if err = op.ProcessBatch(b); err == nil {
				b.Reset()
				err = op.ProcessBatch(b)
			}
		}
		if err != nil {
			return off, err
		}
	}
	if flush {
		return len(rows), op.Flush()
	}
	return len(rows), nil
}

// checkWalk runs rows through the oracle and through every subject —
// each of walkSizes, with the output leaving through the row callback and,
// if sinks, through a column sink too — and holds each subject to the
// oracle: rows, Stats, error and its position. With sameState, every
// subject must also end in the same snapshot (a semi-stateful WHERE that
// ran ahead of a failing SELECT kernel leaves its function state ahead of
// the rows, batch by batch).
func checkWalk(t *testing.T, src string, schema *tuple.Schema, reg func() *sfun.Registry, rows []tuple.Tuple, flush, sinks, sameState bool) {
	t.Helper()
	want := runOracle(compilePlan(t, src, schema, reg()), rows, flush)
	var firstSnap []byte
	for _, size := range walkSizes {
		for _, sink := range []bool{false, true} {
			if sink && !sinks {
				continue
			}
			label := fmt.Sprintf("size %d sink %v", size, sink)
			op, out := sinkOp(t, src, schema, reg(), sink)
			requireOracle(t, label, op, schema, rows, size, flush, out, want)
			snap := opSnapshot(t, op)
			if firstSnap == nil {
				firstSnap = snap
			} else if sameState && !bytes.Equal(snap, firstSnap) {
				t.Fatalf("%s: snapshot differs from Process's", label)
			}
		}
	}
}

// requireOracle runs rows through op at size (see runSubject) and holds
// the run to the oracle's: the output rows collected in out, the Stats,
// the error and the input position it surfaced at.
func requireOracle(t *testing.T, label string, op *operator.Operator, schema *tuple.Schema, rows []tuple.Tuple, size int, flush bool, out *[]tuple.Tuple, want oracleResult) {
	t.Helper()
	at, err := runSubject(op, schema, rows, size, flush)
	requireResult(t, label, op, at, err, size, out, want)
}

// requireResult holds a subject's run — the input position its error
// surfaced at, the error, its rows and Stats — to the oracle's.
func requireResult(t *testing.T, label string, op *operator.Operator, at int, err error, size int, out *[]tuple.Tuple, want oracleResult) {
	t.Helper()
	if fmt.Sprint(err) != fmt.Sprint(want.err) {
		t.Fatalf("%s: err = %v, want %v", label, err, want.err)
	}
	if err != nil && (want.at < at || want.at >= at+max(size, 1)) {
		t.Fatalf("%s: error at input %d, oracle's at %d", label, at, want.at)
	}
	requireIdenticalRows(t, label, *out, want.rows)
	if got := op.Stats(); got != want.stats {
		t.Fatalf("%s: stats = %+v, want %+v", label, got, want.stats)
	}
}

// pktRows returns pkts as tuples.
func pktRows(pkts []trace.Packet) []tuple.Tuple {
	rows := make([]tuple.Tuple, len(pkts))
	for i, p := range pkts {
		rows[i] = p.Tuple()
	}
	return rows
}

func seeded(seed uint64) func() *sfun.Registry {
	return func() *sfun.Registry { return sfunlib.Default(seed) }
}

// identicalValue is bit-exact equality: same kind, same payload word,
// same string — stricter than value.Equal (no cross-kind coercion).
func identicalValue(a, b value.Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	if a.Kind() == value.String {
		return a.Str() == b.Str()
	}
	return a.Bits() == b.Bits()
}

func requireIdenticalRows(t *testing.T, label string, got, want []tuple.Tuple) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", label, len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("%s: row %d has %d fields, want %d", label, i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if !identicalValue(got[i][j], want[i][j]) {
				t.Fatalf("%s: row %d field %d = %v (%v), want %v (%v)",
					label, i, j, got[i][j], got[i][j].Kind(), want[i][j], want[i][j].Kind())
			}
		}
	}
}

func feedScalar(t *testing.T, op *operator.Operator, pkts []trace.Packet) {
	t.Helper()
	buf := make(tuple.Tuple, trace.NumFields)
	for _, p := range pkts {
		p.AppendTuple(buf)
		if err := op.Process(buf); err != nil {
			t.Fatalf("Process: %v", err)
		}
	}
}

// feedBatches chunks pkts into batches of the given size, interleaving an
// empty batch after each one (which must be a no-op).
func feedBatches(t *testing.T, op *operator.Operator, pkts []trace.Packet, size int) {
	t.Helper()
	b := tuple.NewBatch(trace.Schema(), size)
	for off := 0; off < len(pkts); off += size {
		end := off + size
		if end > len(pkts) {
			end = len(pkts)
		}
		b.Reset()
		trace.AppendBatch(b, pkts[off:end])
		if err := op.ProcessBatch(b); err != nil {
			t.Fatalf("ProcessBatch: %v", err)
		}
		b.Reset()
		if err := op.ProcessBatch(b); err != nil {
			t.Fatalf("ProcessBatch(empty): %v", err)
		}
	}
}

// equivPackets builds a stream with varied lengths, several sources and
// window boundaries that land mid-batch for every tested batch size.
func equivPackets(count int, seconds uint64, srcs int, seed uint64) []trace.Packet {
	r := xrand.New(seed)
	out := make([]trace.Packet, count)
	for i := range out {
		out[i] = trace.Packet{
			Time:    uint64(i) * seconds * 1e9 / uint64(count),
			SrcIP:   0x0a000000 + uint32(r.Intn(srcs)),
			DstIP:   0xac100000 + uint32(r.Intn(srcs*7)),
			SrcPort: uint16(1024 + r.Intn(64)),
			DstPort: 443,
			Proto:   6,
			Len:     uint16(40 + r.Intn(1400)),
		}
	}
	return out
}

func TestProcessBatchEquivalence(t *testing.T) {
	queries := []struct {
		name string
		src  string
	}{
		// Vectorized end to end, multiple windows straddling batches.
		{"plain_agg", `
SELECT tb, srcIP, sum(len), count(*)
FROM PKT
GROUP BY time/7 as tb, srcIP`},
		// Stateless WHERE with arithmetic, comparison and logic kernels.
		{"where_stateless", `
SELECT tb, srcIP, sum(len), count(*)
FROM PKT
WHERE len*2 > 900 AND NOT (srcIP = 167772160)
GROUP BY time/7 as tb, srcIP`},
		// Stateless WHERE under SUPERGROUP BY: a rejected row still
		// creates its supergroup, which fixes the order of the sample.
		{"where_supergroups", `
SELECT tb, srcIP, sum(len), count(*)
FROM PKT
WHERE len > 700
GROUP BY time/7 as tb, srcIP
SUPERGROUP BY tb, srcIP`},
		// WHERE rejecting every row: windows must still open and flush.
		{"where_none_pass", `
SELECT tb, srcIP, count(*)
FROM PKT
WHERE len > 100000
GROUP BY time/7 as tb, srcIP`},
		// Semi-stateful WHERE (VecCall), stateful cleaning cascade,
		// HAVING with superaggregates: the paper's subset-sum query.
		{"subset_sum", subsetSumQuery},
		// Non-vectorizable WHERE (reads a superaggregate per row) with
		// SUPERGROUP BY: every batch in closure mode.
		{"priority_minhash", `
SELECT tb, srcIP, HX
FROM PKT
WHERE HX <= Kth_smallest_value$(HX, 16)
GROUP BY time/7 as tb, srcIP, H(destIP) as HX
SUPERGROUP BY tb, srcIP
HAVING HX <= Kth_smallest_value$(HX, 16)
CLEANING WHEN count_distinct$(*) >= 16
CLEANING BY HX <= Kth_smallest_value$(HX, 16)`},
		// No per-row stateful step: rows move in runs, keys repeating
		// within one, and the flush gathers the SELECT list. gsqd's tap:
		{"tap_runs", `
SELECT tb, srcIP, destIP, sum(len) AS bytes, count(*) AS cnt
FROM PKT
GROUP BY time/1 AS tb, srcIP, destIP`},
		// Every built-in aggregate over an Int and a Float argument: the
		// typed scatters and the Update fallback.
		{"every_agg_runs", `
SELECT tb, srcIP, sum(len - 700), avg(len - 700), var(len - 700), stddev(len - 700),
       min(len - 700), max(len - 700), first(len - 700), last(len - 700), count(len - 700),
       sum(len * 0.5), avg(len * 0.5), var(len * 0.5), stddev(len * 0.5),
       min(len * 0.5), max(len * 0.5), first(len * 0.5), last(len * 0.5), count(len * 0.5), count(*)
FROM PKT
WHERE len > 300
GROUP BY time/1 AS tb, srcIP`},
		// Bare references gathered beside computed items that run their
		// closures per group, after a HAVING.
		{"select_mixed", `
SELECT sum(len) / count(*) AS mean, tb, srcIP * 2 AS s2, destIP, count(*), srcIP, sum(len)
FROM PKT
GROUP BY time/1 AS tb, srcIP, destIP
HAVING count(*) > 1`},
		// A computed item that errs at a group mid-flush (window 24's
		// fifth group counts 16 rows): the rows before it go out, the
		// error surfaces at the flush's row.
		{"select_errs", `
SELECT tb, srcIP, sum(len) / (count(*) - 16), count(*)
FROM PKT
GROUP BY time/1 AS tb, srcIP`},
		// HAVING errs at that group, after four that passed and wait to
		// be gathered: they go out before the error.
		{"having_errs", `
SELECT tb, srcIP, count(*)
FROM PKT
GROUP BY time/1 AS tb, srcIP
HAVING sum(len) / (count(*) - 16) > 0`},
		// Both: a computed item errs at a passed group that waits to be
		// gathered (window 5's fourth, 38 rows) when HAVING errs at the
		// next (20 rows); the item's error comes first.
		{"having_errs_after_select", `
SELECT tb, srcIP, sum(len) / (count(*) - 38), count(*)
FROM PKT
GROUP BY time/1 AS tb, srcIP
HAVING sum(len) / (count(*) - 20) > 0`},
		// The ledger's query at a sample size this stream overflows: a
		// stateful item beside bare references, after a HAVING call that
		// moves the threshold it reads from group to group.
		{"ledger_subset_sum", `
SELECT tb, uts, srcIP, destIP, UMAX(sum(len), ssthreshold()) AS adjlen
FROM PKT
WHERE ssample(len, 40, 2, 10) = TRUE
GROUP BY time/1 AS tb, srcIP, destIP, uts
HAVING ssfinal_clean(sum(len), count_distinct$(*)) = TRUE
CLEANING WHEN ssdo_clean(count_distinct$(*)) = TRUE
CLEANING BY ssclean_with(sum(len)) = TRUE`},
		// HAVING's call moves the state the SELECT item reads at every
		// group (local_count counts its calls, current_bucket reads the
		// count): a passing group's row holds the bucket as of its own
		// verdict, as a scan over a run of groups and as the closure.
		{"select_reads_having_state", `
SELECT tb, srcIP, current_bucket() AS b, destIP, count(*)
FROM PKT
GROUP BY time/1 AS tb, srcIP, destIP
HAVING local_count(2) = TRUE`},
		{"select_reads_having_closure_state", `
SELECT current_bucket() AS b, tb, srcIP, destIP, count(*)
FROM PKT
GROUP BY time/1 AS tb, srcIP, destIP
HAVING local_count(2) = TRUE OR count(*) > 3`},
		// A stateful item that reads a group-by variable, behind a HAVING
		// call that does not: the flush still builds the group's key.
		{"stateful_reads_key", `
SELECT tb, srcIP + ssthreshold() AS s, count(*)
FROM PKT
WHERE ssample(len, 40, 2, 10) = TRUE
GROUP BY time/1 AS tb, srcIP, destIP
HAVING ssfinal_clean(sum(len), count_distinct$(*)) = TRUE
CLEANING WHEN ssdo_clean(count_distinct$(*)) = TRUE
CLEANING BY ssclean_with(sum(len)) = TRUE`},
		// A stateful item that errs at window 24's fifth group (16 rows),
		// after four that passed and wait for their references: they go
		// out, then the error.
		{"stateful_select_errs", `
SELECT tb, srcIP, UMAX(sum(len) / (count(*) - 16), ssthreshold()), count(*)
FROM PKT
GROUP BY time/1 AS tb, srcIP`},
		// An estimating plan: bare references, computed items (a stateful
		// one among them) and the estimator columns, output once every
		// supergroup's HAVING has settled the window's estimators.
		{"estimate", `
SELECT tb, srcIP, ESTIMATE sum(len) WITH ERROR AS vol, count(*), srcIP * 2 AS s2, UMAX(sum(len), ssthreshold()) AS adj
FROM PKT
WHERE ssample(len, 40, 2, 10) = TRUE
GROUP BY time/1 AS tb, srcIP, destIP
HAVING ssfinal_clean(sum(len), count_distinct$(*)) = TRUE
CLEANING WHEN ssdo_clean(count_distinct$(*)) = TRUE
CLEANING BY ssclean_with(sum(len)) = TRUE`},
	}
	rows := pktRows(equivPackets(5000, 35, 5, 42))
	traced := make([]bool, len(rows)) // every fifth row
	for i := range traced {
		traced[i] = i%5 == 0
	}
	for _, q := range queries {
		t.Run(q.name, func(t *testing.T) {
			checkWalk(t, q.src, trace.Schema(), seeded(9), rows, true, false, true)
			want := runOracle(compilePlan(t, q.src, trace.Schema(), seeded(9)()), rows, true)
			for _, size := range []int{7, 512} {
				op, out := newEquivOp(t, q.src, trace.Schema(), 9)
				at, err := runTraced(op, trace.Schema(), rows, traced, size)
				requireResult(t, fmt.Sprintf("size %d traced", size), op, at, err, size, out, want)
			}
		})
	}
}

// String group-by columns: batches carrying string payloads must group,
// hash and emit as the oracle does.
func TestProcessBatchStringColumns(t *testing.T) {
	schema := tuple.MustSchema("S",
		tuple.Field{Name: "ts", Kind: value.Uint, Ordering: tuple.Increasing},
		tuple.Field{Name: "tag", Kind: value.String},
		tuple.Field{Name: "n", Kind: value.Int},
	)
	src := `SELECT tb, tag, count(*), sum(n) FROM S GROUP BY ts/10 as tb, tag`
	tags := []string{"alpha", "beta", "gamma", ""}
	r := xrand.New(3)
	var rows []tuple.Tuple
	for i := 0; i < 1000; i++ {
		rows = append(rows, tuple.Tuple{
			value.NewUint(uint64(i / 20)),
			value.NewString(tags[r.Intn(len(tags))]),
			value.NewInt(int64(r.Intn(500))),
		})
	}
	checkWalk(t, src, schema, seeded(1), rows, true, false, true)
}

// A runtime error (integer division by zero in an aggregate argument)
// must surface at the oracle's row, with its message, after the same
// emissions: the kernel pass is mutation-free, so the failing batch runs
// in closure mode.
func TestProcessBatchErrorEquivalence(t *testing.T) {
	src := `SELECT tb, sum(1000/(len-100)) FROM PKT GROUP BY time/7 as tb`
	pkts := equivPackets(500, 21, 3, 8)
	for i := range pkts {
		if pkts[i].Len == 100 {
			pkts[i].Len = 101
		}
	}
	pkts[333].Len = 100 // the poison row

	checkWalk(t, src, trace.Schema(), seeded(1), pktRows(pkts), true, false, true)
}

// Mixing Process and ProcessBatch on one operator mid-window must equal
// the all-scalar run, and snapshots taken at the same stream position
// must be byte-identical — the batch path leaves no trace in state.
func TestProcessBatchMixedFeedAndSnapshot(t *testing.T) {
	pkts := equivPackets(4000, 28, 4, 77)
	for _, src := range []string{
		`SELECT tb, srcIP, sum(len), count(*) FROM PKT GROUP BY time/7 as tb, srcIP`,
		subsetSumQuery,
	} {
		refOp, refOut := newEquivOp(t, src, trace.Schema(), 5)
		feedScalar(t, refOp, pkts[:2500])
		refSnap := checkpoint.NewEncoder()
		if err := refOp.Snapshot(refSnap); err != nil {
			t.Fatalf("Snapshot: %v", err)
		}
		feedScalar(t, refOp, pkts[2500:])
		if err := refOp.Flush(); err != nil {
			t.Fatal(err)
		}

		op, out := newEquivOp(t, src, trace.Schema(), 5)
		feedScalar(t, op, pkts[:1000])          // scalar …
		feedBatches(t, op, pkts[1000:2500], 64) // … then batches to the same position
		snap := checkpoint.NewEncoder()
		if err := op.Snapshot(snap); err != nil {
			t.Fatalf("Snapshot: %v", err)
		}
		if !bytes.Equal(snap.Bytes(), refSnap.Bytes()) {
			t.Fatalf("snapshot bytes differ between scalar and batch feeding")
		}
		feedBatches(t, op, pkts[2500:], 31)
		if err := op.Flush(); err != nil {
			t.Fatal(err)
		}
		requireIdenticalRows(t, "mixed feed", *out, *refOut)
		if got, want := op.Stats(), refOp.Stats(); got != want {
			t.Fatalf("stats = %+v, want %+v", got, want)
		}
	}
}

// TestStringSumArgumentErrsAtItsRow offers a String, off the schema, to
// arguments that sum, avg and sum$ add up, in the middle of a batch: the
// walk errs at that row, in kernel mode and in closure mode (the WHERE
// kernel divides by zero where the closure's OR skips it), and what the
// rows before it, and the clauses before the argument, did stays in the
// window: count(*) counts the erring row of a sum, not that of a sum$.
func TestStringSumArgumentErrsAtItsRow(t *testing.T) {
	schema := tuple.MustSchema("S",
		tuple.Field{Name: "ts", Kind: value.Int, Ordering: tuple.Increasing},
		tuple.Field{Name: "x", Kind: value.Int},
	)
	rows := []tuple.Tuple{
		{value.NewInt(1), value.NewInt(1)},
		{value.NewInt(1), value.NewInt(2)},
		{value.NewInt(1), value.NewString("boom")},
		{value.NewInt(1), value.NewInt(4)},
	}
	for _, where := range []string{"", "WHERE ts >= 0 OR 1 / (ts - ts) > 0"} {
		for _, item := range []string{"sum(x)", "avg(x)", "sum$(x)"} {
			src := fmt.Sprintf("SELECT tb, count(*), %s FROM S %s GROUP BY ts/4 AS tb", item, where)
			op, out := sinkOp(t, src, schema, sfun.NewRegistry(), false)
			_, err := runSubject(op, schema, rows, len(rows), false)
			if want := fmt.Sprintf("operator: %s argument: String \"boom\" is not a number", item); fmt.Sprint(err) != want {
				t.Fatalf("%s: err = %v, want %s", src, err, want)
			}
			if st := op.Stats(); st.TuplesIn != 3 || st.TuplesAccepted != 3 {
				t.Fatalf("%s: stats %+v, want 3 tuples in and accepted", src, st)
			}
			if err := op.Flush(); err != nil {
				t.Fatal(err)
			}
			want := []tuple.Tuple{{value.NewInt(0), value.NewInt(3), value.NewInt(3)}}
			switch item {
			case "avg(x)":
				want[0][2] = value.NewFloat(1.5)
			case "sum$(x)":
				want[0][1], want[0][2] = value.NewInt(2), value.NewFloat(3)
			}
			requireIdenticalRows(t, src, *out, want)
		}
	}
}

// TestGatheredSelectStagesTracesAtTheirRows traces every row of a plan
// whose groups the flush outputs, with several supergroups sharing each
// output batch, and holds every trace the flush stages to the output row
// of its own group: the row's key is the traced row's, and each row holds
// as many traces as its group counted rows. The plans gather a SELECT
// list of bare references, evaluate a stateful item as each group passes,
// and buffer the groups for the window's estimators.
func TestGatheredSelectStagesTracesAtTheirRows(t *testing.T) {
	const sampling = `FROM PKT WHERE ssample(len, 8, 2, 10) = TRUE GROUP BY time/1 AS tb, srcIP, destIP SUPERGROUP BY tb, srcIP
	 HAVING ssfinal_clean(sum(len), count_distinct$(*)) = TRUE
	 CLEANING WHEN ssdo_clean(count_distinct$(*)) = TRUE CLEANING BY ssclean_with(sum(len)) = TRUE`
	for _, src := range []string{
		`SELECT tb, srcIP, destIP, count(*) FROM PKT GROUP BY time/1 AS tb, srcIP, destIP SUPERGROUP BY tb, srcIP`,
		`SELECT tb, srcIP, destIP, count(*), UMAX(sum(len), ssthreshold()) ` + sampling,
		`SELECT tb, srcIP, destIP, count(*), ESTIMATE sum(len) WITH ERROR AS vol, srcIP * 2 ` + sampling,
	} {
		op, err := operator.New(compilePlan(t, src, trace.Schema(), sfunlib.Default(1)), nil)
		if err != nil {
			t.Fatal(err)
		}
		tr := tracing.New(tracing.Config{Every: 1})
		op.SetTracer(tr, "walk")
		from := map[*tracing.TupleTrace]trace.Packet{}
		staged := 0
		op.SetColumnSink(func(cols []*tuple.Column) error {
			at := make([]int, cols[0].Len())
			for _, rt := range tr.TakeStaged() {
				for _, tt := range rt.TTs {
					p := from[tt]
					key := []value.Value{value.NewUint(p.Time / 1e9), value.NewUint(uint64(p.SrcIP)), value.NewUint(uint64(p.DstIP))}
					for c, want := range key {
						if got := cols[c].Value(rt.Row); !value.Equal(got, want) {
							t.Fatalf("%s: a trace of key %v staged at output row %d, column %d of which is %v", src, key, rt.Row, c, got)
						}
					}
					at[rt.Row]++
					staged++
				}
			}
			for row, n := range at {
				if cnt := cols[3].Value(row).Int(); int64(n) != cnt {
					t.Fatalf("%s: output row %d holds %d traces, its group counted %d rows", src, row, n, cnt)
				}
			}
			return nil
		})
		pkts := equivPackets(3000, 7, 5, 3)
		b := tuple.NewBatch(trace.Schema(), 64)
		for off := 0; off < len(pkts); off += 64 {
			b.Reset()
			var rts []tracing.RowTraces
			for i, p := range pkts[off:min(off+64, len(pkts))] {
				tt := tr.SourceOffer(tr.NextSeq())
				from[tt] = p
				rts = append(rts, tracing.RowTraces{Row: i, TTs: []*tracing.TupleTrace{tt}})
			}
			trace.AppendBatch(b, pkts[off:min(off+64, len(pkts))])
			tr.SetCurrent(rts)
			if err := op.ProcessBatch(b); err != nil {
				t.Fatal(err)
			}
		}
		if err := op.Flush(); err != nil {
			t.Fatal(err)
		}
		if st := op.Stats(); staged == 0 || st.GroupsEvicted == 0 && st.TuplesAccepted == st.TuplesIn && staged != len(pkts) {
			t.Fatalf("%s: %d traces staged of %d rows, stats %+v", src, staged, len(pkts), st)
		}
	}
}
