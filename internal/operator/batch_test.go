package operator_test

import (
	"bytes"
	"fmt"
	"testing"

	"streamop/internal/checkpoint"
	"streamop/internal/gsql"
	"streamop/internal/operator"
	"streamop/internal/sfunlib"
	"streamop/internal/trace"
	"streamop/internal/tuple"
	"streamop/internal/value"
	"streamop/internal/xrand"
)

// ProcessBatch must be row-for-row identical to Process: same rows in the
// same order (bit-identical values), same stats, same errors at the same
// positions. The tests here feed identical streams through both paths and
// compare exactly, across batch sizes that split windows at every offset.

// newEquivOp compiles src against schema with a fresh seeded registry and
// returns the operator plus its output sink.
func newEquivOp(t *testing.T, src string, schema *tuple.Schema, seed uint64) (*operator.Operator, *[]tuple.Tuple) {
	t.Helper()
	q, err := gsql.Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	plan, err := gsql.Analyze(q, schema, sfunlib.Default(seed))
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	out := &[]tuple.Tuple{}
	op, err := operator.New(plan, func(row tuple.Tuple) error {
		*out = append(*out, row.Clone())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return op, out
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
		// SUPERGROUP BY: exercises the whole-batch scalar fallback.
		{"priority_minhash", `
SELECT tb, srcIP, HX
FROM PKT
WHERE HX <= Kth_smallest_value$(HX, 16)
GROUP BY time/7 as tb, srcIP, H(destIP) as HX
SUPERGROUP BY tb, srcIP
HAVING HX <= Kth_smallest_value$(HX, 16)
CLEANING WHEN count_distinct$(*) >= 16
CLEANING BY HX <= Kth_smallest_value$(HX, 16)`},
	}
	sizes := []int{1, 3, 7, 64, 512}
	pkts := equivPackets(5000, 35, 5, 42)
	for _, q := range queries {
		t.Run(q.name, func(t *testing.T) {
			refOp, refOut := newEquivOp(t, q.src, trace.Schema(), 9)
			feedScalar(t, refOp, pkts)
			if err := refOp.Flush(); err != nil {
				t.Fatalf("Flush: %v", err)
			}
			for _, size := range sizes {
				op, out := newEquivOp(t, q.src, trace.Schema(), 9)
				feedBatches(t, op, pkts, size)
				if err := op.Flush(); err != nil {
					t.Fatalf("Flush: %v", err)
				}
				requireIdenticalRows(t, fmt.Sprintf("size %d", size), *out, *refOut)
				if got, want := op.Stats(), refOp.Stats(); got != want {
					t.Fatalf("size %d: stats = %+v, want %+v", size, got, want)
				}
			}
		})
	}
}

// String group-by columns: batches carrying string payloads must group,
// hash and emit identically to the scalar path.
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
	refOp, refOut := newEquivOp(t, src, schema, 1)
	for _, row := range rows {
		if err := refOp.Process(row); err != nil {
			t.Fatalf("Process: %v", err)
		}
	}
	if err := refOp.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, size := range []int{1, 13, 256} {
		op, out := newEquivOp(t, src, schema, 1)
		b := tuple.NewBatch(schema, size)
		for off := 0; off < len(rows); off += size {
			end := off + size
			if end > len(rows) {
				end = len(rows)
			}
			b.Reset()
			for _, row := range rows[off:end] {
				b.AppendRow(row)
			}
			if err := op.ProcessBatch(b); err != nil {
				t.Fatalf("ProcessBatch: %v", err)
			}
		}
		if err := op.Flush(); err != nil {
			t.Fatal(err)
		}
		requireIdenticalRows(t, fmt.Sprintf("size %d", size), *out, *refOut)
		if got, want := op.Stats(), refOp.Stats(); got != want {
			t.Fatalf("size %d: stats = %+v, want %+v", size, got, want)
		}
	}
}

// A runtime error (integer division by zero in an aggregate argument)
// must surface at the same row, with the same message, after the same
// emissions — the batch path's stateless pass is mutation-free, so it
// re-runs the failing batch through the scalar path.
func TestProcessBatchErrorEquivalence(t *testing.T) {
	src := `SELECT tb, sum(1000/(len-100)) FROM PKT GROUP BY time/7 as tb`
	pkts := equivPackets(500, 21, 3, 8)
	for i := range pkts {
		if pkts[i].Len == 100 {
			pkts[i].Len = 101
		}
	}
	pkts[333].Len = 100 // the poison row

	refOp, refOut := newEquivOp(t, src, trace.Schema(), 1)
	var refErr error
	buf := make(tuple.Tuple, trace.NumFields)
	for _, p := range pkts {
		p.AppendTuple(buf)
		if refErr = refOp.Process(buf); refErr != nil {
			break
		}
	}
	if refErr == nil {
		t.Fatal("scalar path did not error")
	}

	for _, size := range []int{1, 17, 128} {
		op, out := newEquivOp(t, src, trace.Schema(), 1)
		b := tuple.NewBatch(trace.Schema(), size)
		var gotErr error
		for off := 0; off < len(pkts) && gotErr == nil; off += size {
			end := off + size
			if end > len(pkts) {
				end = len(pkts)
			}
			b.Reset()
			trace.AppendBatch(b, pkts[off:end])
			gotErr = op.ProcessBatch(b)
		}
		if gotErr == nil {
			t.Fatalf("size %d: batch path did not error", size)
		}
		if gotErr.Error() != refErr.Error() {
			t.Fatalf("size %d: err = %q, want %q", size, gotErr, refErr)
		}
		requireIdenticalRows(t, fmt.Sprintf("size %d", size), *out, *refOut)
		if got, want := op.Stats(), refOp.Stats(); got != want {
			t.Fatalf("size %d: stats = %+v, want %+v", size, got, want)
		}
	}
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

// BenchmarkBatchVsScalarWhere prices the columnar path against the
// row-at-a-time path on the same stateless-WHERE grouping query — the
// micro-benchmark behind docs/PERFORMANCE.md's ablation table. Input
// conversion is prepaid on both sides (tuples for scalar, batches for
// batch), so the ratio isolates the per-row execution cost; ns/op is per
// input row.
func BenchmarkBatchVsScalarWhere(b *testing.B) {
	const src = `
SELECT tb, srcIP, sum(len) AS vol
FROM PKT
WHERE len*2 > 900 AND NOT (srcIP = 167772160)
GROUP BY time/5 as tb, srcIP`
	pkts := equivPackets(1<<14, 40, 32, 3)
	newOp := func(b *testing.B) *operator.Operator {
		q, err := gsql.Parse(src)
		if err != nil {
			b.Fatal(err)
		}
		plan, err := gsql.Analyze(q, trace.Schema(), sfunlib.Default(1))
		if err != nil {
			b.Fatal(err)
		}
		op, err := operator.New(plan, func(tuple.Tuple) error { return nil })
		if err != nil {
			b.Fatal(err)
		}
		return op
	}
	b.Run("scalar", func(b *testing.B) {
		op := newOp(b)
		rows := make([]tuple.Tuple, len(pkts))
		for i, p := range pkts {
			rows[i] = make(tuple.Tuple, trace.NumFields)
			p.AppendTuple(rows[i])
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := op.Process(rows[i%len(rows)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("batch", func(b *testing.B) {
		op := newOp(b)
		const rowsPer = tuple.DefaultBatchRows
		batches := make([]*tuple.Batch, len(pkts)/rowsPer)
		for i := range batches {
			batches[i] = tuple.NewBatch(trace.Schema(), rowsPer)
			trace.AppendBatch(batches[i], pkts[i*rowsPer:(i+1)*rowsPer])
		}
		b.ResetTimer()
		for i := 0; i < b.N; i += rowsPer {
			if err := op.ProcessBatch(batches[(i/rowsPer)%len(batches)]); err != nil {
				b.Fatal(err)
			}
		}
	})
}
