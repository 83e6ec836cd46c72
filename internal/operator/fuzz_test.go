package operator_test

import (
	"fmt"
	"testing"

	"streamop/internal/checkpoint"
	"streamop/internal/operator"
	"streamop/internal/sfunlib"
	"streamop/internal/tracing"
	"streamop/internal/tuple"
	"streamop/internal/value"
)

// fuzzSchema is FuzzWalk's stream: an ordered timestamp, a small integer,
// a column whose kind changes from row to row (Int, Uint, Float, String or
// NULL) and a string tag.
var fuzzSchema = tuple.MustSchema("S",
	tuple.Field{Name: "ts", Kind: value.Uint, Ordering: tuple.Increasing},
	tuple.Field{Name: "k", Kind: value.Int},
	tuple.Field{Name: "v"},
	tuple.Field{Name: "tag", Kind: value.String},
)

// fuzzQueries cover the walk's clause forms: a stateless WHERE over the
// mixed column, a semi-stateful WHERE with a cleaning cascade, a plan that
// does not vectorize, GROUP BY over the string and the mixed column (its
// aggregate argument errs once ts reaches 8), and selections with a
// stateful SELECT and a stateful WHERE.
var fuzzQueries = []string{
	`SELECT tb, k, count(*), sum(k) FROM S WHERE v > 3 OR k = 1 GROUP BY ts/4 AS tb, k`,
	`SELECT tb, k, tag, sum(k + 3) FROM S WHERE ssample(k + 3, 4, 2, 10) = TRUE GROUP BY ts/4 AS tb, k, tag
	 HAVING ssfinal_clean(sum(k + 3), count_distinct$(*)) = TRUE
	 CLEANING WHEN ssdo_clean(count_distinct$(*)) = TRUE CLEANING BY ssclean_with(sum(k + 3)) = TRUE`,
	`SELECT tb, k, HX FROM S WHERE HX <= Kth_smallest_value$(HX, 3) GROUP BY ts/4 AS tb, k, H(v) AS HX
	 SUPERGROUP BY tb, k HAVING HX <= Kth_smallest_value$(HX, 3)
	 CLEANING WHEN count_distinct$(*) >= 3 CLEANING BY HX <= Kth_smallest_value$(HX, 3)`,
	`SELECT tb, tag, v, count(*), max(k), sum(10 / ((ts + 1) % 9)) FROM S GROUP BY ts/4 AS tb, tag, v`,
	`SELECT ts, v, bssample(k + 3, 4) FROM S WHERE k > 0`,
	`SELECT ts, k * 2, v FROM S WHERE bssample(k + 3, 4) = TRUE`,
}

// fuzzRows decodes data: its first byte picks one of queries, its second
// the batch size, and every four bytes after them make a row.
func fuzzRows(data []byte, queries []string) (src string, size int, rows []tuple.Tuple) {
	if len(data) < 2 {
		return "", 0, nil
	}
	src, size = queries[int(data[0])%len(queries)], 1+int(data[1])%70
	tags := []string{"a", "bb", ""}
	var ts uint64
	for b := data[2:]; len(b) >= 4 && len(rows) < 400; b = b[4:] {
		if b[0]%8 == 0 {
			ts++
		}
		var v value.Value
		switch n := int64(b[2] / 5); b[2] % 5 {
		case 0:
			v = value.NewInt(n - 20)
		case 1:
			v = value.NewUint(uint64(n))
		case 2:
			v = value.NewFloat(float64(n) / 2)
		case 3:
			v = value.NewString(tags[n%3])
		}
		rows = append(rows, tuple.Tuple{value.NewUint(ts), value.NewInt(int64(b[1]%8) - 2), v, value.NewString(tags[b[3]%3])})
	}
	return src, size, rows
}

// fuzzTraced reports which of the rows data decodes to carry a trace: those
// whose fourth byte is 240 or more (the tag it picks is the byte mod 3).
func fuzzTraced(data []byte) (traced []bool, some bool) {
	for b := data[2:]; len(b) >= 4 && len(traced) < 400; b = b[4:] {
		traced = append(traced, b[3] >= 240)
		some = some || b[3] >= 240
	}
	return traced, some
}

// runTraced is runSubject, flushing, over batches of size rows with a
// tracer attached to op and one trace riding each row traced marks, as the
// engine hands a batch's traced rows to its step.
func runTraced(op *operator.Operator, schema *tuple.Schema, rows []tuple.Tuple, traced []bool, size int) (int, error) {
	tr := tracing.New(tracing.Config{Every: 1})
	op.SetTracer(tr, "walk")
	b := tuple.NewBatch(schema, size)
	for off := 0; off < len(rows); off += size {
		b.Reset()
		var rts []tracing.RowTraces
		for i, row := range rows[off:min(off+size, len(rows))] {
			b.AppendRow(row)
			if traced[off+i] {
				rts = append(rts, tracing.RowTraces{Row: i, TTs: []*tracing.TupleTrace{tr.SourceOffer(tr.NextSeq())}})
			}
		}
		tr.SetCurrent(rts)
		err := op.ProcessBatch(b)
		tr.TakeStaged()
		if err != nil {
			return off, err
		}
	}
	return len(rows), op.Flush()
}

// FuzzWalk holds ProcessBatch, at the batch size the input names, to the
// oracle over rows decoded from the input, untraced and, when the input
// marks rows traced, traced. The seeds after the first ones put window
// closes and traced rows inside runs of rows a stateful WHERE rejects: the
// walk's scan must stop at a close, and tell a traced row its verdict.
func FuzzWalk(f *testing.F) {
	for q := range fuzzQueries {
		f.Add([]byte{byte(q), 6, 0, 1, 2, 3, 1, 4, 7, 0, 2, 0, 10, 1, 0, 7, 3, 2, 1, 2, 5, 1, 9, 0, 2, 5, 4, 1})
	}
	for _, q := range []byte{1, 5} { // the stateful WHEREs: grouping, selection
		for _, size := range []byte{63, 22} {
			f.Add(runSeed(q, size))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		src, size, rows := fuzzRows(data, fuzzQueries)
		if rows == nil {
			return
		}
		want := runOracle(compilePlan(t, src, fuzzSchema, sfunlib.Default(1)), rows, true)
		op, out := newEquivOp(t, src, fuzzSchema, 1)
		requireOracle(t, src, op, fuzzSchema, rows, size, true, out, want)
		if traced, some := fuzzTraced(data); some {
			op, out := newEquivOp(t, src, fuzzSchema, 1)
			at, err := runTraced(op, fuzzSchema, rows, traced, size)
			requireResult(t, src+" (traced)", op, at, err, size, out, want)
		}
	})
}

// runSeed is a FuzzWalk input for query q at batch size size+1: 320 rows,
// a new ts every 16 (a window every 64 rows, so batches straddle window
// closes), weights k+3 that a subset-sum WHERE mostly rejects once its
// threshold has climbed, and a trace on every 23rd row.
func runSeed(q, size byte) []byte {
	data := []byte{q, size}
	for i := range 320 {
		ts := byte(1) // no new ts
		if i%16 == 0 {
			ts = 0
		}
		tag := byte(i % 3)
		if i%23 == 11 {
			tag += 240
		}
		data = append(data, ts, byte(i*7%5), byte(i*11%250), tag)
	}
	return data
}

// snapshotQueries are FuzzWalkSnapshot's: every built-in aggregate's
// column form — min, max, first and last over the mixed-kind column,
// sum, avg, var and stddev over numeric expressions of k — with cleaning
// that frees slots for reuse, and the contributions of sum$ and min$.
var snapshotQueries = []string{
	`SELECT tb, k, min(v), max(v), first(v), last(v), count(*) FROM S GROUP BY ts/4 AS tb, k
	 CLEANING WHEN count_distinct$(*) >= 4 CLEANING BY count(*) >= 2`,
	`SELECT tb, tag, v, sum(k * 3), avg(k + 0.5), var(k), stddev(k - 1), sum$(k) FROM S GROUP BY ts/4 AS tb, tag, v
	 HAVING count(*) > 1 CLEANING WHEN count_distinct$(*) >= 6 CLEANING BY sum(k) > 0`,
	`SELECT tb, k, min$(k), first(tag), last(v), sum(k / 2.0), max(tag) FROM S GROUP BY ts/4 AS tb, k, tag
	 SUPERGROUP BY tb, tag CLEANING WHEN count_distinct$(*) >= 3 CLEANING BY k > min$(k)`,
}

// FuzzWalkSnapshot holds a run interrupted by Snapshot and Restore to the
// oracle: its first byte picks the row after which the operator's state
// moves into a fresh one, and the rest decodes as FuzzWalk's input does,
// over snapshotQueries.
func FuzzWalkSnapshot(f *testing.F) {
	for q := range snapshotQueries {
		for _, cut := range []byte{0, 90, 200} {
			f.Add([]byte{cut, byte(q), 6, 0, 1, 2, 3, 1, 4, 7, 0, 2, 0, 10, 1, 0, 7, 3, 2, 1, 2, 5, 1, 9, 0, 2, 5, 4, 1,
				8, 3, 12, 2, 0, 6, 33, 1, 3, 0, 17, 0, 1, 5, 2, 2, 0, 7, 29, 1, 16, 4, 0, 0})
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		src, size, rows := fuzzRows(data[1:], snapshotQueries)
		if rows == nil {
			return
		}
		want := runOracle(compilePlan(t, src, fuzzSchema, sfunlib.Default(1)), rows, true)
		if want.err != nil {
			t.Fatalf("oracle: %v", want.err)
		}
		cut := int(data[0]) * (len(rows) + 1) / 256
		opA, out := newEquivOp(t, src, fuzzSchema, 1)
		if _, err := runSubject(opA, fuzzSchema, rows[:cut], size, false); err != nil {
			t.Fatal(err)
		}
		blob := opSnapshot(t, opA)
		opB, outB := newEquivOp(t, src, fuzzSchema, 1)
		if err := opB.Restore(checkpoint.NewDecoder(blob)); err != nil {
			t.Fatalf("Restore: %v", err)
		}
		if _, err := runSubject(opB, fuzzSchema, rows[cut:], size, true); err != nil {
			t.Fatal(err)
		}
		requireIdenticalRows(t, fmt.Sprintf("cut at row %d", cut), append(*out, *outB...), want.rows)
		if got := opB.Stats(); got != want.stats {
			t.Fatalf("cut at row %d: stats = %+v, want %+v", cut, got, want.stats)
		}
	})
}
