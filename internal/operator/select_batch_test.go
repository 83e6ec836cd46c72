package operator_test

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"

	"streamop/internal/checkpoint"
	"streamop/internal/gsql"
	"streamop/internal/operator"
	"streamop/internal/sfun"
	"streamop/internal/sfunlib"
	"streamop/internal/trace"
	"streamop/internal/tuple"
	"streamop/internal/value"
	"streamop/internal/xrand"
)

// Selection plans on the vectorized path: ProcessBatch must equal Process
// row for row — rows, stats, state, errors — whether the selected rows
// leave through emit (built one by one) or through the column sink.

var selectionQueries = []struct{ name, src string }{
	{"pass_through", `SELECT time, srcIP, destIP, len, uts FROM PKT`},
	{"exprs", `SELECT time/7 AS tb, len*2 + 1, -len, srcIP % 16 = 3, 42, 'tag', 1.5 * len FROM PKT`},
	{"where_stateless", `SELECT uts, srcIP, len FROM PKT WHERE len*2 > 900 AND NOT (srcIP = 167772160)`},
	{"where_none_pass", `SELECT uts FROM PKT WHERE len > 100000`},
	{"where_all_pass", `SELECT uts FROM PKT WHERE len > 0 OR srcIP = 0`},
	// Semi-stateful WHERE: the mutating call per row, in row order.
	{"where_stateful", `SELECT time, srcIP, len FROM PKT WHERE bssample(len, 5000) = TRUE`},
	// SELECT items that compute, over the rows WHERE kept only (Figure 5's
	// UDF line): one column read by two items, a call, a literal.
	{"where_stateful_exprs", `SELECT uts, UMAX(len, 5000), len*2, len, 7 FROM PKT WHERE bssample(len, 5000) = TRUE`},
	{"where_stateless_exprs", `SELECT uts, UMAX(len, 900), len + srcIP % 4, 'big' FROM PKT WHERE len > 700`},
	// Stateful function in the SELECT list: not vectorized, scalar rows.
	{"select_stateful", `SELECT uts, bssample(len, 5000) FROM PKT WHERE len > 100`},
}

// sinkOp builds an operator whose output leaves through a column sink (or,
// sink false, through New's row callback); the sink rebuilds rows from the
// columns it is handed, so that they compare with the row callback's.
func sinkOp(t *testing.T, src string, schema *tuple.Schema, reg *sfun.Registry, sink bool) (*operator.Operator, *[]tuple.Tuple) {
	t.Helper()
	q, err := gsql.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := gsql.Analyze(q, schema, reg)
	if err != nil {
		t.Fatal(err)
	}
	out := &[]tuple.Tuple{}
	op, err := operator.New(plan, func(row tuple.Tuple) error {
		*out = append(*out, row.Clone())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sink {
		return op, out
	}
	outSchema, err := plan.OutputSchema("out")
	if err != nil {
		t.Fatal(err)
	}
	edge := tuple.NewBatch(outSchema, 0)
	op.SetColumnSink(func(cols []*tuple.Column) error {
		edge.Reset()
		edge.AppendCols(cols)
		for i := 0; i < edge.Len(); i++ {
			*out = append(*out, edge.Row(i, nil))
		}
		return nil
	})
	return op, out
}

func opSnapshot(t *testing.T, op *operator.Operator) []byte {
	t.Helper()
	enc := checkpoint.NewEncoder()
	if err := op.Snapshot(enc); err != nil {
		t.Fatal(err)
	}
	return enc.Bytes()
}

func TestSelectBatchEquivalence(t *testing.T) {
	pkts := equivPackets(5000, 35, 5, 42)
	for _, q := range selectionQueries {
		t.Run(q.name, func(t *testing.T) {
			refOp, refOut := newEquivOp(t, q.src, trace.Schema(), 9)
			feedScalar(t, refOp, pkts)
			refSnap := opSnapshot(t, refOp)
			for _, size := range []int{1, 3, 7, 64, 512, 700} {
				for _, sink := range []bool{false, true} {
					label := fmt.Sprintf("size %d sink %v", size, sink)
					var op *operator.Operator
					var out *[]tuple.Tuple
					if sink {
						op, out = sinkOp(t, q.src, trace.Schema(), sfunlib.Default(9), true)
					} else {
						op, out = newEquivOp(t, q.src, trace.Schema(), 9)
					}
					feedBatches(t, op, pkts, size)
					requireIdenticalRows(t, label, *out, *refOut)
					if got, want := op.Stats(), refOp.Stats(); got != want {
						t.Fatalf("%s: stats = %+v, want %+v", label, got, want)
					}
					if !bytes.Equal(opSnapshot(t, op), refSnap) {
						t.Fatalf("%s: snapshot differs from the scalar run's", label)
					}
				}
			}
		})
	}
}

// An expression that errors at row k: the rows before k are emitted, the
// error is the scalar path's, the stats stop where the scalar path's do.
// The cases fail in the places a selection can: a SELECT kernel under a
// stateless WHERE and a stateless WHERE kernel (nothing has mutated: the
// batch re-runs through the scalar path), the per-row call of a
// semi-stateful WHERE (the walk stops at k), and a SELECT kernel after a
// semi-stateful WHERE has run (selectRows finds the row; the function's
// state is then ahead of the scalar path's, so that case leaves the
// snapshot out).
func TestSelectBatchErrorEquivalence(t *testing.T) {
	reg := func() *sfun.Registry {
		r := sfunlib.Default(1)
		r.MustRegisterState(&sfun.StateType{
			Name: "fuse_state", Init: func(any) any { return new(int) },
			Encode: func(st any, e *checkpoint.Encoder) error { e.I64(int64(*st.(*int))); return nil },
			Decode: func(d *checkpoint.Decoder) (any, error) { n := int(d.I64()); return &n, d.Err() },
		})
		r.MustRegisterFunc(&sfun.Func{
			// alt(k) passes every other row: call n passes when n+k is even.
			Name: "alt", State: "fuse_state",
			Call: func(st any, args []value.Value) (value.Value, error) {
				n := st.(*int)
				*n++
				return value.NewBool((int64(*n)+args[0].AsInt())%2 == 0), nil
			},
		})
		r.MustRegisterFunc(&sfun.Func{
			Name: "fuse", State: "fuse_state",
			Call: func(st any, args []value.Value) (value.Value, error) {
				n := st.(*int)
				*n++
				if args[0].AsInt() == 100 {
					return value.Value{}, fmt.Errorf("fuse: blown at call %d", *n)
				}
				return value.NewBool(*n%2 == 0), nil
			},
		})
		return r
	}
	cases := []struct {
		name, src string
		noErr     bool
	}{
		{"select_kernel", `SELECT uts, 1000/(len-100) FROM PKT WHERE len > 50`, false},
		{"where_kernel", `SELECT uts FROM PKT WHERE 1000/(len-100) > 2`, false},
		{"where_call", `SELECT uts, len FROM PKT WHERE fuse(len) = TRUE`, false},
		// The poison row fails WHERE: scalar evaluation never reaches its
		// SELECT error, and neither may the batch.
		{"select_error_behind_where", `SELECT uts, 1000/(len-100) FROM PKT WHERE len <> 100`, true},
		// The same behind a semi-stateful WHERE, which rejects the poison
		// row (its 334th call) or keeps it.
		{"select_error_behind_where_call", `SELECT uts, 1000/(len-100) FROM PKT WHERE alt(1) = TRUE`, true},
		{"select_kernel_after_where_call", `SELECT uts, 1000/(len-100) FROM PKT WHERE alt(0) = TRUE`, false},
		// The kernels fail on the kept poison row where AND's short circuit
		// does not: every kept row is emitted by the scalar closures.
		{"select_short_circuit_after_where_call", `SELECT uts, len <> 100 AND 1000/(len-100) > 0 FROM PKT WHERE alt(0) = TRUE`, true},
	}
	pkts := equivPackets(500, 21, 3, 8)
	for i := range pkts {
		if pkts[i].Len == 100 {
			pkts[i].Len = 101
		}
	}
	pkts[333].Len = 100 // the poison row
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			refOp, refOut := sinkOp(t, c.src, trace.Schema(), reg(), false)
			var refErr error
			buf := make(tuple.Tuple, trace.NumFields)
			for _, p := range pkts {
				p.AppendTuple(buf)
				if refErr = refOp.Process(buf); refErr != nil {
					break
				}
			}
			if (refErr == nil) != c.noErr {
				t.Fatalf("scalar path: err = %v", refErr)
			}
			for _, size := range []int{1, 17, 128, 512} {
				for _, sink := range []bool{false, true} {
					label := fmt.Sprintf("size %d sink %v", size, sink)
					op, out := sinkOp(t, c.src, trace.Schema(), reg(), sink)
					b := tuple.NewBatch(trace.Schema(), size)
					var gotErr error
					for off := 0; off < len(pkts) && gotErr == nil; off += size {
						b.Reset()
						trace.AppendBatch(b, pkts[off:min(off+size, len(pkts))])
						gotErr = op.ProcessBatch(b)
					}
					if fmt.Sprint(gotErr) != fmt.Sprint(refErr) {
						t.Fatalf("%s: err = %v, want %v", label, gotErr, refErr)
					}
					requireIdenticalRows(t, label, *out, *refOut)
					if got, want := op.Stats(), refOp.Stats(); got != want {
						t.Fatalf("%s: stats = %+v, want %+v", label, got, want)
					}
					if c.name == "select_kernel_after_where_call" {
						continue
					}
					if !bytes.Equal(opSnapshot(t, op), opSnapshot(t, refOp)) {
						t.Fatalf("%s: snapshot differs from the scalar run's", label)
					}
				}
			}
		})
	}
}

// TestSelectBatchMixedKindsQuick drives selection plans over a
// dynamically typed stream — what a high-level node reads: NULLs, columns
// whose kind changes from row to row, strings — with random batch sizes,
// and holds ProcessBatch to Process: same rows, same error (mixed kinds
// make arithmetic fail on some rows), same stats.
func TestSelectBatchMixedKindsQuick(t *testing.T) {
	// A SELECT that fails on rows a semi-stateful WHERE kept: when it does,
	// the function's state is ahead of the scalar path's (selectRows).
	const stateAhead = `SELECT ts, a + b, UMAX(a, 3) FROM S WHERE bssample(ts + 1, 3) = TRUE`
	schema := tuple.MustSchema("S",
		tuple.Field{Name: "ts", Ordering: tuple.Increasing},
		tuple.Field{Name: "a"},
		tuple.Field{Name: "b"},
		tuple.Field{Name: "tag"},
	)
	queries := []string{
		`SELECT ts, a, b, tag FROM S`,
		`SELECT ts, a + b, tag FROM S WHERE a > 10`,
		`SELECT a * 2, b / 3, -a FROM S WHERE NOT (tag = 'x') OR b < 5`,
		`SELECT a % b FROM S`,
		`SELECT ts, a = b, a < b, tag FROM S WHERE a <> b AND ts > 3`,
		`SELECT ts FROM S WHERE bssample(a, 40) = TRUE`,
		`SELECT b, 'k', 7 FROM S WHERE a / b > 1`,
		stateAhead,
	}
	tags := []string{"x", "yy", ""}
	randValue := func(r *xrand.Rand, mixed bool) value.Value {
		if !mixed {
			return value.NewInt(int64(r.Intn(60)))
		}
		switch r.Intn(6) {
		case 0:
			return value.Value{}
		case 1:
			return value.NewFloat(float64(r.Intn(40)) / 4)
		case 2:
			return value.NewUint(uint64(r.Intn(60)))
		case 3:
			return value.NewString(tags[r.Intn(len(tags))])
		}
		return value.NewInt(int64(r.Intn(60)) - 5)
	}
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		src := queries[r.Intn(len(queries))]
		mixed := r.Intn(3) > 0
		rows := make([]tuple.Tuple, 50+r.Intn(400))
		for i := range rows {
			rows[i] = tuple.Tuple{
				value.NewUint(uint64(i / 9)),
				randValue(r, mixed && r.Intn(4) == 0),
				randValue(r, mixed && r.Intn(4) == 0),
				value.NewString(tags[r.Intn(len(tags))]),
			}
		}
		refOp, refOut := sinkOp(t, src, schema, sfunlib.Default(3), false)
		var refErr error
		for _, row := range rows {
			if refErr = refOp.Process(row); refErr != nil {
				break
			}
		}
		op, out := sinkOp(t, src, schema, sfunlib.Default(3), r.Intn(2) == 0)
		b := tuple.NewBatch(schema, 0)
		var gotErr error
		for off := 0; off < len(rows) && gotErr == nil; {
			end := min(off+1+r.Intn(130), len(rows))
			b.Reset()
			for _, row := range rows[off:end] {
				b.AppendRow(row)
			}
			gotErr = op.ProcessBatch(b)
			off = end
		}
		if fmt.Sprint(gotErr) != fmt.Sprint(refErr) {
			t.Logf("seed %x, %s: err = %v, want %v", seed, src, gotErr, refErr)
			return false
		}
		if op.Stats() != refOp.Stats() {
			t.Logf("seed %x, %s: stats = %+v, want %+v", seed, src, op.Stats(), refOp.Stats())
			return false
		}
		if len(*out) != len(*refOut) {
			t.Logf("seed %x, %s: %d rows, want %d", seed, src, len(*out), len(*refOut))
			return false
		}
		for i := range *refOut {
			for j := range (*refOut)[i] {
				if !identicalValue((*out)[i][j], (*refOut)[i][j]) {
					t.Logf("seed %x, %s: row %d field %d = %v, want %v", seed, src, i, j, (*out)[i][j], (*refOut)[i][j])
					return false
				}
			}
		}
		if src == stateAhead && refErr != nil {
			return true
		}
		return bytes.Equal(opSnapshot(t, op), opSnapshot(t, refOp))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
