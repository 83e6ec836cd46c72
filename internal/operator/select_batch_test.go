package operator_test

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"streamop/internal/checkpoint"
	"streamop/internal/operator"
	"streamop/internal/sfun"
	"streamop/internal/sfunlib"
	"streamop/internal/trace"
	"streamop/internal/tuple"
	"streamop/internal/value"
	"streamop/internal/xrand"
)

// Selection plans: ProcessBatch and Process must equal the oracle row for
// row — rows, stats, errors — whether the selected rows leave through emit
// (built one by one) or through the column sink, and end in the same state.

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
	// Stateful function in the SELECT list: not vectorized, closure mode.
	{"select_stateful", `SELECT uts, bssample(len, 5000) FROM PKT WHERE len > 100`},
}

// sinkOp builds an operator whose output leaves through a column sink (or,
// sink false, through New's row callback); the sink rebuilds rows from the
// columns it is handed, so that they compare with the row callback's.
func sinkOp(t *testing.T, src string, schema *tuple.Schema, reg *sfun.Registry, sink bool) (*operator.Operator, *[]tuple.Tuple) {
	t.Helper()
	plan := compilePlan(t, src, schema, reg)
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
	rows := pktRows(equivPackets(5000, 35, 5, 42))
	for _, q := range selectionQueries {
		t.Run(q.name, func(t *testing.T) {
			checkWalk(t, q.src, trace.Schema(), seeded(9), rows, false, true, true)
		})
	}
}

// An expression that errors at row k: the rows before k are emitted, the
// error is the oracle's, the stats stop where the oracle's do. The cases
// fail in the places a selection can: a SELECT kernel under a stateless
// WHERE and a stateless WHERE kernel (nothing has mutated: the batch runs
// in closure mode), the per-row call of a semi-stateful WHERE (the walk
// stops at k), and a SELECT kernel after a semi-stateful WHERE has run
// (the SELECT closures find the row; the function's state is then ahead
// of the rows, so that case leaves the state out).
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
	rows := pktRows(pkts)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if want := runOracle(compilePlan(t, c.src, trace.Schema(), reg()), rows, false); (want.err == nil) != c.noErr {
				t.Fatalf("oracle: err = %v", want.err)
			}
			checkWalk(t, c.src, trace.Schema(), reg, rows, false, true, c.name != "select_kernel_after_where_call")
		})
	}
}

// TestSelectBatchMixedKindsQuick drives selection plans over a
// dynamically typed stream — what a high-level node reads: NULLs, columns
// whose kind changes from row to row, strings — and holds ProcessBatch and
// Process to the oracle: same rows, same error (mixed kinds make
// arithmetic fail on some rows), same stats.
func TestSelectBatchMixedKindsQuick(t *testing.T) {
	// A SELECT that fails on rows a semi-stateful WHERE kept: when it does,
	// the function's state is ahead of the rows.
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
	// The seeds are a fixed corpus, one hex seed a line, so every run
	// draws the same cases and a failing subtest's name reproduces it.
	corpus, err := os.ReadFile("testdata/mixed_kinds_seeds.txt")
	if err != nil {
		t.Fatal(err)
	}
	seeds := strings.Fields(string(corpus))
	if len(seeds) == 0 {
		t.Fatal("empty seed corpus")
	}
	for _, hex := range seeds {
		seed, err := strconv.ParseUint(hex, 16, 64)
		if err != nil {
			t.Fatalf("seed %q: %v", hex, err)
		}
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
		t.Run(fmt.Sprintf("%x", seed), func(t *testing.T) {
			ahead := src == stateAhead && runOracle(compilePlan(t, src, schema, seeded(3)()), rows, false).err != nil
			checkWalk(t, src, schema, seeded(3), rows, false, true, !ahead)
		})
	}
}
