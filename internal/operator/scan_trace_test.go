package operator_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"streamop/internal/sfun"
	"streamop/internal/tuple"
	"streamop/internal/value"
)

// scanSchema is the stream of TestTracedScansMatchUntraced: an ordered
// timestamp, a key and a weight.
var scanSchema = tuple.MustSchema("S",
	tuple.Field{Name: "ts", Kind: value.Uint, Ordering: tuple.Increasing},
	tuple.Field{Name: "k", Kind: value.Int},
	tuple.Field{Name: "x", Kind: value.Int},
)

// countingRegistry registers one state, a call counter, and Scan
// predicates that log every invocation to log: the function, the range
// [from, to) and the row returned. cwhere, cby and chaving(x, m) pass a row
// when the count of rows scanned so far plus x is a multiple of m;
// cwhen(n) passes when n exceeds 4.
func countingRegistry(log *[]string) *sfun.Registry {
	reg := sfun.NewRegistry()
	reg.MustRegisterState(&sfun.StateType{Name: "cnt", Init: func(any) any { return new(int64) }})
	logged := func(name string, pass func(n *int64, args *sfun.Args, row int) bool) sfun.ScanFunc {
		return func(state any, args sfun.Args, from, to int) (int, error) {
			p := to
			for row := from; row < to; row++ {
				if pass(state.(*int64), &args, row) {
					p = row
					break
				}
			}
			*log = append(*log, fmt.Sprintf("%s [%d,%d) %d", name, from, to, p))
			return p, nil
		}
	}
	multiple := func(n *int64, args *sfun.Args, row int) bool {
		*n++
		return (*n+args.Value(0, row).AsInt())%args.Value(1, row).AsInt() == 0
	}
	for _, name := range []string{"cwhere", "cby", "chaving"} {
		reg.MustRegisterFunc(&sfun.Func{Name: name, State: "cnt", Scan: logged(name, multiple)})
	}
	reg.MustRegisterFunc(&sfun.Func{Name: "cwhen", State: "cnt", Scan: logged("cwhen", func(_ *int64, args *sfun.Args, row int) bool {
		return args.Value(0, row).AsInt() > 4
	})})
	return reg
}

// TestTracedScansMatchUntraced runs each query twice over the same rows,
// untraced and with a trace on every row, and holds the traced run to the
// untraced one: the same Scan invocations over the same ranges of rows or
// groups, the same output rows and the same Stats. A trace observes the
// walk; it does not split its runs.
func TestTracedScansMatchUntraced(t *testing.T) {
	queries := []struct {
		src string
		fns []string // the functions it must scan
	}{
		{`SELECT tb, k, sum(x) FROM S WHERE cwhere(x, 5) = TRUE GROUP BY ts/2 AS tb, k
		 HAVING chaving(sum(x), 2) = TRUE
		 CLEANING WHEN cwhen(count_distinct$(*)) = TRUE CLEANING BY cby(sum(x), 3) = TRUE`, []string{"cwhere", "cwhen", "cby", "chaving"}},
		{`SELECT ts, k, x FROM S WHERE cwhere(x, 4) = TRUE`, []string{"cwhere"}},
	}
	var rows []tuple.Tuple
	for i := range 700 {
		rows = append(rows, tuple.Tuple{value.NewUint(uint64(i / 40)), value.NewInt(int64(i * 7 % 9)), value.NewInt(int64(i * 13 % 17))})
	}
	for _, q := range queries {
		src, fns := q.src, q.fns
		for _, size := range []int{1, 64, 512} {
			label := fmt.Sprintf("%s, batches of %d", src, size)
			var plain, traced []string
			opP, outP := sinkOp(t, src, scanSchema, countingRegistry(&plain), false)
			if _, err := runSubject(opP, scanSchema, rows, size, true); err != nil {
				t.Fatal(err)
			}
			opT, outT := sinkOp(t, src, scanSchema, countingRegistry(&traced), false)
			every := make([]bool, len(rows))
			for i := range every {
				every[i] = true
			}
			if _, err := runTraced(opT, scanSchema, rows, every, size); err != nil {
				t.Fatal(err)
			}
			for _, fn := range fns {
				if !slices.ContainsFunc(plain, func(l string) bool { return strings.HasPrefix(l, fn+" ") }) {
					t.Fatalf("%s: no %s scan: the case does not exercise it", label, fn)
				}
			}
			if len(*outP) == 0 || opP.Stats().GroupsEvicted == 0 && len(fns) > 1 {
				t.Fatalf("%s: %d rows out, stats %+v: the case exercises too little", label, len(*outP), opP.Stats())
			}
			if !slices.Equal(traced, plain) {
				for j := range min(len(traced), len(plain)) {
					if traced[j] != plain[j] {
						t.Fatalf("%s: scan %d traced %q, untraced %q (%d and %d scans)", label, j, traced[j], plain[j], len(traced), len(plain))
					}
				}
				t.Fatalf("%s: %d scans traced, %d untraced", label, len(traced), len(plain))
			}
			requireIdenticalRows(t, label, *outT, *outP)
			if got, want := opT.Stats(), opP.Stats(); got != want {
				t.Fatalf("%s: traced stats %+v, untraced %+v", label, got, want)
			}
		}
	}
}
