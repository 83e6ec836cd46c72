package sfunlib

import (
	"fmt"
	"reflect"
	"testing"

	"streamop/internal/sfun"
	"streamop/internal/tuple"
	"streamop/internal/value"
	"streamop/internal/xrand"
)

// scanCase is one function with a Scan, the state family it runs on, how
// its twin states are brought to the point the function is called at, and
// how its arguments are drawn: the weight first, then the rest.
type scanCase struct {
	fn, state string
	// prime readies a fresh state through the registry's Calls: configured
	// and, for the cleaning predicates, mid-cleaning or at the border.
	prime func(t *testing.T, r *sfun.Registry, st *sfun.StateType, s any)
	// rest returns the arguments after the weight: constants, or columns
	// over rows rows drawn from rng.
	rest func(rng *xrand.Rand, rows int, dirty bool) []arg
}

// arg is one drawn argument: a column, or a constant when col is nil.
type arg struct {
	col *tuple.Column
	val value.Value
}

func scanCases() []scanCase {
	configure := func(t *testing.T, r *sfun.Registry, s any) {
		for i := int64(0); i < 40; i++ {
			call(t, r, "ssample", s, vi(20+i*13%300), vi(8), vi(2), vi(10))
		}
	}
	return []scanCase{
		{
			fn: "ssample", state: SubsetSumStateName,
			prime: func(*testing.T, *sfun.Registry, *sfun.StateType, any) {}, // the scan configures
			rest: func(rng *xrand.Rand, rows int, dirty bool) []arg {
				n := constOrColumn(rng, rows, dirty, func() value.Value { return vi(int64(5 + rng.Intn(20))) })
				return []arg{n, {val: value.NewFloat(2)}, {val: vi(10)}}
			},
		},
		{
			fn: "bssample", state: BasicSubsetSumStateName,
			prime: func(*testing.T, *sfun.Registry, *sfun.StateType, any) {},
			rest: func(rng *xrand.Rand, rows int, dirty bool) []arg {
				return []arg{constOrColumn(rng, rows, dirty, func() value.Value {
					if dirty && rng.Intn(40) == 0 {
						return vi(0) // a threshold bssample refuses
					}
					return value.NewFloat(50 + 400*rng.Float64())
				})}
			},
		},
		{
			fn: "ssclean_with", state: SubsetSumStateName,
			prime: func(t *testing.T, r *sfun.Registry, _ *sfun.StateType, s any) {
				configure(t, r, s)
				call(t, r, "ssdo_clean", s, vi(40))
			},
			rest: func(*xrand.Rand, int, bool) []arg { return nil },
		},
		{
			fn: "ssfinal_clean", state: SubsetSumStateName,
			prime: func(t *testing.T, r *sfun.Registry, st *sfun.StateType, s any) {
				configure(t, r, s)
				st.WindowFinal(s)
			},
			rest: func(rng *xrand.Rand, rows int, dirty bool) []arg {
				return []arg{constOrColumn(rng, rows, dirty, func() value.Value { return vi(int64(4 + rng.Intn(30))) })}
			},
		},
	}
}

// constOrColumn draws a constant or a column of rows values from draw; a
// dirty column has a String or NULL row now and then.
func constOrColumn(rng *xrand.Rand, rows int, dirty bool, draw func() value.Value) arg {
	if rng.Intn(2) == 0 {
		return arg{val: draw()}
	}
	c := new(tuple.Column)
	for range rows {
		v := draw()
		if dirty && rng.Intn(30) == 0 {
			v = []value.Value{value.NewString("x"), {}}[rng.Intn(2)]
		}
		c.AppendValue(v)
	}
	return arg{col: c}
}

// weights draws the weight column: kind-uniform Int, Uint or Float, mixed
// numeric kinds, or (dirty) any of those with NULL, String and Bool rows.
func weights(rng *xrand.Rand, rows int, dirty bool) *tuple.Column {
	c := new(tuple.Column)
	shape := rng.Intn(4)
	for range rows {
		w := int64(1 + rng.Intn(600))
		kind := shape
		if shape == 3 {
			kind = rng.Intn(3)
		}
		v := []value.Value{vi(w), vu(uint64(w)), value.NewFloat(float64(w) + 0.25)}[kind]
		if dirty && rng.Intn(25) == 0 {
			v = []value.Value{{}, value.NewString("len"), value.NewBool(true)}[rng.Intn(3)]
		}
		c.AppendValue(v)
	}
	return c
}

// TestScanMatchesCall holds every function with a Scan to its per-row
// Call: twin states, one scanned over seeded columns in random [from, to)
// runs, resuming after each returned row, the other called row by row on
// the same values boxed. Both must pass the same rows, err at the same row
// with the same text, and end in byte-identical state encodings.
func TestScanMatchesCall(t *testing.T) {
	const rows = 96
	r := Default(1)
	for _, sc := range scanCases() {
		t.Run(sc.fn, func(t *testing.T) {
			f, _ := r.Func(sc.fn)
			st, _ := r.State(sc.state)
			var passes, errs, calls int
			for seed := uint64(0); seed < 400; seed++ {
				rng := xrand.New(seed)
				dirty := seed%3 == 2
				args := append([]arg{{col: weights(rng, rows, dirty)}}, sc.rest(rng, rows, dirty)...)
				a := sfun.Args{Vals: make([]value.Value, len(args)), Cols: make([]*tuple.Column, len(args))}
				for i, x := range args {
					a.Vals[i], a.Cols[i] = x.val, x.col
				}
				scanned, called := st.Init(nil), st.Init(nil)
				sc.prime(t, r, st, scanned)
				sc.prime(t, r, st, called)

				label := fmt.Sprintf("seed %d", seed)
				row, done := 0, false
				for from := 0; from < rows && !done; {
					to := from + 1 + rng.Intn(rows-from)
					got, gotErr := f.Scan(scanned, a, from, to)
					want, wantErr := to, error(nil)
					for row = from; row < to; row++ {
						calls++
						v, err := f.Call(called, a.Row(row, nil))
						if err != nil || v.Truth() {
							want, wantErr = row, err
							break
						}
					}
					if got != want || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
						t.Fatalf("%s: Scan(%d, %d) = %d, %v; per-row Call: %d, %v", label, from, to, got, gotErr, want, wantErr)
					}
					requireSameState(t, label, st, scanned, called)
					switch {
					case gotErr != nil:
						errs++
						done = true
					case got < to:
						passes++
						from = got + 1
					default:
						from = to
					}
				}
			}
			if passes == 0 || errs == 0 {
				t.Fatalf("%d calls: %d passing rows, %d errors: the draws miss a case", calls, passes, errs)
			}
		})
	}
}

// requireSameState holds two states of one family to byte-identical
// encodings and equal fields (an encoding leaves some counters out).
func requireSameState(t *testing.T, label string, st *sfun.StateType, a, b any) {
	t.Helper()
	if ea, eb := encodeState(t, st, a), encodeState(t, st, b); string(ea) != string(eb) {
		t.Fatalf("%s: scanned state encodes %x, called %x", label, ea, eb)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("%s: scanned state %+v, called %+v", label, a, b)
	}
}

// TestScanContractEdges pins the shapes the draws above reach rarely: a
// missing argument errs at the first row with numArg's text, a wrong
// state at from, and an empty run returns to untouched.
func TestScanContractEdges(t *testing.T) {
	r := Default(1)
	col := new(tuple.Column)
	for _, w := range []int64{3, 900, 4} {
		col.AppendValue(vi(w))
	}
	bss, _ := r.Func("bssample")
	st, _ := r.State(BasicSubsetSumStateName)
	s := st.Init(nil)
	args := sfun.Args{Vals: make([]value.Value, 1), Cols: []*tuple.Column{col}}
	if row, err := bss.Scan(s, args, 1, 3); row != 1 || fmt.Sprint(err) != "bssample: missing argument 2" {
		t.Errorf("bssample without z: %d, %v", row, err)
	}
	if row, err := bss.Scan("not a state", args, 2, 3); row != 2 || err == nil {
		t.Errorf("wrong state: %d, %v", row, err)
	}
	if row, err := bss.Scan(s, sfun.Args{Vals: []value.Value{{}, vi(0)}}, 2, 2); row != 2 || err != nil {
		t.Errorf("empty run: %d, %v", row, err)
	}
}

// BenchmarkScan measures ns a row of the subset-sum predicates over a
// 512-row Int weight column (40–1499, mean ~770) at thresholds that pass
// about one row in six (ssample, bssample) or, every weight promoted to
// the old threshold, one in two (ssclean_with), through Scan (resuming
// after every passing row, as the walk does) and through one Call a row on
// boxed arguments.
func BenchmarkScan(b *testing.B) {
	const rows = 512
	r := Default(1)
	w := new(tuple.Column)
	rng := xrand.New(1)
	for range rows {
		w.AppendValue(vi(int64(40 + rng.Intn(1460))))
	}
	for _, bc := range []struct {
		fn, state string
		rest      []value.Value
		prime     func(s any)
	}{
		{"ssample", SubsetSumStateName, []value.Value{vi(200), vi(2), vi(10)}, func(s any) {
			st := s.(*ssState)
			st.configured, st.n, st.theta, st.relax, st.Z = true, 200, 2, 10, 5000
		}},
		{"bssample", BasicSubsetSumStateName, []value.Value{vi(5000)}, func(any) {}},
		{"ssclean_with", SubsetSumStateName, nil, func(s any) {
			st := s.(*ssState)
			st.configured, st.n, st.theta, st.relax, st.Z = true, 200, 2, 10, 2500
			st.BeginClean(400, 200)
		}},
	} {
		f, _ := r.Func(bc.fn)
		st, _ := r.State(bc.state)
		vals := append([]value.Value{{}}, bc.rest...)
		args := sfun.Args{Vals: vals, Cols: make([]*tuple.Column, len(vals))}
		args.Cols[0] = w
		b.Run(bc.fn+"/scan", func(b *testing.B) {
			s := st.Init(nil)
			bc.prime(s)
			for b.Loop() {
				for from := 0; from < rows; {
					row, err := f.Scan(s, args, from, rows)
					if err != nil {
						b.Fatal(err)
					}
					from = row + 1
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
		})
		b.Run(bc.fn+"/call", func(b *testing.B) {
			s := st.Init(nil)
			bc.prime(s)
			box := make([]value.Value, len(vals))
			for b.Loop() {
				for row := range rows {
					if _, err := f.Call(s, args.Row(row, box)); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
		})
	}
}
