package gsql

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"streamop/internal/agg"
	"streamop/internal/sfun"
	"streamop/internal/sfunlib"
	"streamop/internal/tuple"
	"streamop/internal/value"
)

// vecTestSchema mirrors the PKT layout: uniform Uint columns plus an Int
// column, and adds a float and a string column for kind coverage.
func vecTestSchema(t *testing.T) *tuple.Schema {
	t.Helper()
	s, err := tuple.NewSchema("S",
		tuple.Field{Name: "ts", Kind: value.Uint, Ordering: tuple.Increasing},
		tuple.Field{Name: "src", Kind: value.Uint},
		tuple.Field{Name: "len", Kind: value.Int},
		tuple.Field{Name: "w", Kind: value.Float},
		tuple.Field{Name: "tag", Kind: value.String},
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// randomBatch fills rows with deterministic pseudo-random values; mixed
// makes some columns kind-mixed (incl. NULLs) to exercise generic paths.
func randomBatch(s *tuple.Schema, n int, seed int64, mixed bool) *tuple.Batch {
	rng := rand.New(rand.NewSource(seed))
	b := tuple.NewBatch(s, n)
	tags := []string{"a", "bb", "", "zzz"}
	row := make(tuple.Tuple, s.NumFields())
	for i := 0; i < n; i++ {
		row[0] = value.NewUint(uint64(i / 7))
		row[1] = value.NewUint(uint64(rng.Intn(5)))
		row[2] = value.NewInt(int64(rng.Intn(2000) - 40))
		row[3] = value.NewFloat(float64(rng.Intn(100)) / 4)
		row[4] = value.NewString(tags[rng.Intn(len(tags))])
		if mixed && rng.Intn(4) == 0 {
			switch rng.Intn(3) {
			case 0:
				row[2] = value.NewFloat(float64(rng.Intn(50)))
			case 1:
				row[2] = value.Value{}
			case 2:
				row[1] = value.NewInt(int64(rng.Intn(5)))
			}
		}
		b.AppendRow(row)
	}
	return b
}

// analyzeVecQuery builds a plan whose GROUP BY is `expr AS g, ts` (so
// vectorized group-by and WHERE clauses both get exercised).
func analyzeVecQuery(t *testing.T, s *tuple.Schema, where, groupExpr string) *Plan {
	t.Helper()
	src := "SELECT g FROM S"
	if where != "" {
		src += " WHERE " + where
	}
	src += " GROUP BY " + groupExpr + " AS g, ts"
	q, err := Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	p, err := Analyze(q, s, sfun.NewRegistry())
	if err != nil {
		t.Fatalf("analyze %q: %v", src, err)
	}
	return p
}

// TestVectorizeGroupByEquivalence checks every vectorized group-by
// kernel against the scalar closure, row by row, on uniform and
// mixed-kind batches.
func TestVectorizeGroupByEquivalence(t *testing.T) {
	s := vecTestSchema(t)
	exprs := []string{
		"ts / 2",
		"ts * 3 + 1",
		"len + 100",
		"len % 7",
		"len / 3",
		"w * 2",
		"w + len",
		"ts - src",
		"-len",
		"src",
		"tag",
		"len - 2 * src",
		"w / 4 + 1",
	}
	for _, mixed := range []bool{false, true} {
		b := randomBatch(s, 300, 42, mixed)
		for _, e := range exprs {
			t.Run(fmt.Sprintf("%s/mixed=%v", e, mixed), func(t *testing.T) {
				p := analyzeVecQuery(t, s, "", e)
				vp, ok := Vectorize(p)
				if !ok {
					t.Fatalf("Vectorize failed for %q", e)
				}
				env := &VecEnv{}
				env.Reset(b)
				col, vecErr := vp.GroupBy[0].EvalCol(env)

				ctx := &Ctx{Tuple: make(tuple.Tuple, s.NumFields())}
				for i := 0; i < b.Len(); i++ {
					ctx.Tuple = b.Row(i, ctx.Tuple)
					want, err := p.GroupBy[0](ctx)
					if err != nil {
						// Scalar evaluation errors on some row: the
						// vectorized pass must have reported an error
						// too (driver falls back to scalar).
						if vecErr == nil {
							t.Fatalf("row %d: scalar error %v but vectorized succeeded", i, err)
						}
						return
					}
					if vecErr != nil {
						// Vectorized may fail eagerly (e.g. a later row
						// divides by zero); that is a legal fallback.
						t.Skipf("vectorized fell back: %v", vecErr)
					}
					got := col.Value(i)
					if !value.Equal(got, want) || got.Kind() != want.Kind() {
						t.Fatalf("row %d: vec %v (%s) != scalar %v (%s)",
							i, got, got.Kind(), want, want.Kind())
					}
				}
			})
		}
	}
}

// TestVectorizeWhereEquivalence checks vectorized predicate bitmaps
// against scalar Truth verdicts.
func TestVectorizeWhereEquivalence(t *testing.T) {
	s := vecTestSchema(t)
	preds := []string{
		"len > 100",
		"len >= 100 AND len < 1000",
		"src = 3 OR len < 0",
		"NOT (len > 100)",
		"tag = 'bb'",
		"tag <> ''",
		"w > 10.5",
		"len > src",
		"w >= len",
		"ts / 2 > 5 AND src <> 0",
		"len % 2 = 0",
		"g > 3",
	}
	for _, mixed := range []bool{false, true} {
		b := randomBatch(s, 300, 7, mixed)
		for _, pred := range preds {
			t.Run(fmt.Sprintf("%s/mixed=%v", pred, mixed), func(t *testing.T) {
				p := analyzeVecQuery(t, s, pred, "src * 2")
				vp, ok := Vectorize(p)
				if !ok {
					t.Fatalf("Vectorize failed for %q", pred)
				}
				env := &VecEnv{}
				env.Reset(b)
				gb := make([]*tuple.Column, len(vp.GroupBy))
				for i, g := range vp.GroupBy {
					c, err := g.EvalCol(env)
					if err != nil {
						t.Skipf("group-by fell back: %v", err)
					}
					gb[i] = c
				}
				env.SetGroupCols(gb)
				mask, vecErr := vp.Where.EvalTruth(env, nil)

				ctx := &Ctx{
					Tuple:     make(tuple.Tuple, s.NumFields()),
					GroupVals: make([]value.Value, len(p.GroupBy)),
				}
				for i := 0; i < b.Len(); i++ {
					ctx.Tuple = b.Row(i, ctx.Tuple)
					var scalarErr error
					for j, g := range p.GroupBy {
						ctx.GroupVals[j], scalarErr = g(ctx)
						if scalarErr != nil {
							break
						}
					}
					var v value.Value
					if scalarErr == nil {
						v, scalarErr = p.Where(ctx)
					}
					if scalarErr != nil {
						if vecErr == nil {
							t.Fatalf("row %d: scalar error %v but vectorized succeeded", i, scalarErr)
						}
						return
					}
					if vecErr != nil {
						t.Skipf("vectorized fell back: %v", vecErr)
					}
					if mask.Get(i) != v.Truth() {
						t.Fatalf("row %d: vec %v != scalar %v", i, mask.Get(i), v.Truth())
					}
				}
			})
		}
	}
}

// TestVectorizeDivZeroFallsBack: an integer zero divisor in a column
// aborts vectorized evaluation (the driver then re-runs the scalar
// path, reproducing the error at the right row).
func TestVectorizeDivZeroFallsBack(t *testing.T) {
	s := vecTestSchema(t)
	p := analyzeVecQuery(t, s, "", "len / src")
	vp, ok := Vectorize(p)
	if !ok {
		t.Fatal("Vectorize failed")
	}
	b := tuple.NewBatch(s, 2)
	b.AppendRow(tuple.Tuple{value.NewUint(0), value.NewUint(2), value.NewInt(10), value.NewFloat(0), value.NewString("")})
	b.AppendRow(tuple.Tuple{value.NewUint(0), value.NewUint(0), value.NewInt(10), value.NewFloat(0), value.NewString("")})
	env := &VecEnv{}
	env.Reset(b)
	if _, err := vp.GroupBy[0].EvalCol(env); err == nil {
		t.Fatal("expected error for zero divisor")
	}
}

// TestVectorizeSemiStatefulWhere: WHERE sfun(args) = TRUE compiles to a
// VecCall whose per-row Call sequence matches the scalar closure.
func TestVectorizeSemiStatefulWhere(t *testing.T) {
	s := vecTestSchema(t)
	reg := sfun.NewRegistry()
	type counterState struct{ n, accepted int64 }
	reg.MustRegisterState(&sfun.StateType{
		Name: "counter",
		Init: func(old any) any { return &counterState{} },
	})
	reg.MustRegisterFunc(&sfun.Func{
		Name:  "every_kth",
		State: "counter",
		Call: func(state any, args []value.Value) (value.Value, error) {
			st := state.(*counterState)
			st.n++
			k := args[1].AsInt()
			// args[0] participates so column-arg plumbing is exercised.
			if st.n%k == 0 && args[0].AsInt() >= 0 {
				st.accepted++
				return value.NewBool(true), nil
			}
			return value.NewBool(false), nil
		},
	})
	for _, whereForm := range []string{
		"every_kth(len, 3) = TRUE",
		"every_kth(len, 3)",
	} {
		q, err := Parse("SELECT g FROM S WHERE " + whereForm + " GROUP BY ts AS g")
		if err != nil {
			t.Fatal(err)
		}
		p, err := Analyze(q, s, reg)
		if err != nil {
			t.Fatal(err)
		}
		vp, ok := Vectorize(p)
		if !ok {
			t.Fatalf("Vectorize failed for %q", whereForm)
		}
		if vp.WhereCall == nil {
			t.Fatalf("expected VecCall for %q", whereForm)
		}
		if vp.WhereCall.StateIdx != 0 {
			t.Fatalf("StateIdx = %d", vp.WhereCall.StateIdx)
		}

		b := randomBatch(s, 100, 3, false)
		env := &VecEnv{}
		env.Reset(b)
		if err := vp.WhereCall.EvalArgs(env); err != nil {
			t.Fatal(err)
		}
		vecState := []any{p.States[0].Type.Init(nil)}
		scalarState := []any{p.States[0].Type.Init(nil)}
		ctx := &Ctx{
			Tuple:     make(tuple.Tuple, s.NumFields()),
			GroupVals: make([]value.Value, len(p.GroupBy)),
			States:    scalarState,
		}
		for i := 0; i < b.Len(); i++ {
			p1, err := vp.WhereCall.Scan(vecState, nil, i, i+1)
			if err != nil {
				t.Fatal(err)
			}
			ctx.Tuple = b.Row(i, ctx.Tuple)
			for j, g := range p.GroupBy {
				ctx.GroupVals[j], _ = g(ctx)
			}
			want, err := p.Where(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if got := p1 == i; got != want.Truth() {
				t.Fatalf("%s row %d: vec %v != scalar %v", whereForm, i, got, want)
			}
		}
		vs, ss := vecState[0].(*counterState), scalarState[0].(*counterState)
		if vs.n != ss.n || vs.accepted != ss.accepted {
			t.Fatalf("state diverged: vec %+v scalar %+v", vs, ss)
		}
	}
}

// TestVectorizeRejectsUnsupported: plans outside the subset must not
// vectorize (the operator runs them in closure mode).
func TestVectorizeRejectsUnsupported(t *testing.T) {
	s := vecTestSchema(t)
	reg := sfun.NewRegistry()
	reg.MustRegisterState(&sfun.StateType{Name: "st", Init: func(any) any { return nil }})
	reg.MustRegisterFunc(&sfun.Func{
		Name: "sf", State: "st",
		Call: func(any, []value.Value) (value.Value, error) { return value.NewBool(true), nil },
	})
	cases := []string{
		// stateful call nested in a stateless expression
		"SELECT g FROM S WHERE sf(len) = TRUE AND len > 0 GROUP BY ts AS g",
		// the same in a selection plan
		"SELECT len FROM S WHERE sf(len) = TRUE AND len > 0",
		// stateful call in a selection plan's SELECT list
		"SELECT len, sf(len) FROM S",
	}
	for _, src := range cases {
		q, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		p, err := Analyze(q, s, reg)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := Vectorize(p); ok {
			t.Errorf("Vectorize accepted unsupported plan: %s", strings.ReplaceAll(src, "\n", " "))
		}
	}
}

// TestVectorizeSelectionEquivalence checks a selection plan's kernels
// (WHERE mask, SELECT columns) against the scalar closures row by row, on
// uniform and mixed-kind/NULL batches. Where the scalar closure errors on
// some row, the eager kernel must have errored too: that is what sends
// the operator's batch to closure mode. The SELECT kernels
// are held to the same over the rows WHERE kept only (VecEnv.Restrict),
// which is how the operator runs them.
func TestVectorizeSelectionEquivalence(t *testing.T) {
	s := vecTestSchema(t)
	queries := []string{
		"SELECT ts, src, len FROM S",
		"SELECT ts / 2 AS tb, len * 2 + 1, w + len, tag FROM S WHERE len > 100",
		"SELECT -len, 7, 'k', src FROM S WHERE NOT (src = 3) AND w <= 20",
		"SELECT len % src FROM S",              // integer zero divisor on some row
		"SELECT ts FROM S WHERE len / src > 2", // the same inside WHERE
		"SELECT tag, len FROM S WHERE tag = 'bb' OR len < 0",
	}
	for _, mixed := range []bool{false, true} {
		b := randomBatch(s, 300, 43, mixed)
		for _, src := range queries {
			t.Run(fmt.Sprintf("%s/mixed=%v", src, mixed), func(t *testing.T) {
				q, err := Parse(src)
				if err != nil {
					t.Fatal(err)
				}
				p, err := Analyze(q, s, sfun.NewRegistry())
				if err != nil {
					t.Fatal(err)
				}
				vp, ok := Vectorize(p)
				if !ok {
					t.Fatal("Vectorize refused a stateless selection plan")
				}
				if len(vp.Select) != len(p.SelectExprs) || len(vp.GroupBy) != 0 {
					t.Fatalf("shape: %d select kernels for %d items, %d group-by", len(vp.Select), len(p.SelectExprs), len(vp.GroupBy))
				}
				env := &VecEnv{}
				env.Reset(b)
				var mask tuple.Bitmap
				var vecErr error
				if vp.Where != nil {
					mask, vecErr = vp.Where.EvalTruth(env, mask)
				}
				restricted := vp.Where != nil && vecErr == nil
				cols := make([]*tuple.Column, len(vp.Select))
				for i, e := range vp.Select {
					col, err := e.EvalCol(env)
					if err != nil && vecErr == nil {
						vecErr = err
					}
					cols[i] = col
				}
				var keptErr error
				keptCols := make([]*tuple.Column, len(vp.Select))
				if restricted {
					kept := mask.AppendIndices(nil)
					env.Restrict(kept)
					if env.N() != len(kept) {
						t.Fatalf("restricted to %d rows, N() = %d", len(kept), env.N())
					}
					for i, e := range vp.Select {
						col, err := e.EvalCol(env)
						if err != nil && keptErr == nil {
							keptErr = err
						}
						if err == nil && col.Len() != len(kept) {
							t.Fatalf("item %d: %d rows over %d kept", i, col.Len(), len(kept))
						}
						keptCols[i] = col
					}
				}
				ctx := &Ctx{}
				k := -1 // position of row i among the kept rows
				for i := 0; i < b.Len(); i++ {
					ctx.Tuple = b.Row(i, ctx.Tuple)
					if p.Where != nil {
						want, err := p.Where(ctx)
						if err != nil {
							if vecErr == nil {
								t.Fatalf("row %d: scalar WHERE error %v but kernels succeeded", i, err)
							}
							return
						}
						if vecErr == nil && mask.Get(i) != want.Truth() {
							t.Fatalf("row %d: mask %v != scalar %v", i, mask.Get(i), want)
						}
						if !want.Truth() {
							continue // Process evaluates SELECT for passing rows only
						}
					}
					k++
					for c, sel := range p.SelectExprs {
						want, err := sel(ctx)
						if err != nil {
							if vecErr == nil || (restricted && keptErr == nil) {
								t.Fatalf("row %d: scalar SELECT error %v but kernels succeeded", i, err)
							}
							return
						}
						if restricted && keptErr == nil {
							if got := keptCols[c].Value(k); !value.Equal(got, want) || got.Kind() != want.Kind() {
								t.Fatalf("row %d (kept %d) item %d: vec %v (%v) != scalar %v (%v)", i, k, c, got, got.Kind(), want, want.Kind())
							}
						}
						if vecErr != nil {
							continue
						}
						if got := cols[c].Value(i); !value.Equal(got, want) || got.Kind() != want.Kind() {
							t.Fatalf("row %d item %d: vec %v (%v) != scalar %v (%v)", i, c, got, got.Kind(), want, want.Kind())
						}
					}
				}
			})
		}
	}
}

// TestVectorizeSelectionWhereCall: a selection plan's semi-stateful WHERE
// compiles to the call form and makes the same calls, in row order,
// against the plan's single state vector.
func TestVectorizeSelectionWhereCall(t *testing.T) {
	s := vecTestSchema(t)
	reg := sfun.NewRegistry()
	type counter struct{ n, sum int64 }
	reg.MustRegisterState(&sfun.StateType{Name: "cst", Init: func(any) any { return &counter{} }})
	reg.MustRegisterFunc(&sfun.Func{
		Name: "every3", State: "cst",
		Call: func(st any, args []value.Value) (value.Value, error) {
			c := st.(*counter)
			c.n++
			c.sum += args[0].AsInt()
			return value.NewBool(c.n%3 == 0), nil
		},
	})
	q, err := Parse("SELECT ts, len FROM S WHERE every3(len + 1) = TRUE")
	if err != nil {
		t.Fatal(err)
	}
	p, err := Analyze(q, s, reg)
	if err != nil {
		t.Fatal(err)
	}
	vp, ok := Vectorize(p)
	if !ok || vp.WhereCall == nil || vp.Where != nil {
		t.Fatalf("want the WhereCall form, got ok=%v %+v", ok, vp)
	}
	b := randomBatch(s, 100, 5, false)
	env := &VecEnv{}
	env.Reset(b)
	if err := vp.WhereCall.EvalArgs(env); err != nil {
		t.Fatal(err)
	}
	vecStates := []any{p.States[0].Type.Init(nil)}
	scalarStates := []any{p.States[0].Type.Init(nil)}
	ctx := &Ctx{States: scalarStates}
	for i := 0; i < b.Len(); i++ {
		p1, err := vp.WhereCall.Scan(vecStates, nil, i, i+1)
		if err != nil {
			t.Fatal(err)
		}
		ctx.Tuple = b.Row(i, ctx.Tuple)
		want, err := p.Where(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if got := p1 == i; got != want.Truth() {
			t.Fatalf("row %d: vec %v != scalar %v", i, got, want)
		}
	}
	if v, w := *vecStates[0].(*counter), *scalarStates[0].(*counter); v != w {
		t.Fatalf("state diverged: vec %+v scalar %+v", v, w)
	}
}

// TestVectorizeAggArgs: aggregate argument kernels match the scalar
// closures per row.
func TestVectorizeAggArgs(t *testing.T) {
	s := vecTestSchema(t)
	q, err := Parse("SELECT sum(len), sum(len * 2 + 1), count(*) FROM S GROUP BY ts AS g")
	if err != nil {
		t.Fatal(err)
	}
	p, err := Analyze(q, s, sfun.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	vp, ok := Vectorize(p)
	if !ok {
		t.Fatal("Vectorize failed")
	}
	if len(vp.AggArgs) != 3 || vp.AggArgs[0] == nil || vp.AggArgs[1] == nil || vp.AggArgs[2] != nil {
		t.Fatalf("AggArgs shape: %v", vp.AggArgs)
	}
	if vp.NeedRowCtx {
		t.Fatal("NeedRowCtx set for fully vectorizable aggregate args")
	}
	b := randomBatch(s, 64, 11, false)
	env := &VecEnv{}
	env.Reset(b)
	ctx := &Ctx{Tuple: make(tuple.Tuple, s.NumFields()), GroupVals: make([]value.Value, 1)}
	for ai := 0; ai < 2; ai++ {
		col, err := vp.AggArgs[ai].EvalCol(env)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < b.Len(); i++ {
			ctx.Tuple = b.Row(i, ctx.Tuple)
			want, err := p.Aggs[ai].Arg(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if got := col.Value(i); !value.Equal(got, want) || got.Kind() != want.Kind() {
				t.Fatalf("agg %d row %d: vec %v != scalar %v", ai, i, got, want)
			}
		}
	}
}

// TestUintDivReciprocalExact drives the invariant-divisor reciprocal
// division fast path of arithKernel with adversarial operands (maximal
// dividends, divisors at power-of-two and overflow boundaries) and checks
// it against the hardware divide, which is the semantics value.Arith
// defines.
func TestUintDivReciprocalExact(t *testing.T) {
	xs := []uint64{
		0, 1, 2, 3, 6, 7, 100, 1<<31 - 1, 1 << 31, 1<<32 - 1, 1 << 32,
		1<<63 - 1, 1 << 63, 1<<63 + 1, ^uint64(0) - 1, ^uint64(0),
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		xs = append(xs, rng.Uint64())
	}
	ds := []uint64{
		2, 3, 4, 5, 7, 10, 60, 641, 1<<31 - 1, 1 << 31, 1<<32 - 1,
		1<<32 + 1, 1<<63 - 1, 1 << 63, 1<<63 + 1, ^uint64(0),
	}
	for i := 0; i < 50; i++ {
		if d := rng.Uint64(); d > 1 {
			ds = append(ds, d)
		}
	}
	var col tuple.Column
	for _, x := range xs {
		col.AppendBits(value.Uint, x)
	}
	for _, d := range ds {
		env := &VecEnv{n: len(xs)}
		out, err := arithKernel(env, value.OpDiv, vecVal{col: &col}, vecVal{lit: value.NewUint(d)})
		if err != nil {
			t.Fatalf("d=%d: %v", d, err)
		}
		for i, x := range xs {
			if got, want := out.col.Bits()[i], x/d; got != want {
				t.Fatalf("%d / %d: got %d, want %d", x, d, got, want)
			}
		}
	}
}

// TestDivByOneMatchesArith holds arithKernel's division by a broadcast 1
// (GROUP BY time/1), Int or Uint, to value.Arith — the closure's
// semantics — row by row, result kind included, over a Uint, an Int and a
// mixed-kind column, and one with a NULL, which errs as Arith does.
func TestDivByOneMatchesArith(t *testing.T) {
	uints := []value.Value{value.NewUint(0), value.NewUint(1), value.NewUint(7), value.NewUint(1 << 63), value.NewUint(^uint64(0))}
	ints := []value.Value{value.NewInt(0), value.NewInt(-1), value.NewInt(42), value.NewInt(-1 << 63), value.NewInt(1<<63 - 1)}
	mixed := []value.Value{value.NewInt(-5), value.NewUint(9), value.NewFloat(2.5), value.NewInt(3)}
	null := []value.Value{value.NewInt(-5), value.Value{}, value.NewUint(9)}
	for _, rows := range [][]value.Value{uints, ints, mixed, null} {
		var col tuple.Column
		for _, v := range rows {
			col.AppendValue(v)
		}
		for _, one := range []value.Value{value.NewInt(1), value.NewUint(1)} {
			env := &VecEnv{n: len(rows)}
			out, err := arithKernel(env, value.OpDiv, vecVal{col: &col}, vecVal{lit: one})
			var werr error
			for i, x := range rows {
				want, e := value.Arith(value.OpDiv, x, one)
				if e != nil {
					werr = e
					continue
				}
				if err == nil {
					if got := out.col.Value(i); got.Kind() != want.Kind() || got.Bits() != want.Bits() {
						t.Fatalf("%v (%s) / %v (%s) = %v (%s), want %v (%s)", x, x.Kind(), one, one.Kind(), got, got.Kind(), want, want.Kind())
					}
				}
			}
			if (err != nil) != (werr != nil) { // a kernel errs for the whole batch
				t.Fatalf("%v / %v: kernel error %v, Arith's %v", rows, one, err, werr)
			}
		}
	}
}

// TestVectorizeGroupCalls: CLEANING BY and HAVING of the per-group call
// shape compile to GroupCalls, HAVING's with its superaggregate argument;
// CLEANING BY admits no superaggregate (a cleaning's evictions move it),
// and a HAVING of another shape keeps its closure.
func TestVectorizeGroupCalls(t *testing.T) {
	s := vecTestSchema(t)
	reg := sfunlib.Default(1)
	plan := func(tail string) *VecPlan {
		t.Helper()
		q, err := Parse(`SELECT g, sum(len) FROM S WHERE ssample(len, 10, 2, 10) = TRUE GROUP BY ts AS g, src ` + tail)
		if err != nil {
			t.Fatal(err)
		}
		p, err := Analyze(q, s, reg)
		if err != nil {
			t.Fatal(err)
		}
		vp, ok := Vectorize(p)
		if !ok {
			t.Fatalf("%s: does not vectorize", tail)
		}
		return vp
	}
	vp := plan(`HAVING ssfinal_clean(sum(len), count_distinct$(*)) = TRUE
		CLEANING WHEN ssdo_clean(count_distinct$(*)) = TRUE CLEANING BY ssclean_with(sum(len)) = TRUE`)
	if vp.HavingCall == nil || vp.HavingCall.Fn != "ssfinal_clean" || len(vp.HavingCall.superArgs) != 1 || vp.HavingCall.scan == nil {
		t.Errorf("HAVING: %+v", vp.HavingCall)
	}
	if vp.CleanByCall == nil || vp.CleanByCall.Fn != "ssclean_with" || vp.CleanByCall.cols[0] == nil {
		t.Errorf("CLEANING BY: %+v", vp.CleanByCall)
	}
	vp = plan(`HAVING count(*) > 1 CLEANING WHEN ssdo_clean(count_distinct$(*)) = TRUE
		CLEANING BY ssfinal_clean(sum(len), count_distinct$(*)) = TRUE`)
	if vp.HavingCall != nil || vp.CleanByCall != nil {
		t.Errorf("HAVING %+v, CLEANING BY %+v: want both closures", vp.HavingCall, vp.CleanByCall)
	}
}

// TestGroupCallScanAcrossChunks holds a CLEANING BY pass over more groups
// than one gathered chunk (gatherRows) to the function's Call on each
// group's boxed aggregate, in order, on a twin state: the same groups
// pass, and the states end equal.
func TestGroupCallScanAcrossChunks(t *testing.T) {
	s := vecTestSchema(t)
	reg := sfunlib.Default(1)
	q, err := Parse(`SELECT g, sum(len) FROM S WHERE ssample(len, 10, 2, 10) = TRUE GROUP BY ts AS g, src
		CLEANING WHEN ssdo_clean(count_distinct$(*)) = TRUE CLEANING BY ssclean_with(sum(len)) = TRUE`)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Analyze(q, s, reg)
	if err != nil {
		t.Fatal(err)
	}
	vp, ok := Vectorize(p)
	if !ok || vp.CleanByCall == nil {
		t.Fatal("no CLEANING BY fast path")
	}
	gc := vp.CleanByCall
	newSum, _ := agg.New("sum")
	sums := newSum()
	const groups = 3*gatherRows + 17
	rng := rand.New(rand.NewSource(5))
	slots := make([]int32, groups)
	for i := range slots {
		slots[i] = int32(groups - 1 - i) // visited in an order of their own
		sums.Reset(int32(i))
		sums.Update(int32(i), value.NewInt(int64(1+rng.Intn(3000))))
	}
	doClean, _ := reg.Func("ssdo_clean")
	keep, _ := reg.Func("ssclean_with")
	sample, _ := reg.Func("ssample")
	twin := func() any {
		// N = 1 and no sample above z0 = 1: the cleaning raises z to
		// groups, inside the weights' range, and promotes nothing.
		st := p.States[0].Type.Init(nil)
		if _, err := sample.Call(st, []value.Value{value.NewFloat(0.5), value.NewInt(1), value.NewInt(2), value.NewInt(10)}); err != nil {
			t.Fatal(err)
		}
		if _, err := doClean.Call(st, []value.Value{value.NewInt(groups)}); err != nil {
			t.Fatal(err)
		}
		return st
	}
	scanned, called := []any{twin()}, twin()
	gc.Pass([]agg.Column{sums}, slots, nil)
	var got, want []int
	for from := 0; from < groups; {
		to := min(groups, from+1+rng.Intn(2*gatherRows))
		pass, err := gc.Scan(scanned, from, to)
		if err != nil {
			t.Fatal(err)
		}
		if from = to; pass < to {
			got = append(got, pass)
			from = pass + 1
		}
	}
	for i, slot := range slots {
		v, err := keep.Call(called, []value.Value{sums.Value(slot)})
		if err != nil {
			t.Fatal(err)
		}
		if v.Truth() {
			want = append(want, i)
		}
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("scan kept %v\nCall kept %v", got, want)
	}
	if len(want) == 0 || len(want) == groups {
		t.Fatalf("%d of %d groups kept: the draw misses a case", len(want), groups)
	}
	if !reflect.DeepEqual(scanned[0], called) {
		t.Fatalf("states differ: scanned %+v, called %+v", scanned[0], called)
	}
}
