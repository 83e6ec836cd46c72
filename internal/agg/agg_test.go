package agg

import (
	"math"
	"testing"

	"streamop/internal/agg/aggref"
	"streamop/internal/checkpoint"
	"streamop/internal/tuple"
	"streamop/internal/value"
	"streamop/internal/xrand"
)

// one is a column of one slot, used as a single aggregate.
type one struct{ c Column }

func (o one) Update(v value.Value) { o.c.Update(0, v) }
func (o one) Value() value.Value   { return o.c.Value(0) }

func mk(t *testing.T, name string) one {
	t.Helper()
	f, ok := New(name)
	if !ok {
		t.Fatalf("New(%q) unknown", name)
	}
	c := f()
	c.Reset(0)
	return one{c}
}

func TestUnknownAggregate(t *testing.T) {
	if _, ok := New("median"); ok {
		t.Error("unknown aggregate accepted")
	}
	if IsAggregate("median") {
		t.Error("IsAggregate(median)")
	}
	if !IsAggregate("SUM") {
		t.Error("IsAggregate case-insensitivity")
	}
}

func TestSumInt(t *testing.T) {
	a := mk(t, "sum")
	if !a.Value().IsNull() {
		t.Error("empty sum not NULL")
	}
	a.Update(value.NewInt(3))
	a.Update(value.NewInt(-1))
	a.Update(value.NewUint(10))
	if v := a.Value(); v.Kind() != value.Int || v.Int() != 12 {
		t.Errorf("sum = %v (%s)", v, v.Kind())
	}
}

func TestSumFloatPromotion(t *testing.T) {
	a := mk(t, "sum")
	a.Update(value.NewInt(2))
	a.Update(value.NewFloat(0.5))
	a.Update(value.NewInt(1))
	if v := a.Value(); v.Kind() != value.Float || v.Float() != 3.5 {
		t.Errorf("sum = %v (%s)", v, v.Kind())
	}
}

func TestSumIgnoresNull(t *testing.T) {
	a := mk(t, "sum")
	a.Update(value.Value{})
	if !a.Value().IsNull() {
		t.Error("NULL-only sum not NULL")
	}
	a.Update(value.NewInt(5))
	a.Update(value.Value{})
	if a.Value().Int() != 5 {
		t.Error("NULL affected sum")
	}
}

func TestCount(t *testing.T) {
	a := mk(t, "count")
	a.Update(value.Value{})
	a.Update(value.NewInt(9))
	if a.Value().Int() != 2 {
		t.Errorf("count = %v", a.Value())
	}
}

func TestMinMax(t *testing.T) {
	mn, mx := mk(t, "min"), mk(t, "max")
	for _, x := range []int64{5, 2, 9, 2} {
		mn.Update(value.NewInt(x))
		mx.Update(value.NewInt(x))
	}
	if mn.Value().Int() != 2 || mx.Value().Int() != 9 {
		t.Errorf("min=%v max=%v", mn.Value(), mx.Value())
	}
}

func TestAvg(t *testing.T) {
	a := mk(t, "avg")
	if !a.Value().IsNull() {
		t.Error("empty avg not NULL")
	}
	a.Update(value.NewInt(1))
	a.Update(value.NewInt(2))
	a.Update(value.NewInt(6))
	if v := a.Value(); v.Float() != 3 {
		t.Errorf("avg = %v", v)
	}
}

func TestFirstLast(t *testing.T) {
	f, l := mk(t, "first"), mk(t, "last")
	for _, x := range []int64{7, 8, 9} {
		f.Update(value.NewInt(x))
		l.Update(value.NewInt(x))
	}
	if f.Value().Int() != 7 || l.Value().Int() != 9 {
		t.Errorf("first=%v last=%v", f.Value(), l.Value())
	}
}

func TestSuperLookup(t *testing.T) {
	if _, ok := SuperByName("COUNT_DISTINCT$"); !ok {
		t.Error("case-insensitive super lookup failed")
	}
	if _, ok := SuperByName("sum"); ok {
		t.Error("group aggregate reported as super")
	}
	if _, ok := SuperByName("bogus$"); ok {
		t.Error("unknown super accepted")
	}
}

func TestCountDistinctSuper(t *testing.T) {
	spec, _ := SuperByName("count_distinct$")
	if spec.Contribution != ContribNone {
		t.Error("count_distinct$ contribution policy")
	}
	s, err := spec.New(nil)
	if err != nil {
		t.Fatal(err)
	}
	s.OnGroupAdd(value.Value{})
	s.OnGroupAdd(value.Value{})
	s.OnTuple(value.NewInt(99)) // tuples don't count
	if s.Value().Int() != 2 {
		t.Errorf("count_distinct = %v", s.Value())
	}
	s.OnGroupRemove(value.Value{})
	if s.Value().Int() != 1 {
		t.Errorf("after remove = %v", s.Value())
	}
	if _, err := spec.New([]value.Value{value.NewInt(1)}); err == nil {
		t.Error("count_distinct$ with consts accepted")
	}
}

func TestSumSuper(t *testing.T) {
	spec, _ := SuperByName("sum$")
	if spec.Contribution != ContribSum {
		t.Error("sum$ contribution policy")
	}
	s, _ := spec.New(nil)
	s.OnTuple(value.NewInt(10))
	s.OnTuple(value.NewInt(5))
	s.OnTuple(value.Value{}) // ignored
	if s.Value().Float() != 15 {
		t.Errorf("sum$ = %v", s.Value())
	}
	s.OnGroupRemove(value.NewInt(10)) // evict the group that contributed 10
	if s.Value().Float() != 5 {
		t.Errorf("after eviction = %v", s.Value())
	}
}

func TestKthSmallestSuper(t *testing.T) {
	spec, _ := SuperByName("kth_smallest_value$")
	if spec.Contribution != ContribFirst {
		t.Error("kth$ contribution policy")
	}
	s, err := spec.New([]value.Value{value.NewInt(3)})
	if err != nil {
		t.Fatal(err)
	}
	// Fewer than k groups: +Inf so admission predicates pass.
	if v := s.Value(); !math.IsInf(v.Float(), 1) {
		t.Errorf("unfilled kth = %v", v)
	}
	for _, x := range []uint64{50, 10, 30, 20} {
		s.OnGroupAdd(value.NewUint(x))
	}
	if v := s.Value(); v.Uint() != 30 {
		t.Errorf("3rd smallest = %v", v)
	}
	s.OnGroupRemove(value.NewUint(10))
	if v := s.Value(); v.Uint() != 50 {
		t.Errorf("after removal = %v", v)
	}
}

func TestKthSuperValidation(t *testing.T) {
	spec, _ := SuperByName("kth_smallest_value$")
	for _, consts := range [][]value.Value{
		nil,
		{value.NewInt(0)},
		{value.NewString("x")},
		{value.NewInt(1), value.NewInt(2)},
	} {
		if _, err := spec.New(consts); err == nil {
			t.Errorf("consts %v accepted", consts)
		}
	}
}

func TestMinSuper(t *testing.T) {
	spec, _ := SuperByName("min$")
	s, _ := spec.New(nil)
	s.OnGroupAdd(value.NewInt(7))
	s.OnGroupAdd(value.NewInt(3))
	if s.Value().Int() != 3 {
		t.Errorf("min$ = %v", s.Value())
	}
	s.OnGroupRemove(value.NewInt(3))
	if s.Value().Int() != 7 {
		t.Errorf("min$ after removal = %v", s.Value())
	}
}

func TestVarStddev(t *testing.T) {
	va, sd := mk(t, "var"), mk(t, "stddev")
	if !va.Value().IsNull() {
		t.Error("empty var not NULL")
	}
	for _, x := range []int64{2, 4, 4, 4, 5, 5, 7, 9} {
		va.Update(value.NewInt(x))
		sd.Update(value.NewInt(x))
	}
	// Known example: population variance 4, stddev 2.
	if v := va.Value().Float(); math.Abs(v-4) > 1e-9 {
		t.Errorf("var = %v", v)
	}
	if v := sd.Value().Float(); math.Abs(v-2) > 1e-9 {
		t.Errorf("stddev = %v", v)
	}
	va.Update(value.Value{}) // NULL ignored
	if v := va.Value().Float(); math.Abs(v-4) > 1e-9 {
		t.Errorf("var after NULL = %v", v)
	}
}

func TestMaxSuper(t *testing.T) {
	spec, ok := SuperByName("max$")
	if !ok {
		t.Fatal("max$ unknown")
	}
	s, err := spec.New(nil)
	if err != nil {
		t.Fatal(err)
	}
	if v := s.Value(); !math.IsInf(v.Float(), -1) {
		t.Errorf("empty max$ = %v, want -Inf", v)
	}
	s.OnGroupAdd(value.NewInt(3))
	s.OnGroupAdd(value.NewInt(9))
	s.OnGroupAdd(value.NewInt(5))
	if s.Value().Int() != 9 {
		t.Errorf("max$ = %v", s.Value())
	}
	s.OnGroupRemove(value.NewInt(9))
	if s.Value().Int() != 5 {
		t.Errorf("max$ after removal = %v", s.Value())
	}
	if _, err := spec.New([]value.Value{value.NewInt(1)}); err == nil {
		t.Error("max$ with consts accepted")
	}
}

// TestColumnsMatchReference folds random values, of every kind and NULL,
// into 9 slots of each built-in column at once, resetting slots as it
// goes, and holds every slot's value and encoding to a reference
// aggregate fed the same values since the slot's last reset.
func TestColumnsMatchReference(t *testing.T) {
	r := xrand.New(12)
	vals := []value.Value{
		{}, value.NewInt(-3), value.NewInt(7), value.NewUint(5), value.NewFloat(2.5),
		value.NewFloat(-0.0), value.NewString("a"), value.NewString("b"), value.NewBool(true),
	}
	for _, name := range []string{"sum", "count", "min", "max", "avg", "first", "last", "var", "stddev"} {
		f, _ := New(name)
		c := f()
		refs := make([]aggref.Agg, 9)
		for s := range refs {
			c.Reset(int32(s))
			refs[s], _ = aggref.New(name)
		}
		for step := 0; step < 3000; step++ {
			s := r.Intn(len(refs))
			if r.Intn(40) == 0 {
				c.Reset(int32(s))
				refs[s], _ = aggref.New(name)
				continue
			}
			v := vals[r.Intn(len(vals))]
			if name != "min" && name != "max" && name != "first" && name != "last" && v.Kind() == value.String {
				continue // a String in an arithmetic aggregate waits for typed plans
			}
			c.Update(int32(s), v)
			refs[s].Update(v)
			got, want := c.Value(int32(s)), refs[s].Value()
			if got.Kind() != want.Kind() || got.Bits() != want.Bits() || got.String() != want.String() {
				t.Fatalf("%s step %d slot %d: %v, reference %v", name, step, s, got, want)
			}
		}
		for s, ref := range refs {
			e, want := checkpoint.NewEncoder(), checkpoint.NewEncoder()
			if err := c.Encode(e, int32(s)); err != nil {
				t.Fatal(err)
			}
			ref.Encode(want)
			if string(e.Bytes()) != string(want.Bytes()) {
				t.Fatalf("%s slot %d: encodes %x, reference %x", name, s, e.Bytes(), want.Bytes())
			}
		}
	}
}

// TestGatherMatchesValue holds Gather to Value slot by slot, over slots in
// an order of their own: integer sums and counts (which move as words),
// sums a float or an unseen slot keeps boxed, and a boxed column (min).
func TestGatherMatchesValue(t *testing.T) {
	for _, tc := range []struct {
		name string
		vals func(s int) []value.Value // the updates slot s takes
	}{
		{"sum", func(s int) []value.Value { return []value.Value{value.NewInt(int64(s)), value.NewInt(-3)} }},
		{"sum", func(s int) []value.Value {
			if s == 5 {
				return []value.Value{value.NewFloat(0.5)}
			}
			return []value.Value{value.NewInt(int64(s))}
		}},
		{"sum", func(s int) []value.Value {
			if s == 2 {
				return nil // unseen: NULL
			}
			return []value.Value{value.NewUint(uint64(s))}
		}},
		{"count", func(s int) []value.Value { return make([]value.Value, s%4) }},
		{"min", func(s int) []value.Value { return []value.Value{value.NewInt(int64(9 - s)), value.NewString("x")} }},
	} {
		f, _ := New(tc.name)
		c := f()
		for s := range 8 {
			c.Reset(int32(s))
			for _, v := range tc.vals(s) {
				c.Update(int32(s), v)
			}
		}
		slots := []int32{7, 2, 5, 0, 3}
		var dst tuple.Column
		dst.AppendValue(value.NewString("kept")) // Gather appends
		Gather(&dst, c, slots)
		if dst.Len() != len(slots)+1 {
			t.Fatalf("%s: %d rows, want %d", tc.name, dst.Len(), len(slots)+1)
		}
		for i, s := range slots {
			got, want := dst.Value(i+1), c.Value(s)
			if got.Kind() != want.Kind() || got.String() != want.String() || got.Bits() != want.Bits() {
				t.Errorf("%s: slot %d gathered %v (%v), Value %v (%v)", tc.name, s, got, got.Kind(), want, want.Kind())
			}
		}
	}
}

// TestScatterMatchesUpdate holds Scatter to Update row by row: every
// built-in aggregate over uniform Int and Uint columns (the typed loops),
// a Float, a mixed-kind and an absent argument, slots repeating within the
// run and a sum slot already floated.
func TestScatterMatchesUpdate(t *testing.T) {
	col := func(vals ...value.Value) *tuple.Column {
		c := new(tuple.Column)
		for _, v := range vals {
			c.AppendValue(v)
		}
		return c
	}
	args := map[string]*tuple.Column{
		"int":   col(value.NewInt(3), value.NewInt(-7), value.NewInt(1<<40), value.NewInt(0), value.NewInt(9), value.NewInt(-1)),
		"uint":  col(value.NewUint(3), value.NewUint(1<<63), value.NewUint(40), value.NewUint(0), value.NewUint(9), value.NewUint(1)),
		"float": col(value.NewFloat(0.5), value.NewFloat(-2), value.NewFloat(1e9), value.NewFloat(3), value.NewFloat(-0.0), value.NewFloat(7.25)),
		"mixed": col(value.NewInt(3), value.Value{}, value.NewFloat(2.5), value.NewUint(4), value.NewInt(-1), value.NewBool(true)),
		"none":  nil,
	}
	rows := []int32{5, 0, 2, 2, 4, 1, 3, 0}
	slots := []int32{1, 0, 3, 1, 1, 2, 0, 3}
	for _, name := range []string{"sum", "count", "min", "max", "avg", "first", "last", "var", "stddev"} {
		for argName, arg := range args {
			if arg == nil && name != "count" {
				continue
			}
			f, _ := New(name)
			got, want := f(), f()
			for s := range int32(4) {
				got.Reset(s)
				want.Reset(s)
			}
			// Slot 3 of a sum holds a float before the run.
			got.Update(3, value.NewFloat(0.25))
			want.Update(3, value.NewFloat(0.25))
			Scatter(got, slots, arg, rows)
			for i, s := range slots {
				var v value.Value
				if arg != nil {
					v = arg.Value(int(rows[i]))
				}
				want.Update(s, v)
			}
			for s := range int32(4) {
				e, w := checkpoint.NewEncoder(), checkpoint.NewEncoder()
				if err := got.Encode(e, s); err != nil {
					t.Fatal(err)
				}
				if err := want.Encode(w, s); err != nil {
					t.Fatal(err)
				}
				if string(e.Bytes()) != string(w.Bytes()) {
					t.Errorf("%s(%s) slot %d: Scatter %v, Update %v", name, argName, s, got.Value(s), want.Value(s))
				}
			}
		}
	}
}
