package agg

import (
	"math"
	"testing"

	"streamop/internal/agg/aggref"
	"streamop/internal/checkpoint"
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
	if !IsSuper("COUNT_DISTINCT$") {
		t.Error("case-insensitive super lookup failed")
	}
	if IsSuper("sum") {
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
