package agg

import (
	"testing"

	"streamop/internal/checkpoint"
	"streamop/internal/value"
)

// roundTripAgg encodes a's slot and decodes it into slot 3 of a fresh
// column of name's, failing the test on any codec error or leftover bytes.
func roundTripAgg(t *testing.T, name string, a one) one {
	t.Helper()
	e := checkpoint.NewEncoder()
	if err := a.c.Encode(e, 0); err != nil {
		t.Fatal(err)
	}
	f, _ := New(name)
	got := f()
	got.Reset(3)
	d := checkpoint.NewDecoder(e.Bytes())
	if err := got.Decode(d, 3); err != nil {
		t.Fatal(err)
	}
	if d.Remaining() != 0 {
		t.Fatalf("%d bytes left over decoding %s", d.Remaining(), name)
	}
	return one{slotted{got, 3}}
}

// slotted is slot s of c, as a column of one slot at 0.
type slotted struct {
	Column
	s int32
}

func (c slotted) Update(_ int32, v value.Value) { c.Column.Update(c.s, v) }
func (c slotted) Value(int32) value.Value       { return c.Column.Value(c.s) }

// TestAggRoundTrip feeds every built-in aggregate a value sequence, round
// trips it mid-accumulation, keeps updating both copies, and demands
// identical final values — the "exact resume" contract at the aggregate
// level.
func TestAggRoundTrip(t *testing.T) {
	seq := []value.Value{
		value.NewInt(3), value.NewFloat(1.5), value.NewInt(-2),
		value.NewUint(9), value.NewFloat(0.25),
	}
	for _, name := range []string{"sum", "count", "min", "max", "avg", "first", "last", "var", "stddev"} {
		orig := mk(t, name)
		for _, v := range seq[:3] {
			orig.Update(v)
		}
		restored := roundTripAgg(t, name, orig)
		for _, v := range seq[3:] {
			orig.Update(v)
			restored.Update(v)
		}
		a, b := orig.Value(), restored.Value()
		if value.Compare(a, b) != 0 {
			t.Errorf("%s: restored value %v, want %v", name, b, a)
		}
	}
}

// TestAggRoundTripFresh checks the empty-state round trip: aggregates that
// have seen no input must restore to the same "no value yet" behavior.
func TestAggRoundTripFresh(t *testing.T) {
	for _, name := range []string{"sum", "count", "min", "max", "avg", "first", "last", "var"} {
		orig := mk(t, name)
		restored := roundTripAgg(t, name, orig)
		orig.Update(value.NewInt(11))
		restored.Update(value.NewInt(11))
		if value.Compare(orig.Value(), restored.Value()) != 0 {
			t.Errorf("%s: fresh round trip diverged", name)
		}
	}
}

func TestDecodeAggRejectsUnknownTag(t *testing.T) {
	c := mk(t, "sum").c
	if err := c.Decode(checkpoint.NewDecoder([]byte{0xfe}), 0); err == nil {
		t.Fatal("unknown tag accepted")
	}
	// A known tag of another aggregate: the plan's column is a sum.
	e := checkpoint.NewEncoder()
	if err := mk(t, "count").c.Encode(e, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.Decode(checkpoint.NewDecoder(e.Bytes()), 0); err == nil {
		t.Fatal("a count decoded into a sum column")
	}
}

func newSuper(t *testing.T, name string, consts ...value.Value) Super {
	t.Helper()
	spec, ok := SuperByName(name)
	if !ok {
		t.Fatalf("no superaggregate %q", name)
	}
	s, err := spec.New(consts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func roundTripSuper(t *testing.T, s Super) Super {
	t.Helper()
	e := checkpoint.NewEncoder()
	if err := EncodeSuper(e, s); err != nil {
		t.Fatal(err)
	}
	d := checkpoint.NewDecoder(e.Bytes())
	got, err := DecodeSuper(d)
	if err != nil {
		t.Fatal(err)
	}
	if d.Remaining() != 0 {
		t.Fatalf("%d bytes left over decoding %T", d.Remaining(), s)
	}
	return got
}

// TestSuperRoundTrip round trips each superaggregate mid-stream and checks
// that subsequent group adds/removes land identically on both copies.
func TestSuperRoundTrip(t *testing.T) {
	cases := []struct {
		name   string
		consts []value.Value
	}{
		{"count_distinct$", nil},
		{"sum$", nil},
		{"kth_smallest_value$", []value.Value{value.NewInt(3)}},
		{"min$", nil},
		{"max$", nil},
	}
	for _, tc := range cases {
		orig := newSuper(t, tc.name, tc.consts...)
		for i := 0; i < 10; i++ {
			orig.OnTuple(value.NewInt(int64(i)))
			orig.OnGroupAdd(value.NewInt(int64(i * 3)))
		}
		orig.OnGroupRemove(value.NewInt(6))
		restored := roundTripSuper(t, orig)
		if value.Compare(orig.Value(), restored.Value()) != 0 {
			t.Errorf("%s: restored value %v, want %v", tc.name, restored.Value(), orig.Value())
			continue
		}
		orig.OnGroupAdd(value.NewInt(-5))
		restored.OnGroupAdd(value.NewInt(-5))
		orig.OnGroupRemove(value.NewInt(9))
		restored.OnGroupRemove(value.NewInt(9))
		if value.Compare(orig.Value(), restored.Value()) != 0 {
			t.Errorf("%s: diverged after post-restore updates", tc.name)
		}
	}
}

// TestKthSuperStateSurvivesUnchanged is the ISSUE's SFUN-handoff edge case
// at the aggregate layer: a kth_smallest_value$ tree must come back with
// its full multiset intact, proven by byte-identical re-encoding.
func TestKthSuperStateSurvivesUnchanged(t *testing.T) {
	orig := newSuper(t, "kth_smallest_value$", value.NewInt(5))
	for i := 0; i < 200; i++ {
		orig.OnGroupAdd(value.NewInt(int64((i * 37) % 101)))
	}
	e1 := checkpoint.NewEncoder()
	if err := EncodeSuper(e1, orig); err != nil {
		t.Fatal(err)
	}
	restored := roundTripSuper(t, orig)
	e2 := checkpoint.NewEncoder()
	if err := EncodeSuper(e2, restored); err != nil {
		t.Fatal(err)
	}
	if string(e1.Bytes()) != string(e2.Bytes()) {
		t.Fatal("kth_smallest_value$ state changed across encode/decode")
	}
}

func TestDecodeSuperRejectsBadK(t *testing.T) {
	e := checkpoint.NewEncoder()
	e.U8(3) // tagSuperKth
	e.I64(0)
	e.Bool(false)
	e.U64(1)
	e.U64(2)
	e.U64(3)
	e.U64(4)
	e.Len(0)
	if _, err := DecodeSuper(checkpoint.NewDecoder(e.Bytes())); err == nil {
		t.Fatal("k=0 accepted")
	}
}
