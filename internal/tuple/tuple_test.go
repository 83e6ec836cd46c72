package tuple

import (
	"testing"
	"testing/quick"

	"streamop/internal/value"
)

func pktSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := NewSchema("PKT",
		Field{Name: "time", Kind: value.Uint, Ordering: Increasing},
		Field{Name: "srcIP", Kind: value.Uint},
		Field{Name: "destIP", Kind: value.Uint},
		Field{Name: "len", Kind: value.Int},
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSchemaBasics(t *testing.T) {
	s := pktSchema(t)
	if s.Name() != "PKT" {
		t.Errorf("Name = %q", s.Name())
	}
	if s.NumFields() != 4 {
		t.Errorf("NumFields = %d", s.NumFields())
	}
	if f := s.Field(0); f.Name != "time" || f.Ordering != Increasing {
		t.Errorf("Field(0) = %+v", f)
	}
	if i, ok := s.Lookup("srcip"); !ok || i != 1 {
		t.Errorf("Lookup(srcip) = %d, %v", i, ok)
	}
	if i, ok := s.Lookup("SRCIP"); !ok || i != 1 {
		t.Errorf("case-insensitive Lookup = %d, %v", i, ok)
	}
	if _, ok := s.Lookup("nosuch"); ok {
		t.Error("Lookup(nosuch) ok")
	}
	want := "PKT(time uint increasing, srcIP uint, destIP uint, len int)"
	if got := s.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestSchemaErrors(t *testing.T) {
	if _, err := NewSchema("S", Field{Name: "a", Kind: value.Int}, Field{Name: "A", Kind: value.Int}); err == nil {
		t.Error("duplicate field accepted")
	}
	if _, err := NewSchema("S", Field{Name: "", Kind: value.Int}); err == nil {
		t.Error("empty field name accepted")
	}
}

func TestMustSchemaPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustSchema did not panic")
		}
	}()
	MustSchema("S", Field{Name: "a", Kind: value.Int}, Field{Name: "a", Kind: value.Int})
}

func TestOrderingString(t *testing.T) {
	if Unordered.String() != "unordered" || Increasing.String() != "increasing" || Decreasing.String() != "decreasing" {
		t.Error("Ordering.String mismatch")
	}
}

func TestTupleStringClone(t *testing.T) {
	tp := Tuple{value.NewUint(1), value.NewString("x"), value.NewInt(-2)}
	if got := tp.String(); got != "1,x,-2" {
		t.Errorf("String = %q", got)
	}
	c := tp.Clone()
	c[0] = value.NewUint(99)
	if tp[0].Uint() != 1 {
		t.Error("Clone aliases original")
	}
}

// A Slab's copies are independent of their source and of each other, in
// chunk after chunk, whatever the rows' widths — and cost an allocation per
// slabRows rows, not per row.
func TestSlabClone(t *testing.T) {
	var s Slab
	cols := []*Column{new(Column), new(Column), new(Column)}
	for i := 0; i < 3*slabRows+5; i++ {
		cols[0].AppendValue(value.NewUint(uint64(i)))
		cols[1].AppendValue(value.NewString("x"))
		cols[2].AppendValue(value.NewInt(-2))
	}
	var copies []Tuple
	for i := 0; i < 3*slabRows+5; i++ {
		row := cols
		if i%7 == 0 {
			row = cols[:2] // a narrower row mid-chunk
		}
		c := s.Row(row, i)
		if len(c) != len(row) || cap(c) != len(row) {
			t.Fatalf("copy %d: len %d cap %d, want both %d (an append must not reach the neighbour)", i, len(c), cap(c), len(row))
		}
		copies = append(copies, c)
	}
	if got := s.Row(nil, 0); len(got) != 0 {
		t.Errorf("Row(nil) has %d fields", len(got))
	}
	cols[0].Reset() // the source moves on
	cols[0].AppendValue(value.NewUint(1 << 40))
	for i, c := range copies {
		if c[0].Uint() != uint64(i) || c[1].Str() != "x" {
			t.Fatalf("copy %d reads %v after later copies were made", i, c)
		}
	}
	wide := make([]*Column, 5)
	for j := range wide {
		wide[j] = new(Column)
		wide[j].AppendValue(value.NewUint(uint64(j)))
	}
	perRow := testing.AllocsPerRun(20, func() {
		for i := 0; i < slabRows; i++ {
			s.Row(wide, 0)
		}
	}) / slabRows
	if perRow > 2.0/slabRows {
		t.Errorf("%.4f allocations per copy, want about 1/%d", perRow, slabRows)
	}
}

func TestKeyEquality(t *testing.T) {
	k1 := MakeKey([]value.Value{value.NewUint(10), value.NewString("a")})
	k2 := MakeKey([]value.Value{value.NewUint(10), value.NewString("a")})
	k3 := MakeKey([]value.Value{value.NewUint(10), value.NewString("b")})
	if !k1.Equal(k2) {
		t.Error("equal keys not Equal")
	}
	if k1.Hash() != k2.Hash() {
		t.Error("equal keys hash differently")
	}
	if k1.Equal(k3) {
		t.Error("different keys Equal")
	}
	if k1.Equal(MakeKey([]value.Value{value.NewUint(10)})) {
		t.Error("different-arity keys Equal")
	}
}

func TestKeyCopiesInput(t *testing.T) {
	vals := []value.Value{value.NewInt(1)}
	k := MakeKey(vals)
	vals[0] = value.NewInt(2)
	if k.Values()[0].Int() != 1 {
		t.Error("MakeKey aliases caller slice")
	}
}

func TestKeyString(t *testing.T) {
	k := MakeKey([]value.Value{value.NewInt(1), value.NewString("x")})
	if got := k.String(); got != "[1|x]" {
		t.Errorf("Key.String = %q", got)
	}
}

func TestKeyHashQuick(t *testing.T) {
	// Property: keys built from equal components are Equal with equal hash;
	// a single perturbed component breaks equality.
	f := func(a, b int64, s string) bool {
		v := []value.Value{value.NewInt(a), value.NewInt(b), value.NewString(s)}
		k1, k2 := MakeKey(v), MakeKey(v)
		if !k1.Equal(k2) || k1.Hash() != k2.Hash() {
			return false
		}
		v2 := []value.Value{value.NewInt(a + 1), value.NewInt(b), value.NewString(s)}
		return !k1.Equal(MakeKey(v2))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
