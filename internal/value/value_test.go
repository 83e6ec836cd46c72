package value

import (
	"math"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		Null: "null", Bool: "bool", Int: "int", Uint: "uint",
		Float: "float", String: "string", Kind(42): "kind(42)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestConstructorsAndAccessors(t *testing.T) {
	if v := NewBool(true); !v.Bool() || v.Kind() != Bool {
		t.Errorf("NewBool(true) = %v", v)
	}
	if v := NewBool(false); v.Bool() {
		t.Errorf("NewBool(false).Bool() = true")
	}
	if v := NewInt(-7); v.Int() != -7 {
		t.Errorf("NewInt(-7).Int() = %d", v.Int())
	}
	if v := NewUint(math.MaxUint64); v.Uint() != math.MaxUint64 {
		t.Errorf("NewUint(max).Uint() = %d", v.Uint())
	}
	if v := NewFloat(3.25); v.Float() != 3.25 {
		t.Errorf("NewFloat(3.25).Float() = %g", v.Float())
	}
	if v := NewString("abc"); v.Str() != "abc" {
		t.Errorf("NewString.Str() = %q", v.Str())
	}
	var zero Value
	if !zero.IsNull() {
		t.Error("zero Value is not Null")
	}
}

func TestAccessorPanics(t *testing.T) {
	cases := []struct {
		name string
		fn   func()
	}{
		{"Bool on Int", func() { NewInt(1).Bool() }},
		{"Int on Bool", func() { NewBool(true).Int() }},
		{"Uint on String", func() { NewString("x").Uint() }},
		{"Float on Null", func() { Value{}.Float() }},
		{"Str on Int", func() { NewInt(1).Str() }},
		{"AsFloat on String", func() { NewString("x").AsFloat() }},
		{"AsInt on Null", func() { Value{}.AsInt() }},
		{"AsUint on String", func() { NewString("x").AsUint() }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", tc.name)
				}
			}()
			tc.fn()
		})
	}
}

func TestConversions(t *testing.T) {
	if got := NewInt(-3).AsFloat(); got != -3 {
		t.Errorf("Int(-3).AsFloat() = %g", got)
	}
	if got := NewUint(10).AsFloat(); got != 10 {
		t.Errorf("Uint(10).AsFloat() = %g", got)
	}
	if got := NewFloat(2.9).AsInt(); got != 2 {
		t.Errorf("Float(2.9).AsInt() = %d", got)
	}
	if got := NewBool(true).AsInt(); got != 1 {
		t.Errorf("Bool(true).AsInt() = %d", got)
	}
	if got := NewFloat(7.1).AsUint(); got != 7 {
		t.Errorf("Float(7.1).AsUint() = %d", got)
	}
}

func TestTruth(t *testing.T) {
	if !NewBool(true).Truth() {
		t.Error("true is not Truth")
	}
	for _, v := range []Value{NewBool(false), NewInt(1), NewString("true"), {}} {
		if v.Truth() {
			t.Errorf("%v.Truth() = true", v)
		}
	}
}

func TestValueString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Value{}, "NULL"},
		{NewBool(true), "TRUE"},
		{NewBool(false), "FALSE"},
		{NewInt(-5), "-5"},
		{NewUint(5), "5"},
		{NewFloat(1.5), "1.5"},
		{NewString("hi"), "hi"},
	}
	for _, tc := range cases {
		if got := tc.v.String(); got != tc.want {
			t.Errorf("%#v.String() = %q, want %q", tc.v, got, tc.want)
		}
	}
}

func TestCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{NewInt(1), NewInt(2), -1},
		{NewInt(2), NewInt(2), 0},
		{NewInt(3), NewInt(2), 1},
		{NewUint(1), NewUint(2), -1},
		{NewFloat(1.5), NewFloat(2.5), -1},
		{NewInt(-1), NewUint(0), -1},            // mixed int/uint, negative
		{NewUint(math.MaxUint64), NewInt(5), 1}, // beyond int64 range
		{NewInt(5), NewUint(5), 0},
		{NewInt(2), NewFloat(2.5), -1},
		{NewFloat(2.0), NewInt(2), 0},
		{NewString("a"), NewString("b"), -1},
		{NewString("b"), NewString("b"), 0},
		{NewString("c"), NewString("b"), 1},
		{Value{}, NewInt(0), -1}, // Null < everything
		{Value{}, Value{}, 0},
		{NewBool(false), NewBool(true), -1},
		{NewBool(true), NewBool(true), 0},
		{NewBool(true), NewString("x"), -1}, // cross-kind by kind order
	}
	for _, tc := range cases {
		if got := Compare(tc.a, tc.b); got != tc.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
		if got := Compare(tc.b, tc.a); got != -tc.want {
			t.Errorf("Compare(%v, %v) = %d, want %d (antisymmetry)", tc.b, tc.a, got, -tc.want)
		}
	}
}

func TestEqualHashConsistency(t *testing.T) {
	// Values that compare equal must hash equal, across kinds.
	groups := [][]Value{
		{NewInt(5), NewUint(5), NewFloat(5)},
		{NewInt(-3), NewFloat(-3)},
		{NewInt(0), NewUint(0), NewFloat(0)},
	}
	for _, g := range groups {
		for i := 1; i < len(g); i++ {
			if !Equal(g[0], g[i]) {
				t.Errorf("Equal(%v, %v) = false", g[0], g[i])
			}
			if Hash(g[0], 1) != Hash(g[i], 1) {
				t.Errorf("Hash(%v) != Hash(%v)", g[0], g[i])
			}
		}
	}
}

func TestHashSpreads(t *testing.T) {
	seen := map[uint64]bool{}
	for i := int64(0); i < 1000; i++ {
		h := Hash(NewInt(i), 0)
		if seen[h] {
			t.Fatalf("hash collision at %d", i)
		}
		seen[h] = true
	}
	if Hash(NewString("abc"), 0) == Hash(NewString("abd"), 0) {
		t.Error("string hash collision on near-identical strings")
	}
	if Hash(NewInt(1), 0) == Hash(NewInt(1), 1) {
		t.Error("seed does not affect hash")
	}
}

func TestCompareTransitivityQuick(t *testing.T) {
	// Property: sign(Compare) is a total preorder on random numeric values.
	f := func(a, b, c int64, fa, fb float64) bool {
		vals := []Value{NewInt(a), NewInt(b), NewInt(c), NewFloat(fa), NewFloat(fb), NewUint(uint64(a))}
		for _, x := range vals {
			for _, y := range vals {
				if Compare(x, y) != -Compare(y, x) {
					return false
				}
				for _, z := range vals {
					if Compare(x, y) <= 0 && Compare(y, z) <= 0 && Compare(x, z) > 0 {
						return false
					}
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 50}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestArith(t *testing.T) {
	cases := []struct {
		op   BinOp
		a, b Value
		want Value
	}{
		{OpAdd, NewInt(2), NewInt(3), NewInt(5)},
		{OpSub, NewInt(2), NewInt(3), NewInt(-1)},
		{OpMul, NewInt(4), NewInt(3), NewInt(12)},
		{OpDiv, NewInt(7), NewInt(2), NewInt(3)},
		{OpMod, NewInt(7), NewInt(2), NewInt(1)},
		{OpAdd, NewUint(2), NewUint(3), NewUint(5)},
		{OpDiv, NewUint(7), NewUint(2), NewUint(3)},
		{OpMod, NewUint(7), NewUint(4), NewUint(3)},
		{OpAdd, NewInt(2), NewFloat(0.5), NewFloat(2.5)},
		{OpDiv, NewFloat(1), NewFloat(4), NewFloat(0.25)},
		{OpMul, NewUint(2), NewInt(3), NewUint(6)}, // uint promotion
	}
	for _, tc := range cases {
		got, err := Arith(tc.op, tc.a, tc.b)
		if err != nil {
			t.Errorf("Arith(%v, %v, %v): %v", tc.op, tc.a, tc.b, err)
			continue
		}
		if !Equal(got, tc.want) || got.Kind() != tc.want.Kind() {
			t.Errorf("Arith(%v, %v, %v) = %v (%s), want %v (%s)",
				tc.op, tc.a, tc.b, got, got.Kind(), tc.want, tc.want.Kind())
		}
	}
}

func TestArithErrors(t *testing.T) {
	if _, err := Arith(OpDiv, NewInt(1), NewInt(0)); err == nil {
		t.Error("int division by zero did not error")
	}
	if _, err := Arith(OpMod, NewUint(1), NewUint(0)); err == nil {
		t.Error("uint modulo by zero did not error")
	}
	if _, err := Arith(OpAdd, NewString("a"), NewInt(1)); err == nil {
		t.Error("string arithmetic did not error")
	}
	if _, err := Arith(OpMod, NewFloat(1), NewFloat(2)); err == nil {
		t.Error("float modulo did not error")
	}
}

func TestNeg(t *testing.T) {
	if v, err := Neg(NewInt(5)); err != nil || v.Int() != -5 {
		t.Errorf("Neg(5) = %v, %v", v, err)
	}
	if v, err := Neg(NewUint(5)); err != nil || v.Int() != -5 {
		t.Errorf("Neg(uint 5) = %v, %v", v, err)
	}
	if v, err := Neg(NewFloat(1.5)); err != nil || v.Float() != -1.5 {
		t.Errorf("Neg(1.5) = %v, %v", v, err)
	}
	if _, err := Neg(NewString("x")); err == nil {
		t.Error("Neg(string) did not error")
	}
}

func TestArithPromotionQuick(t *testing.T) {
	// Property: Int+Int add matches int64 add; Float involvement yields Float.
	f := func(a, b int32) bool {
		got, err := Arith(OpAdd, NewInt(int64(a)), NewInt(int64(b)))
		if err != nil || got.Kind() != Int {
			return false
		}
		if got.Int() != int64(a)+int64(b) {
			return false
		}
		fg, err := Arith(OpAdd, NewFloat(float64(a)), NewInt(int64(b)))
		return err == nil && fg.Kind() == Float && fg.Float() == float64(a)+float64(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBinOpString(t *testing.T) {
	cases := map[BinOp]string{
		OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/", OpMod: "%", BinOp(99): "?",
	}
	for op, want := range cases {
		if got := op.String(); got != want {
			t.Errorf("BinOp(%d).String() = %q, want %q", op, got, want)
		}
	}
}

func TestBoolNumericConversions(t *testing.T) {
	if NewBool(true).AsFloat() != 1 || NewBool(false).AsFloat() != 0 {
		t.Error("Bool AsFloat")
	}
	if NewBool(true).AsUint() != 1 {
		t.Error("Bool AsUint")
	}
}

func TestUintArithWraps(t *testing.T) {
	// Uint subtraction wraps (two's complement), like Go's own uints.
	v, err := Arith(OpSub, NewUint(1), NewUint(2))
	if err != nil {
		t.Fatal(err)
	}
	if v.Uint() != math.MaxUint64 {
		t.Errorf("uint 1-2 = %v", v)
	}
}

func TestFloatDivByZero(t *testing.T) {
	// Float division by zero yields +Inf (IEEE semantics), not an error.
	v, err := Arith(OpDiv, NewFloat(1), NewFloat(0))
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(v.Float(), 1) {
		t.Errorf("1.0/0.0 = %v", v)
	}
}

func TestHashNullAndBool(t *testing.T) {
	if Hash(Value{}, 1) == Hash(Value{}, 2) {
		t.Error("Null hash ignores seed")
	}
	if Hash(NewBool(true), 0) == Hash(NewBool(false), 0) {
		t.Error("Bool hash collision")
	}
	// Non-integral floats hash by bit pattern, distinct from integers.
	if Hash(NewFloat(1.5), 0) == Hash(NewInt(1), 0) {
		t.Error("1.5 hashes like 1")
	}
	if Hash(NewFloat(1.5), 0) != Hash(NewFloat(1.5), 0) {
		t.Error("float hash not deterministic")
	}
}
