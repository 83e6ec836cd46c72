// Package value implements the typed scalar values that flow through the
// query engine: tuple fields, aggregate results, expression results and
// stateful-function arguments are all Values.
//
// A Value is a small tagged union. Numeric payloads share a single uint64
// bit-pattern field so that a Value is cheap to copy and never allocates
// for numeric kinds; only string values carry a Go string header.
package value

import (
	"fmt"
	"math"
	"strconv"
)

// Kind enumerates the scalar types supported by the engine.
type Kind uint8

const (
	// Null is the zero Value's kind. Null compares less than every
	// non-null value and equal to itself.
	Null Kind = iota
	// Bool holds true/false (WHERE/HAVING/CLEANING predicates).
	Bool
	// Int holds a signed 64-bit integer.
	Int
	// Uint holds an unsigned 64-bit integer (IP addresses, timestamps).
	Uint
	// Float holds a float64 (thresholds, estimates).
	Float
	// String holds an immutable string.
	String
)

// String returns the lower-case name of the kind, matching the type names
// used by the GSQL dialect.
func (k Kind) String() string {
	switch k {
	case Null:
		return "null"
	case Bool:
		return "bool"
	case Int:
		return "int"
	case Uint:
		return "uint"
	case Float:
		return "float"
	case String:
		return "string"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Numeric reports whether k is one of the numeric kinds (Int, Uint, Float).
func (k Kind) Numeric() bool { return k == Int || k == Uint || k == Float }

// A Value is one scalar datum. The zero Value is Null.
type Value struct {
	kind Kind
	bits uint64 // payload for Bool/Int/Uint/Float
	str  string // payload for String
}

// NewBool returns a Bool value.
func NewBool(b bool) Value {
	var bits uint64
	if b {
		bits = 1
	}
	return Value{kind: Bool, bits: bits}
}

// NewInt returns an Int value.
func NewInt(i int64) Value { return Value{kind: Int, bits: uint64(i)} }

// NewUint returns a Uint value.
func NewUint(u uint64) Value { return Value{kind: Uint, bits: u} }

// NewFloat returns a Float value.
func NewFloat(f float64) Value { return Value{kind: Float, bits: math.Float64bits(f)} }

// NewString returns a String value.
func NewString(s string) Value { return Value{kind: String, str: s} }

// Kind returns the value's kind.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether v is the Null value.
func (v Value) IsNull() bool { return v.kind == Null }

// Bool returns the boolean payload. It panics if v is not a Bool.
func (v Value) Bool() bool {
	if v.kind != Bool {
		panic("value: Bool() on " + v.kind.String())
	}
	return v.bits != 0
}

// Int returns the signed integer payload. It panics if v is not an Int.
func (v Value) Int() int64 {
	if v.kind != Int {
		panic("value: Int() on " + v.kind.String())
	}
	return int64(v.bits)
}

// Uint returns the unsigned integer payload. It panics if v is not a Uint.
func (v Value) Uint() uint64 {
	if v.kind != Uint {
		panic("value: Uint() on " + v.kind.String())
	}
	return v.bits
}

// Float returns the float payload. It panics if v is not a Float.
func (v Value) Float() float64 {
	if v.kind != Float {
		panic("value: Float() on " + v.kind.String())
	}
	return math.Float64frombits(v.bits)
}

// Str returns the string payload. It panics if v is not a String.
func (v Value) Str() string {
	if v.kind != String {
		panic("value: Str() on " + v.kind.String())
	}
	return v.str
}

// AsFloat converts any numeric value to float64. Bool converts to 0/1.
// It panics for String and Null.
func (v Value) AsFloat() float64 {
	switch v.kind {
	case Int:
		return float64(int64(v.bits))
	case Uint:
		return float64(v.bits)
	case Float:
		return math.Float64frombits(v.bits)
	case Bool:
		return float64(v.bits)
	}
	panic("value: AsFloat() on " + v.kind.String())
}

// AsInt converts any numeric value to int64, truncating floats.
// It panics for String and Null.
func (v Value) AsInt() int64 {
	switch v.kind {
	case Int:
		return int64(v.bits)
	case Uint:
		return int64(v.bits)
	case Float:
		return int64(math.Float64frombits(v.bits))
	case Bool:
		return int64(v.bits)
	}
	panic("value: AsInt() on " + v.kind.String())
}

// AsUint converts any numeric value to uint64, truncating floats.
// It panics for String and Null.
func (v Value) AsUint() uint64 {
	switch v.kind {
	case Int:
		return v.bits
	case Uint:
		return v.bits
	case Float:
		return uint64(math.Float64frombits(v.bits))
	case Bool:
		return v.bits
	}
	panic("value: AsUint() on " + v.kind.String())
}

// Truth reports whether v is a true Bool. Non-bool values are false; this
// makes predicate evaluation total without panicking on NULL.
func (v Value) Truth() bool { return v.kind == Bool && v.bits != 0 }

// Bits returns the value's raw 64-bit payload: the two's-complement bits
// for Int, the magnitude for Uint, the IEEE-754 bits for Float and 0/1
// for Bool. String and Null payloads are not representable as bits (the
// result is 0); columnar storage keeps those out of band. This is the
// escape hatch the batch layer (internal/tuple.Batch) uses to store
// column vectors as raw words instead of boxed Values.
func (v Value) Bits() uint64 { return v.bits }

// FromBits reconstructs a numeric or Bool value from its Bits payload.
// It is the inverse of Bits for the numeric kinds; FromBits(String, _)
// and FromBits(Null, _) return the Null value, since their payloads do
// not fit in 64 bits.
func FromBits(k Kind, bits uint64) Value {
	switch k {
	case Bool, Int, Uint, Float:
		return Value{kind: k, bits: bits}
	}
	return Value{}
}

// String renders the value for output rows and diagnostics.
func (v Value) String() string {
	switch v.kind {
	case Null:
		return "NULL"
	case Bool:
		if v.bits != 0 {
			return "TRUE"
		}
		return "FALSE"
	case Int:
		return strconv.FormatInt(int64(v.bits), 10)
	case Uint:
		return strconv.FormatUint(v.bits, 10)
	case Float:
		return strconv.FormatFloat(math.Float64frombits(v.bits), 'g', -1, 64)
	case String:
		return v.str
	}
	return "?"
}

// Compare orders two values. Values of different kinds order by kind
// (Null < Bool < Int < Uint < Float < String), except that numeric kinds
// compare with each other by numeric magnitude. It returns -1, 0 or +1.
func Compare(a, b Value) int {
	if a.kind.Numeric() && b.kind.Numeric() {
		return compareNumeric(a, b)
	}
	if a.kind != b.kind {
		if a.kind < b.kind {
			return -1
		}
		return 1
	}
	switch a.kind {
	case Null:
		return 0
	case Bool:
		return cmpUint(a.bits, b.bits)
	case String:
		switch {
		case a.str < b.str:
			return -1
		case a.str > b.str:
			return 1
		}
		return 0
	}
	return 0
}

func compareNumeric(a, b Value) int {
	// Same-kind fast paths avoid float round-trips for 64-bit integers.
	if a.kind == b.kind {
		switch a.kind {
		case Int:
			return cmpInt(int64(a.bits), int64(b.bits))
		case Uint:
			return cmpUint(a.bits, b.bits)
		case Float:
			return cmpFloat(math.Float64frombits(a.bits), math.Float64frombits(b.bits))
		}
	}
	// Mixed Int/Uint: compare exactly.
	if a.kind == Int && b.kind == Uint {
		ai := int64(a.bits)
		if ai < 0 {
			return -1
		}
		return cmpUint(uint64(ai), b.bits)
	}
	if a.kind == Uint && b.kind == Int {
		return -compareNumeric(b, a)
	}
	// A float is involved: compare as float64.
	return cmpFloat(a.AsFloat(), b.AsFloat())
}

func cmpInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func cmpUint(a, b uint64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// Equal reports whether a and b compare equal under Compare.
func Equal(a, b Value) bool { return Compare(a, b) == 0 }

// Hash returns a 64-bit hash of v, suitable for group-key hashing.
// Values that compare Equal hash identically: all numeric kinds holding the
// same mathematical value produce the same hash.
func Hash(v Value, seed uint64) uint64 {
	if v.kind == String {
		h := seed ^ 0xcbf29ce484222325
		for i := 0; i < len(v.str); i++ {
			h ^= uint64(v.str[i])
			h *= 0x100000001b3
		}
		return mix64(h)
	}
	return HashBits(v.kind, v.bits, seed)
}

// HashBits is Hash of the value of kind k, not String, whose payload word
// is bits (FromBits(k, bits)): what a column of raw words hashes by.
func HashBits(k Kind, bits, seed uint64) uint64 {
	const kindSalt = 0x9e3779b97f4a7c15
	switch k {
	case Null:
		return mix64(seed ^ kindSalt)
	case Bool:
		return mix64(seed ^ (bits + 2))
	case Int, Uint:
		return mix64(seed ^ bits)
	case Float:
		// Canonicalize: integers hash by their two's-complement bits;
		// floats that are mathematically integral hash as integers so
		// NewInt(5), NewUint(5) and NewFloat(5) collide intentionally.
		f := math.Float64frombits(bits)
		if i := int64(f); float64(i) == f {
			return mix64(seed ^ uint64(i))
		}
		return mix64(seed ^ bits ^ 0xf10a)
	}
	return mix64(seed)
}

// mix64 is the splitmix64 finalizer; it decorrelates sequential inputs.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
