package value

import "fmt"

// Arithmetic on Values implements the GSQL promotion rules: if either
// operand is Float the result is Float; else if either is Uint the result
// is Uint; else Int. Division by an integer zero returns an error rather
// than panicking so queries fail cleanly.

// BinOp identifies an arithmetic operator.
type BinOp uint8

const (
	OpAdd BinOp = iota
	OpSub
	OpMul
	OpDiv
	OpMod
)

func (op BinOp) String() string {
	switch op {
	case OpAdd:
		return "+"
	case OpSub:
		return "-"
	case OpMul:
		return "*"
	case OpDiv:
		return "/"
	case OpMod:
		return "%"
	}
	return "?"
}

// Arith applies op to two numeric values using the promotion rules above.
func Arith(op BinOp, a, b Value) (Value, error) {
	if !a.kind.Numeric() || !b.kind.Numeric() {
		return Value{}, fmt.Errorf("value: %s requires numeric operands, got %s and %s", op, a.kind, b.kind)
	}
	if a.kind == Float || b.kind == Float {
		x, y := a.AsFloat(), b.AsFloat()
		switch op {
		case OpAdd:
			return NewFloat(x + y), nil
		case OpSub:
			return NewFloat(x - y), nil
		case OpMul:
			return NewFloat(x * y), nil
		case OpDiv:
			return NewFloat(x / y), nil
		case OpMod:
			return Value{}, fmt.Errorf("value: %% not defined for float")
		}
	}
	if a.kind == Uint || b.kind == Uint {
		x, y := a.AsUint(), b.AsUint()
		switch op {
		case OpAdd:
			return NewUint(x + y), nil
		case OpSub:
			return NewUint(x - y), nil
		case OpMul:
			return NewUint(x * y), nil
		case OpDiv:
			if y == 0 {
				return Value{}, fmt.Errorf("value: division by zero")
			}
			return NewUint(x / y), nil
		case OpMod:
			if y == 0 {
				return Value{}, fmt.Errorf("value: modulo by zero")
			}
			return NewUint(x % y), nil
		}
	}
	x, y := a.AsInt(), b.AsInt()
	switch op {
	case OpAdd:
		return NewInt(x + y), nil
	case OpSub:
		return NewInt(x - y), nil
	case OpMul:
		return NewInt(x * y), nil
	case OpDiv:
		if y == 0 {
			return Value{}, fmt.Errorf("value: division by zero")
		}
		return NewInt(x / y), nil
	case OpMod:
		if y == 0 {
			return Value{}, fmt.Errorf("value: modulo by zero")
		}
		return NewInt(x % y), nil
	}
	return Value{}, fmt.Errorf("value: unknown operator %d", op)
}

// Neg negates a numeric value. Uints are negated as Int.
func Neg(a Value) (Value, error) {
	switch a.kind {
	case Int:
		return NewInt(-a.Int()), nil
	case Uint:
		return NewInt(-int64(a.Uint())), nil
	case Float:
		return NewFloat(-a.Float()), nil
	}
	return Value{}, fmt.Errorf("value: cannot negate %s", a.kind)
}
