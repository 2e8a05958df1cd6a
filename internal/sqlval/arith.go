package sqlval

import (
	"errors"
	"fmt"
	"math"
)

// Arithmetic on values follows SQL semantics: any operation with a NULL
// operand yields NULL; INTEGER op INTEGER stays INTEGER (division by zero
// and results outside 64 bits error, as PostgreSQL's bigint does); mixed
// numeric operations promote to FLOAT.

// ErrIntRange is the error of an INTEGER result that does not fit 64 bits.
var ErrIntRange = errors.New("integer out of range")

// AddInt returns a + b and whether it fits 64 bits.
func AddInt(a, b int64) (int64, bool) {
	s := a + b
	return s, (s > a) == (b > 0)
}

// Add returns v + o.
func Add(v, o Value) (Value, error) { return arith(v, o, "+") }

// Sub returns v - o.
func Sub(v, o Value) (Value, error) { return arith(v, o, "-") }

// Mul returns v * o.
func Mul(v, o Value) (Value, error) { return arith(v, o, "*") }

// Div returns v / o. Integer division truncates; division by zero errors.
func Div(v, o Value) (Value, error) { return arith(v, o, "/") }

// Mod returns v % o for integers.
func Mod(v, o Value) (Value, error) { return arith(v, o, "%") }

func arith(v, o Value, op string) (Value, error) {
	if v.IsNull() || o.IsNull() {
		return Null, nil
	}
	// String concatenation via "+" or "||" is handled by the caller; here we
	// only handle numerics.
	if !v.IsNumeric() || !o.IsNumeric() {
		return Null, fmt.Errorf("operator %s requires numeric operands, got %s and %s", op, v.Kind(), o.Kind())
	}
	if v.kind == KindInt && o.kind == KindInt {
		a, b := v.i, o.i
		r, ok := int64(0), true
		switch op {
		case "+":
			r, ok = AddInt(a, b)
		case "-":
			r = a - b
			ok = (r < a) == (b > 0)
		case "*":
			r = a * b
			ok = a == 0 || (r/a == b && !(a == -1 && b == math.MinInt64))
		case "/":
			if b == 0 {
				return Null, fmt.Errorf("division by zero")
			}
			r, ok = a/b, !(a == math.MinInt64 && b == -1)
		case "%":
			if b == 0 {
				return Null, fmt.Errorf("division by zero")
			}
			return NewInt(a % b), nil
		}
		if !ok {
			return Null, ErrIntRange
		}
		return NewInt(r), nil
	}
	a, _ := v.AsFloat()
	b, _ := o.AsFloat()
	switch op {
	case "+":
		return NewFloat(a + b), nil
	case "-":
		return NewFloat(a - b), nil
	case "*":
		return NewFloat(a * b), nil
	case "/":
		if b == 0 {
			return Null, fmt.Errorf("division by zero")
		}
		return NewFloat(a / b), nil
	case "%":
		return Null, fmt.Errorf("operator %% requires integer operands")
	}
	return Null, fmt.Errorf("unknown operator %s", op)
}

// Neg returns -v for numeric v.
func Neg(v Value) (Value, error) {
	switch v.kind {
	case KindNull:
		return Null, nil
	case KindInt:
		if v.i == math.MinInt64 {
			return Null, ErrIntRange
		}
		return NewInt(-v.i), nil
	case KindFloat:
		return NewFloat(-v.f), nil
	default:
		return Null, fmt.Errorf("unary minus requires a numeric operand, got %s", v.Kind())
	}
}

// Concat returns the string concatenation v || o; NULL if either is NULL.
func Concat(v, o Value) (Value, error) {
	if v.IsNull() || o.IsNull() {
		return Null, nil
	}
	return NewString(v.String() + o.String()), nil
}
