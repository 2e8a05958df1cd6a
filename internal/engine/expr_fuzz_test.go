package engine

import (
	"encoding/binary"
	"math"
	"testing"

	"ldv/internal/sqlparse"
	"ldv/internal/sqlval"
)

// fuzzValue decodes one typed value from the front of data: a kind
// selector byte, then a payload that favours the edges the kernels must
// get right (INTEGERs beyond 2^53, −0, NaN, cross-kind numbers).
func fuzzValue(data []byte) (sqlval.Value, []byte) {
	take := func(n int) []byte {
		n = min(n, len(data))
		b := data[:n]
		data = data[n:]
		return b
	}
	var raw [8]byte
	sel := take(1)
	if len(sel) == 0 {
		return sqlval.Null, data
	}
	copy(raw[:], take(8))
	u := binary.LittleEndian.Uint64(raw[:])
	switch sel[0] % 8 {
	case 1:
		return sqlval.NewInt(int64(u)), data
	case 2:
		return sqlval.NewFloat(math.Float64frombits(u)), data
	case 3:
		return sqlval.NewInt(1<<53 + int64(int8(u))), data
	case 4:
		return sqlval.NewFloat(float64(1<<53 + int64(int8(u)))), data
	case 5:
		return sqlval.NewString(string(raw[:u%4])), data
	case 6:
		return sqlval.NewBool(u&1 == 1), data
	case 7:
		return sqlval.NewDateDays(int64(int8(u))), data
	}
	return sqlval.Null, data
}

// FuzzPredicate asserts that every predicate kernel (slot op constant,
// constant op slot, slot op slot, slot [NOT] BETWEEN constant AND
// constant) gives the same tri-state as the same predicate bound through
// the generic closures.
func FuzzPredicate(f *testing.F) {
	f.Add(byte(0), byte(0), []byte{3, 1, 0, 0, 0, 0, 0, 0, 0, 4, 1})
	f.Add(byte(3), byte(2), []byte{1, 1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0xf0, 0x3f})
	f.Add(byte(6), byte(1), []byte{5, 2, 0, 0, 0, 0, 0, 0, 0, 5, 1, 0, 0, 0, 0, 0, 0, 0, 5, 3})
	f.Add(byte(7), byte(3), []byte{2, 0, 0, 0, 0, 0, 0, 0xf8, 0x7f, 3, 0xff})
	f.Fuzz(func(t *testing.T, form, opSel byte, data []byte) {
		var vals [4]sqlval.Value
		for i := range vals {
			vals[i], data = fuzzValue(data)
		}
		en := &env{bindings: []binding{{"t", "a"}, {"t", "b"}}}
		slot := func(i int) sqlparse.Expr { return &sqlparse.ColumnRef{Column: en.bindings[i].name} }
		lit := func(i int) sqlparse.Expr { return &sqlparse.Literal{Value: vals[i]} }
		ops := []string{"=", "<>", "<", "<=", ">", ">="}
		op := ops[int(opSel)%len(ops)]

		var ex sqlparse.Expr
		switch form % 4 {
		case 0:
			ex = &sqlparse.BinaryExpr{Op: op, Left: slot(0), Right: lit(2)}
		case 1:
			ex = &sqlparse.BinaryExpr{Op: op, Left: lit(2), Right: slot(0)}
		case 2:
			ex = &sqlparse.BinaryExpr{Op: op, Left: slot(0), Right: slot(1)}
		default:
			ex = &sqlparse.BetweenExpr{Expr: slot(0), Lo: lit(2), Hi: lit(3), Negated: opSel&1 == 1}
		}
		kernel, err := en.kernel(ex)
		if err != nil || kernel == nil {
			t.Fatalf("%s: no kernel (%v)", ex, err)
		}
		generic, err := en.generic(ex, "")
		if err != nil {
			t.Fatal(err)
		}
		row := vals[:2]
		kt, kerr := kernel(row)
		gt, gerr := generic(row)
		if kt != gt || (kerr == nil) != (gerr == nil) {
			t.Fatalf("%s over %v: kernel %d, %v; generic %d, %v", ex, row, kt, kerr, gt, gerr)
		}
	})
}
