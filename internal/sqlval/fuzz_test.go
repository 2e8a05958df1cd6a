package sqlval

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/big"
	"testing"
)

// FuzzDecode asserts the value codec never panics and consumed lengths stay
// in bounds.
func FuzzDecode(f *testing.F) {
	f.Add(AppendEncode(nil, NewInt(42)))
	f.Add(AppendEncode(nil, NewString("hello")))
	f.Add(EncodeRow(nil, []Value{NewFloat(1.5), Null, NewBool(true)}))
	f.Add([]byte{0xff, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		if v, n, err := Decode(data); err == nil {
			if n <= 0 || n > len(data) {
				t.Fatalf("bad consumed length %d of %d", n, len(data))
			}
			_ = v.String() // must not panic either
		}
		if row, n, err := DecodeRow(data); err == nil {
			if n <= 0 || n > len(data) {
				t.Fatalf("bad row length %d of %d", n, len(data))
			}
			for _, v := range row {
				_ = v.String()
			}
		}
	})
}

// fuzzTuple decodes fuzz bytes into a tuple without ever failing: each value
// is a kind selector byte followed by a kind-specific payload (8 bytes for
// numbers and dates, a length byte plus bytes for strings), truncated
// payloads reading as zero.
func fuzzTuple(data []byte) []Value {
	var out []Value
	take := func(n int) []byte {
		if n > len(data) {
			n = len(data)
		}
		b := data[:n]
		data = data[n:]
		return b
	}
	u64 := func() uint64 {
		var buf [8]byte
		copy(buf[:], take(8))
		return binary.LittleEndian.Uint64(buf[:])
	}
	for len(data) > 0 {
		switch take(1)[0] % 8 {
		case 0:
			out = append(out, Null)
		case 1:
			out = append(out, NewInt(int64(u64())))
		case 2:
			out = append(out, NewFloat(math.Float64frombits(u64())))
		case 3:
			n := 0
			if b := take(1); len(b) > 0 {
				n = int(b[0] % 16)
			}
			out = append(out, NewString(string(take(n))))
		case 4:
			out = append(out, NewBool(u64()&1 == 1))
		case 5:
			out = append(out, NewDateDays(int64(u64())))
		case 6:
			// Small integral numbers of either numeric kind, so the fuzzer
			// reaches the cross-kind collisions (1 = 1.0) often.
			b := take(1)
			v := 0
			if len(b) > 0 {
				v = int(int8(b[0]) >> 1)
			}
			if len(b) > 0 && b[0]&1 == 1 {
				out = append(out, NewFloat(float64(v)))
			} else {
				out = append(out, NewInt(int64(v)))
			}
		case 7:
			// Numbers of either kind next to 2^53 or 2^63, where float64
			// no longer holds every INTEGER.
			b := take(1)
			v := int64(1<<53) - 64
			if len(b) > 0 {
				v += int64(b[0] & 0x7f)
				if b[0]&0x80 != 0 {
					v = math.MaxInt64 - int64(b[0]&0x3f)
				}
			}
			if len(b) > 0 && b[0]&1 == 1 {
				out = append(out, NewFloat(float64(v)))
			} else {
				out = append(out, NewInt(v))
			}
		}
	}
	return out
}

// keyEqual is the grouping equality keys must encode: NULL groups with
// NULL, INTEGER and FLOAT compare by exact value with −0 = 0 and NaN = NaN,
// and otherwise kinds (DATE and INTEGER included) never mix.
func keyEqual(a, b Value) bool {
	if a.IsNumeric() && b.IsNumeric() {
		if isNaN(a) || isNaN(b) {
			return isNaN(a) && isNaN(b)
		}
		return exact(a).Cmp(exact(b)) == 0
	}
	if a.kind != b.kind {
		return false
	}
	switch a.kind {
	case KindNull:
		return true
	case KindString:
		return a.s == b.s
	default:
		return a.i == b.i
	}
}

func isNaN(v Value) bool { return v.kind == KindFloat && v.f != v.f }

// exact is a non-NaN numeric's exact value.
func exact(v Value) *big.Float {
	if v.kind == KindInt {
		return new(big.Float).SetInt64(v.i)
	}
	return big.NewFloat(v.f)
}

// FuzzKey asserts the composite-key property GROUP BY, DISTINCT and hash
// joins rely on: the concatenated AppendKey encodings of two tuples are
// equal exactly when the tuples are element-wise keyEqual. It also asserts
// that keys agree with Compare: two non-NaN values compare equal exactly
// when their keys are equal, and incomparable values other than two NULLs
// never share a key.
func FuzzKey(f *testing.F) {
	str := func(s string) []byte { return append([]byte{3, byte(len(s))}, s...) }
	f.Add(append(str("x"), str("y\x00sz")...), append(str("x\x00sy"), str("z")...))
	f.Add([]byte{6, 2}, []byte{6, 3})                         // 1 vs 1.0
	f.Add([]byte{2, 0, 0, 0, 0, 0, 0, 0, 0x80}, []byte{6, 0}) // −0 vs 0
	f.Add([]byte{2, 1, 0, 0, 0, 0, 0, 0xf8, 0x7f}, []byte{2, 2, 0, 0, 0, 0, 0, 0xf8, 0x7f})
	f.Add([]byte{5, 1}, []byte{1, 1}) // date vs int
	f.Add([]byte{0, 3, 0}, []byte{3, 0, 0})
	f.Add([]byte{7, 0x42}, []byte{7, 0x41}) // 2^53+2 vs float64(2^53+1) = 2^53
	f.Add([]byte{7, 0x40}, []byte{7, 0x41}) // 2^53 vs float64(2^53+1) = 2^53
	f.Fuzz(func(t *testing.T, da, db []byte) {
		a, b := fuzzTuple(da), fuzzTuple(db)
		want := len(a) == len(b)
		for i := 0; want && i < len(a); i++ {
			want = keyEqual(a[i], b[i])
		}
		var ka, kb []byte
		for _, v := range a {
			ka = v.AppendKey(ka)
		}
		for _, v := range b {
			kb = v.AppendKey(kb)
		}
		if got := bytes.Equal(ka, kb); got != want {
			t.Fatalf("keys equal = %v, tuples equal = %v: %v vs %v", got, want, a, b)
		}
		for i := 0; i < len(a) && i < len(b); i++ {
			if isNaN(a[i]) || isNaN(b[i]) {
				continue // NaN compares equal to every number
			}
			c, ok := a[i].Compare(b[i])
			keq := bytes.Equal(a[i].AppendKey(nil), b[i].AppendKey(nil))
			if ok && (c == 0) != keq || !ok && keq && !a[i].IsNull() {
				t.Fatalf("Compare(%v, %v) = %d, %v but keys equal = %v", a[i], b[i], c, ok, keq)
			}
		}
	})
}
