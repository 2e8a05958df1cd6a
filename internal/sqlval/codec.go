package sqlval

import (
	"encoding/binary"
	"fmt"
	"math"
)

// The binary codec is shared by the storage layer (table data files) and the
// wire protocol (DataRow payloads). Layout per value: 1 tag byte followed by
// a kind-specific payload. Integers use varint encoding; strings are
// length-prefixed.

// AppendEncode appends the binary encoding of v to dst and returns the
// extended slice.
func AppendEncode(dst []byte, v Value) []byte {
	dst = append(dst, byte(v.kind))
	switch v.kind {
	case KindNull:
	case KindInt, KindBool, KindDate:
		dst = binary.AppendVarint(dst, v.i)
	case KindFloat:
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v.f))
		dst = append(dst, buf[:]...)
	case KindString:
		dst = binary.AppendUvarint(dst, uint64(len(v.s)))
		dst = append(dst, v.s...)
	}
	return dst
}

// Decode reads one value from b, returning the value and the number of bytes
// consumed.
func Decode(b []byte) (Value, int, error) {
	d := Decoder{buf: b}
	v := d.value()
	if d.err != nil {
		return Null, 0, d.err
	}
	return v, d.off, nil
}

// EncodeRow encodes a slice of values: a uvarint count followed by each
// value's encoding.
func EncodeRow(dst []byte, row []Value) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(row)))
	for _, v := range row {
		dst = AppendEncode(dst, v)
	}
	return dst
}

// DecodeRow decodes a row produced by EncodeRow, returning the values and
// bytes consumed.
func DecodeRow(b []byte) ([]Value, int, error) {
	d := Decoder{buf: b}
	// Every value occupies at least one byte, so a count beyond the
	// remaining buffer is corrupt — Count rejects it before anything is
	// allocated (a fuzzer found the unchecked preallocation could be driven
	// to OOM).
	row := make([]Value, d.Count(1))
	for i := range row {
		if row[i] = d.value(); d.err != nil {
			return nil, 0, fmt.Errorf("decode row value %d: %w", i, d.err)
		}
	}
	if d.err != nil {
		return nil, 0, fmt.Errorf("decode row: %w", d.err)
	}
	return row, d.off, nil
}

// Decoder reads encoded items from one buffer front to back. The first
// error sticks: every later read returns a zero value, and Err reports it.
//
// A Decoder made by NewDecoder is the bulk-load form: Row decodes into a
// caller-provided slice, and every TEXT payload and String result is a
// substring of one string copy of the buffer, made the first time a
// non-empty one is read. Decoding a whole table therefore allocates at most
// once however many values it holds, and nothing it returns aliases the
// buffer, which the caller may reuse. The zero Decoder{buf: b} copies each
// string on its own instead, so a value keeps only its own bytes alive.
type Decoder struct {
	buf    []byte
	off    int
	shared bool
	text   string // string(buf), once a shared Decoder needs it
	err    error
}

// NewDecoder returns a Decoder over buf whose strings share one copy of it.
func NewDecoder(buf []byte) *Decoder { return &Decoder{buf: buf, shared: true} }

// Err returns the first decoding error, or nil.
func (d *Decoder) Err() error { return d.err }

// Len returns the number of bytes not yet read.
func (d *Decoder) Len() int { return len(d.buf) - d.off }

func (d *Decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("at byte %d: %s", d.off, fmt.Sprintf(format, args...))
	}
}

// Byte reads one byte.
func (d *Decoder) Byte() byte {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.buf) {
		d.fail("truncated byte")
		return 0
	}
	d.off++
	return d.buf[d.off-1]
}

// Uvarint reads an unsigned varint.
func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail("bad uvarint")
		return 0
	}
	d.off += n
	return v
}

// Varint reads a signed varint.
func (d *Decoder) Varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		d.fail("bad varint")
		return 0
	}
	d.off += n
	return v
}

// Count reads a uvarint element count and rejects it unless that many
// elements of at least min bytes each fit in the bytes that remain. A
// caller may therefore allocate count elements without trusting the input.
func (d *Decoder) Count(min int) int {
	c := d.Uvarint()
	if d.err != nil {
		return 0
	}
	if c > uint64(d.Len()/min) {
		d.fail("count %d exceeds the %d bytes left", c, d.Len())
		return 0
	}
	return int(c)
}

// String reads a length-prefixed string.
func (d *Decoder) String() string {
	l := d.Uvarint()
	if d.err != nil {
		return ""
	}
	if l > uint64(d.Len()) {
		d.fail("string length %d exceeds the %d bytes left", l, d.Len())
		return ""
	}
	start := d.off
	d.off += int(l)
	switch {
	case l == 0:
		return ""
	case !d.shared:
		return string(d.buf[start:d.off])
	case d.text == "":
		d.text = string(d.buf)
	}
	return d.text[start:d.off]
}

// Row decodes a row produced by EncodeRow into dst, which must have exactly
// the row's length.
func (d *Decoder) Row(dst []Value) {
	if n := d.Uvarint(); d.err == nil && n != uint64(len(dst)) {
		d.fail("row has %d values, want %d", n, len(dst))
	}
	for i := range dst {
		if d.err != nil {
			return
		}
		dst[i] = d.value()
	}
}

func (d *Decoder) value() Value {
	switch kind := Kind(d.Byte()); kind {
	case KindNull:
		return Null
	case KindInt, KindBool, KindDate:
		return Value{kind: kind, i: d.Varint()}
	case KindFloat:
		if d.Len() < 8 {
			d.fail("truncated FLOAT")
			return Null
		}
		d.off += 8
		return NewFloat(math.Float64frombits(binary.LittleEndian.Uint64(d.buf[d.off-8:])))
	case KindString:
		return Value{kind: KindString, s: d.String()}
	default:
		d.off--
		d.fail("unknown kind tag %d", kind)
		return Null
	}
}
