// Package storage implements the getpage-grained storage substrate
// the paper's fine-grained DBMS decomposes into: slotted pages, one
// in-memory page table (every page resident, the page file only the
// checkpoint image), heap files and a B-tree index, in the
// main-memory-DBMS style of Smallbase [16], which the paper cites as the decomposition
// substrate of [28]. The paper's point is that these "lower level
// operations (such as getpage)" are themselves components; the query
// engine consumes them through the same call interfaces the component
// layer can rebind.
package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// ValueKind tags a value in a record.
type ValueKind uint8

// Value kinds.
const (
	KindNull ValueKind = iota
	KindInt
	KindFloat
	KindString
	KindBool
)

// Value is one typed field.
type Value struct {
	Kind  ValueKind
	Int   int64
	Float float64
	Str   string
	Bool  bool
}

// Convenience constructors.
func NullValue() Value           { return Value{Kind: KindNull} }
func IntValue(v int64) Value     { return Value{Kind: KindInt, Int: v} }
func FloatValue(v float64) Value { return Value{Kind: KindFloat, Float: v} }
func StringValue(v string) Value { return Value{Kind: KindString, Str: v} }
func BoolValue(v bool) Value     { return Value{Kind: KindBool, Bool: v} }

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.Kind == KindNull }

func (v Value) String() string {
	switch v.Kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return fmt.Sprintf("%d", v.Int)
	case KindFloat:
		return fmt.Sprintf("%g", v.Float)
	case KindString:
		return v.Str
	case KindBool:
		return fmt.Sprintf("%t", v.Bool)
	}
	return "?"
}

// AsFloat coerces numeric values for comparisons; NULL and strings
// report !ok.
func (v Value) AsFloat() (float64, bool) {
	switch v.Kind {
	case KindInt:
		return float64(v.Int), true
	case KindFloat:
		return v.Float, true
	case KindBool:
		if v.Bool {
			return 1, true
		}
		return 0, true
	}
	return 0, false
}

// Compare orders two values: NULLs first, then by numeric or lexical
// order; mixed numeric kinds compare as floats. Returns -1, 0, or 1;
// incomparable kinds (string vs number) order by kind tag.
func Compare(a, b Value) int {
	if a.Kind == KindNull || b.Kind == KindNull {
		switch {
		case a.Kind == b.Kind:
			return 0
		case a.Kind == KindNull:
			return -1
		default:
			return 1
		}
	}
	af, aok := a.AsFloat()
	bf, bok := b.AsFloat()
	if aok && bok {
		switch {
		case af < bf:
			return -1
		case af > bf:
			return 1
		default:
			return 0
		}
	}
	if a.Kind == KindString && b.Kind == KindString {
		switch {
		case a.Str < b.Str:
			return -1
		case a.Str > b.Str:
			return 1
		default:
			return 0
		}
	}
	switch {
	case a.Kind < b.Kind:
		return -1
	case a.Kind > b.Kind:
		return 1
	}
	return 0
}

// Equal reports value equality under Compare semantics.
func Equal(a, b Value) bool { return Compare(a, b) == 0 }

// Tuple is one record's field list.
type Tuple []Value

// Clone deep-copies a tuple.
func (t Tuple) Clone() Tuple {
	out := make(Tuple, len(t))
	copy(out, t)
	return out
}

// ErrCorruptRecord is returned when a record image fails to decode.
var ErrCorruptRecord = errors.New("storage: corrupt record")

// EncodeTuple serialises a tuple: u16 field count, then per field a
// kind tag and the payload (varints for ints, 8-byte floats, u32-
// prefixed strings).
func EncodeTuple(t Tuple) []byte {
	buf := make([]byte, 0, 16+8*len(t))
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(t)))
	for _, v := range t {
		buf = append(buf, byte(v.Kind))
		switch v.Kind {
		case KindNull:
		case KindInt:
			buf = binary.AppendVarint(buf, v.Int)
		case KindFloat:
			buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(v.Float))
		case KindString:
			buf = binary.BigEndian.AppendUint32(buf, uint32(len(v.Str)))
			buf = append(buf, v.Str...)
		case KindBool:
			b := byte(0)
			if v.Bool {
				b = 1
			}
			buf = append(buf, b)
		}
	}
	return buf
}

// DecodeTuple parses a tuple encoding (EncodeTuple's output; a stored
// record decodes through DecodeRecord).
func DecodeTuple(b []byte) (Tuple, error) {
	if len(b) < 2 {
		return nil, fmt.Errorf("%w: short header", ErrCorruptRecord)
	}
	n := int(binary.BigEndian.Uint16(b))
	return decodeFields(make(Tuple, 0, n), b[2:], n)
}

// decodeFields appends n values parsed from b to out. When out has
// capacity for them it allocates nothing beyond string payloads — the
// zero-alloc fast path of the page decode.
func decodeFields(out Tuple, b []byte, n int) (Tuple, error) {
	for i := 0; i < n; i++ {
		if len(b) < 1 {
			return nil, fmt.Errorf("%w: truncated at field %d", ErrCorruptRecord, i)
		}
		kind := ValueKind(b[0])
		b = b[1:]
		switch kind {
		case KindNull:
			out = append(out, NullValue())
		case KindInt:
			v, n := binary.Varint(b)
			if n <= 0 {
				return nil, fmt.Errorf("%w: bad varint at field %d", ErrCorruptRecord, i)
			}
			b = b[n:]
			out = append(out, IntValue(v))
		case KindFloat:
			if len(b) < 8 {
				return nil, fmt.Errorf("%w: short float at field %d", ErrCorruptRecord, i)
			}
			out = append(out, FloatValue(math.Float64frombits(binary.BigEndian.Uint64(b))))
			b = b[8:]
		case KindString:
			if len(b) < 4 {
				return nil, fmt.Errorf("%w: short string len at field %d", ErrCorruptRecord, i)
			}
			l := int(binary.BigEndian.Uint32(b))
			b = b[4:]
			if len(b) < l {
				return nil, fmt.Errorf("%w: short string at field %d", ErrCorruptRecord, i)
			}
			out = append(out, StringValue(string(b[:l])))
			b = b[l:]
		case KindBool:
			if len(b) < 1 {
				return nil, fmt.Errorf("%w: short bool at field %d", ErrCorruptRecord, i)
			}
			out = append(out, BoolValue(b[0] != 0))
			b = b[1:]
		default:
			return nil, fmt.Errorf("%w: unknown kind %d at field %d", ErrCorruptRecord, kind, i)
		}
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorruptRecord, len(b))
	}
	return out, nil
}
