package relstore

import (
	"errors"
	"fmt"
	"math"
)

// Order-preserving key encoding: AppendOrderedKey renders a composite key as
// a byte string whose bytes.Compare order equals CompareKeys order.  This is
// the storage format of secondary-index B-tree keys: the tree compares stored
// keys with a single bytes.Compare instead of the per-element kind switch of
// CompareKeys.  decodeOrderedValue reads one value back, for WAL rows (which
// share the value encoding) and for the tests' DecodeOrderedKey.
//
// The existing AppendKey encoding is hash-only — "i-5" sorts after "i-40"
// bytewise — so ordered access needs this second encoding:
//
//   - every value is prefixed with a tag byte; NULL's tag (0x00) is below
//     every non-NULL tag, so NULLs sort first, matching CompareValues;
//   - integers, timestamps and booleans encode as big-endian uint64 with the
//     sign bit flipped, mapping int64 order onto lexicographic byte order;
//   - floats encode their IEEE bits with a sign-magnitude fixup: positive
//     values flip only the sign bit, negative values flip all bits, so
//     -Inf < ... < 0 < ... < +Inf is ordered bytewise; -0.0 is canonicalized
//     to +0.0 first, matching CompareValues, which orders them equal;
//   - strings escape 0x00 as 0x00 0xFF and terminate with 0x00 0x00, so a
//     prefix sorts before its extensions and embedded NULs cannot collide
//     with the terminator.
//
// Like CompareValues, the encoding is only defined for comparable keys: the
// values at each position of the two keys must have the same kind (or be
// NULL), which the table layer guarantees by coercing to the column type
// before storage.

// Tag bytes.  NULL must be the smallest; the non-NULL tags only need to be
// consistent per kind, since comparable keys agree on kinds positionally.
const (
	ordTagNull   = 0x00
	ordTagInt    = 0x01
	ordTagFloat  = 0x02
	ordTagString = 0x03
	ordTagTime   = 0x04
	ordTagBool   = 0x05
)

// AppendOrderedKey appends the order-preserving encoding of a composite key
// to dst and returns the extended buffer.  For any two keys a, b that
// CompareKeys accepts (same kinds positionally, up to NULLs),
//
//	sign(bytes.Compare(AppendOrderedKey(nil, a), AppendOrderedKey(nil, b)))
//	    == sign(CompareKeys(a, b))
//
// NaN values are rejected with a panic: CompareKeys orders a NaN equal to
// everything (the < operator is false both ways), which no total byte order
// can reproduce.  Nothing in the engine stops a NaN before it reaches an index
// key: a range check rejects one, but a column without a check accepts it.
// The catalog transformer rejects non-finite floats, so a load never stores
// one; other callers must not index a NaN.
func AppendOrderedKey(dst []byte, vals []Value) []byte {
	for _, v := range vals {
		dst = appendOrderedValue(dst, v)
	}
	return dst
}

// EncodeOrderedKey is the allocating convenience form of AppendOrderedKey.
func EncodeOrderedKey(vals []Value) []byte {
	return AppendOrderedKey(nil, vals)
}

func appendOrderedValue(dst []byte, v Value) []byte {
	switch v.Kind {
	case KindNull:
		return append(dst, ordTagNull)
	case KindInt:
		dst = append(dst, ordTagInt)
		return appendOrderedInt64(dst, v.I)
	case KindTime:
		dst = append(dst, ordTagTime)
		return appendOrderedInt64(dst, v.I)
	case KindBool:
		dst = append(dst, ordTagBool)
		if v.I != 0 {
			return append(dst, 1)
		}
		return append(dst, 0)
	case KindFloat:
		if math.IsNaN(v.F) {
			panic("relstore: cannot order-encode NaN")
		}
		dst = append(dst, ordTagFloat)
		f := v.F
		if f == 0 {
			f = 0 // canonicalize -0.0 to +0.0: CompareValues orders them equal
		}
		bits := math.Float64bits(f)
		if bits&(1<<63) != 0 {
			bits = ^bits // negative: flip everything, reversing magnitude order
		} else {
			bits |= 1 << 63 // positive: flip the sign bit above all negatives
		}
		return appendOrderedUint64(dst, bits)
	case KindString:
		dst = append(dst, ordTagString)
		for i := 0; i < len(v.S); i++ {
			if v.S[i] == 0x00 {
				dst = append(dst, 0x00, 0xFF)
			} else {
				dst = append(dst, v.S[i])
			}
		}
		return append(dst, 0x00, 0x00)
	default:
		panic(fmt.Sprintf("relstore: cannot order-encode value of kind %s", v.Kind))
	}
}

// appendOrderedInt64 encodes x big-endian with the sign bit flipped, so the
// int64 order maps onto unsigned lexicographic byte order.
func appendOrderedInt64(dst []byte, x int64) []byte {
	return appendOrderedUint64(dst, uint64(x)^(1<<63))
}

func appendOrderedUint64(dst []byte, u uint64) []byte {
	return append(dst,
		byte(u>>56), byte(u>>48), byte(u>>40), byte(u>>32),
		byte(u>>24), byte(u>>16), byte(u>>8), byte(u))
}

// ErrBadOrderedKey reports a byte string that is not a canonical
// AppendOrderedKey encoding.
var ErrBadOrderedKey = errors.New("relstore: malformed ordered key")

// decodeOrderedValue decodes one value off the front of enc, which must be
// non-empty, and returns it with the remaining bytes.
func decodeOrderedValue(enc []byte) (Value, []byte, error) {
	switch tag := enc[0]; tag {
	case ordTagNull:
		return Null, enc[1:], nil
	case ordTagInt, ordTagTime:
		if len(enc) < 9 {
			return Value{}, nil, fmt.Errorf("%w: truncated %d-byte integer payload", ErrBadOrderedKey, len(enc)-1)
		}
		x := int64(decodeOrderedUint64(enc[1:9]) ^ (1 << 63))
		if tag == ordTagTime {
			return Value{Kind: KindTime, I: x}, enc[9:], nil
		}
		return Int(x), enc[9:], nil
	case ordTagBool:
		if len(enc) < 2 {
			return Value{}, nil, fmt.Errorf("%w: truncated boolean payload", ErrBadOrderedKey)
		}
		switch enc[1] {
		case 0:
			return Bool(false), enc[2:], nil
		case 1:
			return Bool(true), enc[2:], nil
		}
		return Value{}, nil, fmt.Errorf("%w: boolean payload 0x%02x", ErrBadOrderedKey, enc[1])
	case ordTagFloat:
		if len(enc) < 9 {
			return Value{}, nil, fmt.Errorf("%w: truncated %d-byte float payload", ErrBadOrderedKey, len(enc)-1)
		}
		bits := decodeOrderedUint64(enc[1:9])
		if bits&(1<<63) != 0 {
			bits ^= 1 << 63 // positive: undo the sign-bit flip
		} else {
			bits = ^bits // negative: undo the full complement
		}
		f := math.Float64frombits(bits)
		if math.IsNaN(f) {
			return Value{}, nil, fmt.Errorf("%w: NaN float bits", ErrBadOrderedKey)
		}
		if f == 0 && math.Signbit(f) {
			return Value{}, nil, fmt.Errorf("%w: non-canonical -0.0 encoding", ErrBadOrderedKey)
		}
		return Float(f), enc[9:], nil
	case ordTagString:
		var s []byte
		i := 1
		for {
			if i >= len(enc) {
				return Value{}, nil, fmt.Errorf("%w: unterminated string", ErrBadOrderedKey)
			}
			b := enc[i]
			if b != 0x00 {
				s = append(s, b)
				i++
				continue
			}
			if i+1 >= len(enc) {
				return Value{}, nil, fmt.Errorf("%w: truncated string escape", ErrBadOrderedKey)
			}
			switch enc[i+1] {
			case 0x00: // terminator
				return Str(string(s)), enc[i+2:], nil
			case 0xFF: // escaped NUL
				s = append(s, 0x00)
				i += 2
			default:
				return Value{}, nil, fmt.Errorf("%w: string escape 0x00 0x%02x", ErrBadOrderedKey, enc[i+1])
			}
		}
	default:
		return Value{}, nil, fmt.Errorf("%w: unknown tag 0x%02x", ErrBadOrderedKey, tag)
	}
}

func decodeOrderedUint64(b []byte) uint64 {
	return uint64(b[0])<<56 | uint64(b[1])<<48 | uint64(b[2])<<40 | uint64(b[3])<<32 |
		uint64(b[4])<<24 | uint64(b[5])<<16 | uint64(b[6])<<8 | uint64(b[7])
}
