package relstore

import (
	"bytes"
	"math"
	"testing"
)

// FuzzOrderedKeyOrder fuzzes the two properties the encoded-key B-tree rests
// on: order preservation (bytes.Compare over encodings agrees with
// CompareKeys for every comparable key pair) and decode-safety (the decoder
// never panics on arbitrary bytes, and anything it accepts re-encodes
// byte-identically — including a valid encoding followed by an arbitrary
// suffix, which must either extend canonically or be rejected).  The seed
// corpus (testdata/fuzz/FuzzOrderedKeyOrder) holds the encoded rows, first and
// last per table, that testdata/parent_wal recovers to.
func FuzzOrderedKeyOrder(f *testing.F) {
	f.Add(int64(0), int64(1), false, []byte{})
	f.Add(int64(-1), int64(math.MaxInt64), true, []byte{ordTagNull})
	f.Add(int64(math.MinInt64), int64(0), false, []byte{ordTagString, 'a', 0x00, 0x00})
	f.Add(int64(42), int64(42), true, []byte{ordTagFloat, 0x80, 0, 0, 0, 0, 0, 0, 0})
	f.Add(int64(7), int64(-7), false, []byte{0x00, 0xFF, 0x00})
	f.Fuzz(func(t *testing.T, x, y int64, null bool, raw []byte) {
		// Order preservation on same-shape keys derived from the fuzz inputs.
		// float64(x)/float64(y) cannot be NaN, so the encoder accepts them;
		// raw doubles as a string column exercising the escape rules.
		s := string(raw)
		a := []Value{Int(x), Str(s), Float(float64(y) / 3)}
		b := []Value{Int(y), Str(s), Float(float64(x) / 3)}
		if null {
			a[0], b[1] = Null, Null
		}
		ea := AppendOrderedKey(nil, a)
		eb := AppendOrderedKey(nil, b)
		got, want := bytes.Compare(ea, eb), CompareKeys(a, b)
		if sign(got) != sign(want) {
			t.Fatalf("order diverges: bytes.Compare=%d CompareKeys=%d for %v vs %v", got, want, a, b)
		}

		// Decode-safety on arbitrary bytes: no panic, and success implies the
		// input was a canonical encoding.
		if vals, err := DecodeOrderedKey(raw); err == nil {
			if re := AppendOrderedKey(nil, vals); !bytes.Equal(re, raw) {
				t.Fatalf("non-canonical decode: %x -> %v -> %x", raw, vals, re)
			}
		}

		// Decode-safety on a valid encoding with an arbitrary byte suffix:
		// the prefix must decode back out, and the suffix either continues
		// canonically or fails the whole key.
		cat := append(append([]byte{}, ea...), raw...)
		if vals, err := DecodeOrderedKey(cat); err == nil {
			if re := AppendOrderedKey(nil, vals); !bytes.Equal(re, cat) {
				t.Fatalf("non-canonical decode of suffixed key: %x -> %v -> %x", cat, vals, re)
			}
			if len(vals) < len(a) || CompareKeys(vals[:len(a)], a) != 0 {
				t.Fatalf("suffixed decode lost the valid prefix: %x -> %v, want prefix %v", cat, vals, a)
			}
		}
	})
}
