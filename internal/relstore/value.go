// Package relstore implements an embedded relational storage engine used as
// the repository database substrate in this reproduction of the SkyLoader
// paper (Cai, Aydt, Brunner, SC 2005).
//
// The original system loaded the Palomar-Quest catalog into an Oracle 10g
// server.  relstore stands in for that server: it provides typed tables with
// primary-key, foreign-key, unique, not-null and check constraints, page-based
// heap storage, B-tree secondary indexes and undo/redo logging.  Every
// operation reports the physical work it performed (pages written, index
// nodes visited, log bytes written, ...) so that the sqlbatch layer, which
// models the server's data cache, transaction slots and lock waits, can charge
// realistic virtual time for it in the discrete-event simulation.
package relstore

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// ColType enumerates the column types supported by the engine.  They mirror
// the types used by the Palomar-Quest catalog schema: integers (ids, flags,
// htmid), floating point photometric/astrometric quantities, strings
// (names, filters), timestamps and booleans.
type ColType int

const (
	// TypeInt is a 64-bit signed integer column.
	TypeInt ColType = iota
	// TypeFloat is a 64-bit IEEE floating point column.
	TypeFloat
	// TypeString is a variable-length string column.
	TypeString
	// TypeTime is a timestamp column.
	TypeTime
	// TypeBool is a boolean column.
	TypeBool
)

// String returns the SQL-ish name of the column type.
func (t ColType) String() string {
	switch t {
	case TypeInt:
		return "INTEGER"
	case TypeFloat:
		return "FLOAT"
	case TypeString:
		return "VARCHAR"
	case TypeTime:
		return "TIMESTAMP"
	case TypeBool:
		return "BOOLEAN"
	default:
		return fmt.Sprintf("ColType(%d)", int(t))
	}
}

// ValueKind tags the dynamic type carried by a Value.
type ValueKind uint8

const (
	// KindNull is SQL NULL; it is the zero Value.
	KindNull ValueKind = iota
	// KindInt carries a 64-bit signed integer in Value.I.
	KindInt
	// KindFloat carries a 64-bit float in Value.F.
	KindFloat
	// KindString carries a string in Value.S.
	KindString
	// KindTime carries a timestamp as Unix nanoseconds in Value.I.
	KindTime
	// KindBool carries a boolean as 0/1 in Value.I.
	KindBool
)

// String names the kind for error messages.
func (k ValueKind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "INTEGER"
	case KindFloat:
		return "FLOAT"
	case KindString:
		return "VARCHAR"
	case KindTime:
		return "TIMESTAMP"
	case KindBool:
		return "BOOLEAN"
	default:
		return fmt.Sprintf("ValueKind(%d)", int(k))
	}
}

// Value is a single column value, represented as a compact tagged union
// instead of a boxed interface so that rows move through the insert hot path
// without per-value heap allocations.  The zero Value is SQL NULL.  It is the
// type rows travel in — into the engine and out of its queries — not the one
// tables store them in (see page.go).
//
// Integers and booleans live in I (booleans as 0/1), floats in F, strings in
// S, and timestamps as Unix nanoseconds in I.  Consumers on hot paths read
// the fields directly after checking Kind; everything else goes through the
// constructors and accessors below.
type Value struct {
	Kind ValueKind
	I    int64
	F    float64
	S    string
}

// Null is the SQL NULL value.
var Null Value

// Int returns an integer value.
func Int(x int64) Value { return Value{Kind: KindInt, I: x} }

// Float returns a float value.
func Float(x float64) Value { return Value{Kind: KindFloat, F: x} }

// Str returns a string value.
func Str(s string) Value { return Value{Kind: KindString, S: s} }

// Bool returns a boolean value.
func Bool(b bool) Value {
	if b {
		return Value{Kind: KindBool, I: 1}
	}
	return Value{Kind: KindBool}
}

// Time returns a timestamp value (stored as Unix nanoseconds).
func Time(t time.Time) Value { return Value{Kind: KindTime, I: t.UnixNano()} }

// IsNull reports whether the value is SQL NULL.
func (v Value) IsNull() bool { return v.Kind == KindNull }

// Int returns the integer payload (valid for KindInt).
func (v Value) Int() int64 { return v.I }

// Float returns the float payload (valid for KindFloat).
func (v Value) Float() float64 { return v.F }

// Bool returns the boolean payload (valid for KindBool).
func (v Value) Bool() bool { return v.I != 0 }

// Time returns the timestamp payload (valid for KindTime).  The location is
// normalized to UTC; the engine stores instants, not civil times.
func (v Value) Time() time.Time { return time.Unix(0, v.I).UTC() }

// Row is a tuple of column values in table column order.
type Row []Value

// coerce converts v to the canonical representation for column type t,
// mirroring the light type conversion a database driver performs: numeric
// widening, numeric/boolean/timestamp parsing of strings, and int/float
// interconversion when lossless.  NULL passes through unchanged.  When v
// already has the canonical kind for t — the common case on the loading hot
// path, where the transformer emits exact types — coerce is a branch and no
// allocation.
func coerce(v Value, t ColType) (Value, error) {
	if v.Kind == KindNull {
		return v, nil
	}
	switch t {
	case TypeInt:
		switch v.Kind {
		case KindInt:
			return v, nil
		case KindFloat:
			if v.F != math.Trunc(v.F) {
				return Null, fmt.Errorf("relstore: value %v is not an integer", v.F)
			}
			return Int(int64(v.F)), nil
		case KindString:
			n, err := strconv.ParseInt(strings.TrimSpace(v.S), 10, 64)
			if err != nil {
				return Null, fmt.Errorf("relstore: cannot parse %q as integer", v.S)
			}
			return Int(n), nil
		}
	case TypeFloat:
		switch v.Kind {
		case KindFloat:
			return v, nil
		case KindInt:
			return Float(float64(v.I)), nil
		case KindString:
			f, err := strconv.ParseFloat(strings.TrimSpace(v.S), 64)
			if err != nil {
				return Null, fmt.Errorf("relstore: cannot parse %q as float", v.S)
			}
			return Float(f), nil
		}
	case TypeString:
		switch v.Kind {
		case KindString:
			return v, nil
		case KindInt:
			return Str(strconv.FormatInt(v.I, 10)), nil
		case KindFloat:
			return Str(strconv.FormatFloat(v.F, 'g', -1, 64)), nil
		}
	case TypeTime:
		switch v.Kind {
		case KindTime:
			return v, nil
		case KindString:
			ts, err := time.Parse(time.RFC3339, strings.TrimSpace(v.S))
			if err != nil {
				return Null, fmt.Errorf("relstore: cannot parse %q as timestamp", v.S)
			}
			return Time(ts), nil
		case KindInt:
			return Time(time.Unix(v.I, 0).UTC()), nil
		}
	case TypeBool:
		switch v.Kind {
		case KindBool:
			return v, nil
		case KindInt:
			return Bool(v.I != 0), nil
		case KindString:
			b, err := strconv.ParseBool(strings.TrimSpace(v.S))
			if err != nil {
				return Null, fmt.Errorf("relstore: cannot parse %q as boolean", v.S)
			}
			return Bool(b), nil
		}
	}
	return Null, fmt.Errorf("relstore: cannot coerce %s value %s to %s", v.Kind, formatValue(v), t)
}

// CompareValues orders two non-NULL values of the same kind.  NULLs sort
// before every non-NULL value and equal to each other, matching index order
// semantics.  Values of mismatched kinds panic, because they indicate a bug
// upstream of the index layer (coerce is applied before storage).
func CompareValues(a, b Value) int {
	if a.Kind == KindNull && b.Kind == KindNull {
		return 0
	}
	if a.Kind == KindNull {
		return -1
	}
	if b.Kind == KindNull {
		return 1
	}
	if a.Kind != b.Kind {
		panic(fmt.Sprintf("relstore: cannot compare %s with %s", a.Kind, b.Kind))
	}
	switch a.Kind {
	case KindInt, KindTime, KindBool:
		switch {
		case a.I < b.I:
			return -1
		case a.I > b.I:
			return 1
		}
		return 0
	case KindFloat:
		switch {
		case a.F < b.F:
			return -1
		case a.F > b.F:
			return 1
		}
		return 0
	case KindString:
		return strings.Compare(a.S, b.S)
	}
	panic(fmt.Sprintf("relstore: cannot compare values of kind %s", a.Kind))
}

// CompareKeys orders two composite keys element-wise.
func CompareKeys(a, b []Value) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if c := CompareValues(a[i], b[i]); c != 0 {
			return c
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	}
	return 0
}

// AppendKey appends the string rendering of a composite key to dst and
// returns the extended buffer, following the append convention of the
// standard library (strconv.AppendInt and friends).  It is what violation
// details display; the hash indexes compare stored rows, not renderings
// (columns are joined with an unescaped 0x1f, so two distinct composite
// string keys can render alike).
//
// The encoding is not order preserving; ordered access goes through the
// B-tree, which compares order-preserving encodings.
func AppendKey(dst []byte, vals []Value) []byte {
	for i, v := range vals {
		if i > 0 {
			dst = append(dst, 0x1f)
		}
		switch v.Kind {
		case KindNull:
			dst = append(dst, 0x00, 'N')
		case KindInt:
			dst = append(dst, 'i')
			dst = strconv.AppendInt(dst, v.I, 10)
		case KindFloat:
			dst = append(dst, 'f')
			dst = strconv.AppendFloat(dst, v.F, 'g', -1, 64)
		case KindString:
			dst = append(dst, 's')
			dst = append(dst, v.S...)
		case KindBool:
			if v.I != 0 {
				dst = append(dst, 'b', '1')
			} else {
				dst = append(dst, 'b', '0')
			}
		case KindTime:
			dst = append(dst, 't')
			dst = strconv.AppendInt(dst, v.I, 10)
		default:
			panic(fmt.Sprintf("relstore: cannot encode key value of kind %s", v.Kind))
		}
	}
	return dst
}

// EncodeKey is the allocating convenience form of AppendKey.
func EncodeKey(vals []Value) string {
	return string(AppendKey(nil, vals))
}

// valueSizeRef estimates the storage footprint of a value in bytes, used for
// page-fill and log-volume accounting.  It takes a pointer because hot paths
// must not copy the 40-byte Value per call; both size accountings share this one
// table so heap/network and index/log volumes cannot drift apart.
func valueSizeRef(v *Value) int {
	switch v.Kind {
	case KindNull:
		return 1
	case KindInt:
		return 8
	case KindFloat:
		return 8
	case KindBool:
		return 1
	case KindTime:
		return 12
	case KindString:
		return 2 + len(v.S)
	default:
		return 16
	}
}

// RowSize estimates the storage footprint of a row in bytes.
//
// The loop indexes into the row instead of ranging over it: a range copies
// each 40-byte Value out of the slice per element, and RowSize sits on the
// client buffering path (arrayset.Add) as well as the heap append path, where
// that copy was measurable (BenchmarkArraySetAddFlush).
func RowSize(r Row) int {
	n := 4 // row header
	for i := range r {
		n += valueSizeRef(&r[i])
	}
	return n
}

// formatValue renders a value the way error messages display it.
func formatValue(v Value) string {
	switch v.Kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.I, 10)
	case KindFloat:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case KindString:
		return v.S
	case KindBool:
		return strconv.FormatBool(v.I != 0)
	case KindTime:
		return v.Time().Format(time.RFC3339)
	default:
		return fmt.Sprintf("Value(kind=%d)", v.Kind)
	}
}

// RoundTo rounds a float to the given number of decimal places; it is used by
// the catalog transformer to apply column precision during loading, one of the
// per-row transformations the paper performs while loading (§3).
func RoundTo(x float64, places int) float64 {
	if places < 0 {
		return x
	}
	var p float64
	if places < len(pow10) {
		p = pow10[places]
	} else {
		p = math.Pow(10, float64(places))
	}
	return math.Round(x*p) / p
}

// pow10 holds the powers of ten a float64 represents exactly; each equals
// math.Pow(10, n) bit for bit (TestRoundToPowTable).
var pow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}
