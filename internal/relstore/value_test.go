package relstore

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestCoerce(t *testing.T) {
	ts := time.Date(2005, 11, 12, 0, 0, 0, 0, time.UTC)
	cases := []struct {
		in      Value
		typ     ColType
		want    Value
		wantErr bool
	}{
		{Int(7), TypeInt, Int(7), false},
		{Float(7.0), TypeInt, Int(7), false},
		{Float(7.5), TypeInt, Null, true},
		{Str(" 42 "), TypeInt, Int(42), false},
		{Str("x"), TypeInt, Null, true},
		{Float(3.25), TypeFloat, Float(3.25), false},
		{Int(5), TypeFloat, Float(5.0), false},
		{Str("2.5"), TypeFloat, Float(2.5), false},
		{Str("abc"), TypeFloat, Null, true},
		{Str("hello"), TypeString, Str("hello"), false},
		{Int(12), TypeString, Str("12"), false},
		{Float(2.5), TypeString, Str("2.5"), false},
		{Time(ts), TypeTime, Time(ts), false},
		{Str("2005-11-12T00:00:00Z"), TypeTime, Time(ts), false},
		{Int(ts.Unix()), TypeTime, Time(ts), false},
		{Str("not a time"), TypeTime, Null, true},
		{Bool(true), TypeBool, Bool(true), false},
		{Str("true"), TypeBool, Bool(true), false},
		{Int(0), TypeBool, Bool(false), false},
		{Bool(true), TypeInt, Null, true},
		{Null, TypeInt, Null, false},
	}
	for i, c := range cases {
		got, err := coerce(c.in, c.typ)
		if c.wantErr {
			if err == nil {
				t.Errorf("case %d: expected error for %v -> %v", i, c.in, c.typ)
			}
			continue
		}
		if err != nil {
			t.Errorf("case %d: unexpected error: %v", i, err)
			continue
		}
		if got != c.want {
			t.Errorf("case %d: got %v, want %v", i, got, c.want)
		}
	}
}

func TestValueConstructorsAndAccessors(t *testing.T) {
	if !Null.IsNull() || Int(1).IsNull() {
		t.Error("IsNull broken")
	}
	if Int(7).Int() != 7 || Float(2.5).Float() != 2.5 || Str("x").S != "x" {
		t.Error("accessors broken")
	}
	if !Bool(true).Bool() || Bool(false).Bool() {
		t.Error("bool accessor broken")
	}
	ts := time.Date(2005, 11, 12, 3, 4, 5, 600, time.UTC)
	if !Time(ts).Time().Equal(ts) {
		t.Errorf("time round trip: got %v, want %v", Time(ts).Time(), ts)
	}
}

func TestCompareValues(t *testing.T) {
	if CompareValues(Null, Null) != 0 {
		t.Error("NULL should equal NULL")
	}
	if CompareValues(Null, Int(1)) != -1 || CompareValues(Int(1), Null) != 1 {
		t.Error("NULL should sort before values")
	}
	if CompareValues(Int(1), Int(2)) != -1 || CompareValues(Int(2), Int(1)) != 1 || CompareValues(Int(2), Int(2)) != 0 {
		t.Error("integer comparison broken")
	}
	if CompareValues(Str("a"), Str("b")) != -1 {
		t.Error("string comparison broken")
	}
	if CompareValues(Bool(false), Bool(true)) != -1 || CompareValues(Bool(true), Bool(true)) != 0 {
		t.Error("bool comparison broken")
	}
	a := Time(time.Unix(1, 0))
	b := Time(time.Unix(2, 0))
	if CompareValues(a, b) != -1 || CompareValues(b, a) != 1 {
		t.Error("time comparison broken")
	}
}

func TestCompareValuesKindMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("comparing mismatched kinds should panic")
		}
	}()
	CompareValues(Int(1), Str("1"))
}

func TestCompareKeys(t *testing.T) {
	if CompareKeys([]Value{Int(1), Str("a")}, []Value{Int(1), Str("b")}) != -1 {
		t.Error("composite comparison broken")
	}
	if CompareKeys([]Value{Int(1)}, []Value{Int(1), Str("b")}) != -1 {
		t.Error("shorter prefix should sort first")
	}
	if CompareKeys([]Value{Int(2)}, []Value{Int(1), Str("b")}) != 1 {
		t.Error("first column should dominate")
	}
}

// TestCompareValuesProperty checks antisymmetry and reflexivity of the int and
// float orderings.
func TestCompareValuesProperty(t *testing.T) {
	f := func(a, b int64) bool {
		x, y := Int(a), Int(b)
		return CompareValues(x, y) == -CompareValues(y, x) && CompareValues(x, x) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	g := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		x, y := Float(a), Float(b)
		return CompareValues(x, y) == -CompareValues(y, x)
	}
	if err := quick.Check(g, nil); err != nil {
		t.Fatal(err)
	}
}

// TestEncodeKeyInjective checks that distinct int pairs never collide.
func TestEncodeKeyInjective(t *testing.T) {
	f := func(a1, a2, b1, b2 int64) bool {
		ka := EncodeKey([]Value{Int(a1), Int(a2)})
		kb := EncodeKey([]Value{Int(b1), Int(b2)})
		if a1 == b1 && a2 == b2 {
			return ka == kb
		}
		return ka != kb
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeKeyTypesDistinct(t *testing.T) {
	if EncodeKey([]Value{Int(1)}) == EncodeKey([]Value{Str("1")}) {
		t.Error("int and string encodings must differ")
	}
	if EncodeKey([]Value{Null}) == EncodeKey([]Value{Str("")}) {
		t.Error("NULL and empty string encodings must differ")
	}
}

// TestAppendKeyMatchesEncodeKey pins that the scratch-buffer path and the
// allocating path produce identical encodings (the hash maps mix both).
func TestAppendKeyMatchesEncodeKey(t *testing.T) {
	keys := [][]Value{
		{Int(42)},
		{Int(-3), Float(2.5), Str("R")},
		{Null, Bool(true), Bool(false)},
		{Time(time.Unix(123, 456))},
	}
	buf := make([]byte, 0, 64)
	for _, key := range keys {
		buf = AppendKey(buf[:0], key)
		if string(buf) != EncodeKey(key) {
			t.Errorf("AppendKey(%v) = %q, EncodeKey = %q", key, buf, EncodeKey(key))
		}
	}
}

func TestRowSizeAndValueSize(t *testing.T) {
	row := Row{Int(1), Float(2.5), Str("abc"), Null, Bool(true)}
	if got := RowSize(row); got != 4+8+8+(2+3)+1+1 {
		t.Errorf("RowSize = %d", got)
	}
	if v := Time(time.Now()); valueSizeRef(&v) != 12 {
		t.Error("time size should be 12")
	}
}

func TestRoundTo(t *testing.T) {
	if RoundTo(3.14159, 2) != 3.14 {
		t.Errorf("RoundTo(3.14159,2) = %v", RoundTo(3.14159, 2))
	}
	if RoundTo(2.5, 0) != 3 {
		t.Errorf("RoundTo(2.5,0) = %v", RoundTo(2.5, 0))
	}
	if RoundTo(1.23456, -1) != 1.23456 {
		t.Error("negative places should be a no-op")
	}
	// The power-of-ten table is math.Pow(10, n) bit for bit, so rounding is
	// unchanged by it; past the table RoundTo still computes the power.
	for n, p := range pow10 {
		if math.Float64bits(p) != math.Float64bits(math.Pow(10, float64(n))) {
			t.Errorf("pow10[%d] = %v differs from math.Pow(10, %d) = %v", n, p, n, math.Pow(10, float64(n)))
		}
	}
	for _, places := range []int{0, 1, 8, 22, 23, 30} {
		p := math.Pow(10, float64(places))
		for _, x := range []float64{math.Pi, -2.5e-7, 123456.789, 0.1 + 0.2} {
			if got, want := RoundTo(x, places), math.Round(x*p)/p; math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("RoundTo(%v, %d) = %v, want %v", x, places, got, want)
			}
		}
	}
}

func TestFormatValue(t *testing.T) {
	cases := map[string]Value{
		"NULL": Null,
		"42":   Int(42),
		"2.5":  Float(2.5),
		"abc":  Str("abc"),
		"true": Bool(true),
	}
	for want, v := range cases {
		if got := formatValue(v); got != want {
			t.Errorf("FormatValue(%v) = %q, want %q", v, got, want)
		}
	}
}
