package catalog

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"testing"
)

// catalogDigests returns two FNV-64a digests of a generated file: one of the
// bytes WriteTo writes, and one of every record's tag, fields and line number
// followed by the file's counters (rows, bytes, rows per table, injected
// errors per kind, footprint).
func catalogDigests(t *testing.T, f *File) (text, recs string) {
	t.Helper()
	var buf bytes.Buffer
	n, err := f.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("%s: WriteTo reported %d bytes, wrote %d", f.Name, n, buf.Len())
	}
	th := fnv.New64a()
	th.Write(buf.Bytes())

	rh := fnv.New64a()
	for _, r := range f.Records {
		fmt.Fprintf(rh, "%s %d", r.Tag, r.Line)
		for _, fld := range r.Fields {
			fmt.Fprintf(rh, "|%q", fld)
		}
		rh.Write([]byte{'\n'})
	}
	fmt.Fprintf(rh, "rows %d actual %d nominal %d footprint %v %v\n",
		f.DataRows, f.ActualBytes, f.NominalBytes, f.RABase, f.DecBase)
	tables := make([]string, 0, len(f.RowsByTable))
	for tbl := range f.RowsByTable {
		tables = append(tables, tbl)
	}
	sort.Strings(tables)
	for _, tbl := range tables {
		fmt.Fprintf(rh, "%s=%d\n", tbl, f.RowsByTable[tbl])
	}
	kinds := make([]string, 0, len(f.ErrorsInjected))
	for k := range f.ErrorsInjected {
		kinds = append(kinds, string(k))
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Fprintf(rh, "%s=%d\n", k, f.ErrorsInjected[ErrorKind(k)])
	}
	return fmt.Sprintf("%016x", th.Sum64()), fmt.Sprintf("%016x", rh.Sum64())
}

// generatedDigests are catalogDigests of TestGeneratedCatalogDigest's files,
// recorded while every float field was written by strconv.FormatFloat and
// every line by Record.Format.
var generatedDigests = [][2]string{
	{"1f9ef6fd10b895e9", "9d7f5af8f071d6fd"}, // night007_file01.cat
	{"1f0dc6fa31f4ad72", "54174482c2348128"}, // night007_file02.cat
	{"0acd9cf466ec4be7", "6453e33f7f0af363"}, // night007_file03.cat
	{"90d11efa9f43f2da", "5da80406c375dbe2"}, // night007_file04.cat
	{"a7cf16f166802165", "11e93f004ba21ca7"}, // night007_file05.cat
	{"cf968a0ea332c4f8", "ef730fdc618bfa76"}, // night007_file06.cat
	{"15a95dd31bbd3984", "d2fa0ae83fce6caf"}, // catalog_3_0005MB.cat
}

// TestGeneratedCatalogDigest pins the generator's output byte for byte: a
// six-file night with every corruption kind injected, and one Unsorted file.
// The catalog text is the input of every load, experiment and oracle, so a
// faster generator must write the same bytes and build the same records.
func TestGeneratedCatalogDigest(t *testing.T) {
	files := GenerateNight(NightSpec{TotalMB: 60, Files: 6, Seed: 7, ErrorRate: 0.05, RunID: 1})
	kinds := map[ErrorKind]int{}
	for _, f := range files {
		for k, n := range f.ErrorsInjected {
			kinds[k] += n
		}
	}
	for _, k := range []ErrorKind{ErrDuplicateKey, ErrOutOfRange, ErrMissingValue, ErrOrphanRef, ErrMalformed} {
		if kinds[k] == 0 {
			t.Errorf("the night injects no %s; the digest would not cover it", k)
		}
	}
	files = append(files, Generate(GenSpec{SizeMB: 5, Seed: 3, ErrorRate: 0.05, Unsorted: true, IDBase: 10_000_000, RunID: 1}))
	if len(generatedDigests) != len(files) {
		for _, f := range files {
			text, recs := catalogDigests(t, f)
			t.Logf("{%q, %q}, // %s", text, recs, f.Name)
		}
		t.Fatalf("%d digests recorded for %d files", len(generatedDigests), len(files))
	}
	for i, f := range files {
		text, recs := catalogDigests(t, f)
		if want := generatedDigests[i]; text != want[0] || recs != want[1] {
			t.Errorf("%s: digests %s %s, recorded %s %s", f.Name, text, recs, want[0], want[1])
		}
	}
}

func TestTagSlotIsLayoutsPosition(t *testing.T) {
	for i, l := range Layouts {
		if got := tagSlot(l.Tag); got != i {
			t.Errorf("tagSlot(%s) = %d, its position in Layouts is %d", l.Tag, got, i)
		}
	}
}

// checkFixed fails t unless appendFixed writes v at prec as
// strconv.FormatFloat does, after a prefix it must leave alone.
func checkFixed(t *testing.T, v float64, prec int) {
	t.Helper()
	want := strconv.FormatFloat(v, 'f', prec, 64)
	if got := string(appendFixed([]byte("x"), v, prec)); got != "x"+want {
		t.Fatalf("appendFixed(%v [%#016x], %d) = %q, FormatFloat gives %q", v, math.Float64bits(v), prec, got[1:], want)
	}
}

// fixedCases are the values on which a shortcut formatter can go wrong:
// exact and near ties at every precision, values that round to zero, the 2^52
// edge of the shortcut and the special values.
func fixedCases() []float64 {
	vs := []float64{0, math.Copysign(0, -1), 1, -1, 0.1, 0.7, 1.005, 2.675, 1e-7, 123456.789,
		-0.0001, -0.0004999, -0.0005, -0.00049999999999999, -1e-300,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1022, 0x1p-1023, math.MaxFloat64,
		math.NaN(), math.Inf(1), math.Inf(-1), 1e15, 1e16, 1e22, 1e23, 1e300,
		0x1p52, 0x1p52 - 1, 0x1p52 + 1, 0x1p52 - 0.5, 0x1p53, 0x1p53 + 2, -0x1p52 + 1}
	for p := 0; p <= 8; p++ {
		for _, k := range []float64{0, 1, 2, 3, 7, 12, 99, 12345, 4503599627370} {
			tie := (k + 0.5) / pow10[p]
			vs = append(vs, tie, -tie, math.Nextafter(tie, 0), math.Nextafter(tie, math.Inf(1)),
				math.Nextafter(math.Nextafter(tie, 0), 0), math.Nextafter(math.Nextafter(tie, 10), 10))
		}
		for _, edge := range []float64{0x1p52 - 1, 0x1p52, 0x1p52 + 1, 0x1p53} {
			vs = append(vs, edge/pow10[p], -edge/pow10[p], math.Nextafter(edge/pow10[p], 0))
		}
	}
	return vs
}

// TestAppendFixedMatchesFormatFloat holds the generator's formatter to
// strconv.FormatFloat byte for byte on the edge cases at every precision the
// generator uses and beyond, and on a million values drawn the way the
// generator draws them.
func TestAppendFixedMatchesFormatFloat(t *testing.T) {
	for _, v := range fixedCases() {
		for p := -1; p <= 24; p++ {
			checkFixed(t, v, p)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1_000_000; i++ {
		v := (rng.Float64() - 0.2) * math.Pow(10, float64(rng.Intn(12)-4))
		checkFixed(t, v, rng.Intn(10))
	}
}

// TestAppendFixedShortcut: the shortcut, not strconv, writes the values the
// generator formats (else the formatter is only as fast as strconv), and it
// leaves every exact tie, whose rounding depends on digits it cannot see, to
// strconv.
func TestAppendFixedShortcut(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const n = 100_000
	fast := 0
	for i := 0; i < n; i++ {
		if _, ok := appendFixedFast(nil, 1000*rng.Float64(), 2+rng.Intn(7)); ok {
			fast++
		}
	}
	if fast < n*999/1000 {
		t.Errorf("the shortcut wrote %d of %d generator-like values", fast, n)
	}
	for p := 0; p <= 8; p++ {
		for k := 0.0; k < 50; k++ {
			tie := (k + 0.5) / pow10[p]
			if tie*pow10[p] != k+0.5 {
				continue // (k+0.5)/10^p is not exactly representable: no tie
			}
			if _, ok := appendFixedFast(nil, tie, p); ok {
				t.Errorf("the shortcut wrote the exact tie %v at precision %d", tie, p)
			}
		}
	}
}

// FuzzFormatFixed: appendFixed writes what strconv.FormatFloat writes, for
// any float64 and precisions -1 to 24.  The seed corpus
// (testdata/fuzz/FuzzFormatFixed) holds ties, values either side of them,
// the shortcut's 2^52 edge, −0, subnormals, NaN and ±Inf.
func FuzzFormatFixed(f *testing.F) {
	f.Fuzz(func(t *testing.T, v float64, prec uint8) {
		checkFixed(t, v, int(prec%26)-1)
	})
}

// TestGenerateAllocsPerRecord holds the generator to its allocation budget
// on a fixed spec: a record's fields are formatted into scratch and carved
// from one string, so a record costs about one allocation (9.07 when every
// field was its own string, formatted by strconv, and every record its own
// []string).  WriteTo appends every line to one reused buffer, so its
// allocations do not grow with the file.
func TestGenerateAllocsPerRecord(t *testing.T) {
	const ceiling = 1.17 // allocations per generated record: 1.11 measured + 5 %
	spec := GenSpec{SizeMB: 10, Seed: 3, ErrorRate: 0.01}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f := Generate(spec)
	runtime.ReadMemStats(&after)
	perRecord := float64(after.Mallocs-before.Mallocs) / float64(f.DataRows)
	t.Logf("%d records: %.3f allocations per record", f.DataRows, perRecord)
	if perRecord > ceiling {
		t.Errorf("%.3f allocations per generated record, ceiling %.2f", perRecord, ceiling)
	}

	writeAllocs := func(f *File) uint64 {
		runtime.GC()
		runtime.ReadMemStats(&before)
		if _, err := f.WriteTo(io.Discard); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	large := Generate(GenSpec{SizeMB: 100, Seed: 3, ErrorRate: 0.01})
	small, big := writeAllocs(f), writeAllocs(large)
	t.Logf("WriteTo: %d allocations for %d records, %d for %d", small, f.DataRows, big, large.DataRows)
	if big > small || big > 4 {
		t.Errorf("WriteTo made %d allocations for %d records and %d for %d; want the same few for both",
			small, f.DataRows, big, large.DataRows)
	}
}
