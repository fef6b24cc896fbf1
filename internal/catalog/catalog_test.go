package catalog

import (
	"bufio"
	"bytes"
	"fmt"
	"hash/fnv"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"skyloader/internal/relstore"
)

func TestSchemaHas23Tables(t *testing.T) {
	s := NewSchema()
	if s.NumTables() != 23 {
		t.Fatalf("schema has %d tables, want 23 (as in Figure 1)", s.NumTables())
	}
	for _, l := range Layouts {
		if s.Table(l.Table) == nil {
			t.Errorf("table %q missing from schema", l.Table)
		}
	}
}

func TestSchemaTopologicalOrderRespectsHierarchy(t *testing.T) {
	s := NewSchema()
	order, err := s.TopologicalOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := map[string]int{}
	for i, n := range order {
		pos[n] = i
	}
	chains := [][2]string{
		{TObservations, TCCDColumns},
		{TCCDColumns, TCCDFrames},
		{TCCDFrames, TObjects},
		{TObjects, TObjectFingers},
		{TObjects, TObjectShapes},
		{TCCDFrames, TFrameApertures},
		{TTelescopes, TObservations},
		{TQualityFlags, TObjectFlags},
	}
	for _, c := range chains {
		if pos[c[0]] >= pos[c[1]] {
			t.Errorf("%s should precede %s in load order", c[0], c[1])
		}
	}
}

func TestSeedReference(t *testing.T) {
	db := relstore.MustOpen(NewSchema())
	txn, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := SeedReference(txn, 10); err != nil {
		t.Fatal(err)
	}
	if _, err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	counts := db.RowCounts()
	if counts[TCCDs] != NumCCDsPerInstrument {
		t.Fatalf("ccds = %d, want %d", counts[TCCDs], NumCCDsPerInstrument)
	}
	if counts[TFilters] != int64(len(FilterNames)) {
		t.Fatalf("filters = %d", counts[TFilters])
	}
	if counts[TObservingRuns] != 10 {
		t.Fatalf("runs = %d", counts[TObservingRuns])
	}
	if counts[TQualityFlags] != int64(len(QualityFlagNames)) {
		t.Fatalf("quality flags = %d", counts[TQualityFlags])
	}
	if orphans, _ := db.VerifyIntegrity(); orphans != 0 {
		t.Fatalf("reference data has %d orphans", orphans)
	}
	// Default run count applies when numRuns <= 0.
	db2 := relstore.MustOpen(NewSchema())
	txn2, _ := db2.Begin()
	if err := SeedReference(txn2, 0); err != nil {
		t.Fatal(err)
	}
	if n, _ := db2.Count(TObservingRuns); n != 16 {
		t.Fatalf("default runs = %d, want 16", n)
	}
}

func TestTagLayoutsMatchSchema(t *testing.T) {
	s := NewSchema()
	for _, l := range Layouts {
		ts := s.Table(l.Table)
		if ts == nil {
			t.Errorf("tag %s references unknown table %q", l.Tag, l.Table)
			continue
		}
		for _, f := range l.Fields {
			if !ts.HasColumn(f) {
				t.Errorf("tag %s field %q is not a column of %q", l.Tag, f, l.Table)
			}
		}
	}
	if _, ok := LayoutFor(Tag("XXX")); ok {
		t.Error("unknown tag should not resolve")
	}
	if l, ok := LayoutFor(TagOBJ); !ok || l.Table != TObjects {
		t.Errorf("LayoutFor(OBJ).Table = %q", l.Table)
	}
}

func TestParseLine(t *testing.T) {
	rec := Record{Tag: TagFNG, Fields: []string{"1", "2", "3", "4.5", "0.1", "2.0"}}
	parsed, err := ParseLine(rec.Format(), 7)
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Tag != TagFNG || parsed.Line != 7 || len(parsed.Fields) != 6 {
		t.Fatalf("parsed = %+v", parsed)
	}
	if _, err := ParseLine("", 1); err != ErrSkipLine {
		t.Fatalf("blank line: %v", err)
	}
	if _, err := ParseLine("# comment", 1); err != ErrSkipLine {
		t.Fatalf("comment line: %v", err)
	}
	if _, err := ParseLine("ZZZ|1|2", 3); err == nil {
		t.Fatal("unknown tag should fail")
	} else if pe, ok := err.(*ParseError); !ok || pe.Line != 3 {
		t.Fatalf("unexpected error type: %v", err)
	}
	if _, err := ParseLine("OBJ|1|2", 4); err == nil {
		t.Fatal("wrong field count should fail")
	}
}

// TestRecordFormatParseRoundTrip checks Format/ParseLine are inverses for
// arbitrary printable field content without the separator.
func TestRecordFormatParseRoundTrip(t *testing.T) {
	f := func(a, b uint32, s string) bool {
		s = strings.Map(func(r rune) rune {
			if r == '|' || r == '\n' || r == '\r' {
				return '_'
			}
			return r
		}, s)
		rec := Record{Tag: TagPRM, Fields: []string{strconv.FormatUint(uint64(a), 10), strconv.FormatUint(uint64(b), 10), "name", s}}
		parsed, err := ParseLine(rec.Format(), 1)
		if err != nil || rec.Bytes() != len(rec.Format())+1 || string(rec.AppendLine([]byte("x"))) != "x"+rec.Format()+"\n" {
			return false
		}
		if parsed.Tag != rec.Tag || len(parsed.Fields) != len(rec.Fields) {
			return false
		}
		for i := range rec.Fields {
			if parsed.Fields[i] != rec.Fields[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	// Bytes counts the line without rendering it, for any field count.
	for _, rec := range []Record{{Tag: TagOBS}, {Tag: TagOBS, Fields: []string{""}}, {Tag: TagOBS, Fields: []string{"", "x", ""}}} {
		if rec.Bytes() != len(rec.Format())+1 {
			t.Errorf("%q: Bytes() = %d, want %d", rec.Format(), rec.Bytes(), len(rec.Format())+1)
		}
		if got := string(rec.AppendLine(nil)); got != rec.Format()+"\n" {
			t.Errorf("AppendLine gives %q, Format %q", got, rec.Format())
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	spec := GenSpec{SizeMB: 5, Seed: 42, ErrorRate: 0.05}
	a := Generate(spec)
	b := Generate(spec)
	if a.DataRows != b.DataRows || len(a.Records) != len(b.Records) {
		t.Fatalf("same seed produced different row counts: %d vs %d", a.DataRows, b.DataRows)
	}
	for i := range a.Records {
		if a.Records[i].Format() != b.Records[i].Format() {
			t.Fatalf("record %d differs between runs", i)
		}
	}
	c := Generate(GenSpec{SizeMB: 5, Seed: 43, ErrorRate: 0.05})
	if c.Records[0].Format() == a.Records[0].Format() {
		t.Error("different seeds should produce different data")
	}
}

func TestGenerateSizeScaling(t *testing.T) {
	small := Generate(GenSpec{SizeMB: 5, Seed: 1})
	large := Generate(GenSpec{SizeMB: 50, Seed: 1})
	if small.DataRows < 500 || large.DataRows < 5000 {
		t.Fatalf("row counts: small=%d large=%d", small.DataRows, large.DataRows)
	}
	// Each frame block adds ~100 rows, so small files overshoot their target
	// slightly; the ratio is close to, but not exactly, 10x.
	ratio := float64(large.DataRows) / float64(small.DataRows)
	if ratio < 7.5 || ratio > 12 {
		t.Fatalf("10x size produced %.1fx rows", ratio)
	}
	if large.NominalBytes != 50_000_000 {
		t.Fatalf("NominalBytes = %d", large.NominalBytes)
	}
	custom := Generate(GenSpec{SizeMB: 2, Seed: 1, RowsPerMB: 500})
	if custom.DataRows < 900 {
		t.Fatalf("RowsPerMB override ignored: %d rows", custom.DataRows)
	}
}

func TestGenerateStructure(t *testing.T) {
	f := Generate(GenSpec{SizeMB: 5, Seed: 7})
	if f.RowsByTable[TObservations] != 1 {
		t.Fatalf("observations = %d, want 1", f.RowsByTable[TObservations])
	}
	if f.RowsByTable[TCCDColumns] != 4 {
		t.Fatalf("ccd_columns = %d, want 4", f.RowsByTable[TCCDColumns])
	}
	frames := f.RowsByTable[TCCDFrames]
	if frames == 0 {
		t.Fatal("no frames generated")
	}
	if f.RowsByTable[TFrameApertures] != 4*frames {
		t.Fatalf("apertures = %d, want 4x frames (%d)", f.RowsByTable[TFrameApertures], frames)
	}
	objects := f.RowsByTable[TObjects]
	if f.RowsByTable[TObjectFingers] != 4*objects {
		t.Fatalf("fingers = %d, want 4x objects (%d)", f.RowsByTable[TObjectFingers], objects)
	}
	if f.TotalInjectedErrors() != 0 {
		t.Fatal("error-free spec injected errors")
	}
	// The first record must be the observation header (presorted output).
	if f.Records[0].Tag != TagOBS {
		t.Fatalf("first record tag = %s", f.Records[0].Tag)
	}
}

func TestGenerateErrorInjection(t *testing.T) {
	f := Generate(GenSpec{SizeMB: 10, Seed: 11, ErrorRate: 0.10})
	total := f.TotalInjectedErrors()
	if total == 0 {
		t.Fatal("no errors injected at 10% rate")
	}
	frac := float64(total) / float64(f.DataRows)
	if frac < 0.05 || frac > 0.15 {
		t.Fatalf("injected fraction = %.3f, want ~0.10", frac)
	}
	kinds := 0
	for _, n := range f.ErrorsInjected {
		if n > 0 {
			kinds++
		}
	}
	if kinds < 3 {
		t.Fatalf("only %d error kinds injected", kinds)
	}
}

func TestGenerateUnsorted(t *testing.T) {
	f := Generate(GenSpec{SizeMB: 2, Seed: 5, Unsorted: true})
	// In unsorted mode some child rows (e.g. OBJ) must appear before their
	// parent FRM row.
	firstFRM, firstOBJ := -1, -1
	for i, r := range f.Records {
		if r.Tag == TagFRM && firstFRM < 0 {
			firstFRM = i
		}
		if r.Tag == TagOBJ && firstOBJ < 0 {
			firstOBJ = i
		}
	}
	if firstFRM < firstOBJ {
		t.Fatal("unsorted mode still emitted the frame before its objects")
	}
}

func TestWriteToAndReadRecords(t *testing.T) {
	f := Generate(GenSpec{SizeMB: 3, Seed: 9, ErrorRate: 0.02})
	var buf bytes.Buffer
	n, err := f.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	recs, errs := ReadRecords(&buf)
	if len(errs) != 0 {
		t.Fatalf("parse errors: %v", errs)
	}
	if len(recs) != len(f.Records) {
		t.Fatalf("read %d records, want %d", len(recs), len(f.Records))
	}
	for i := range recs {
		if recs[i].Format() != f.Records[i].Format() {
			t.Fatalf("record %d mismatch after round trip", i)
		}
	}
	// Malformed lines are reported but do not abort.
	recs2, errs2 := ReadRecords(strings.NewReader("OBS|1\nFNG|1|2|3|4|5|6\n"))
	if len(recs2) != 1 || len(errs2) != 1 {
		t.Fatalf("partial parse: %d records, %d errors", len(recs2), len(errs2))
	}
}

func TestGenerateNight(t *testing.T) {
	files := GenerateNight(NightSpec{TotalMB: 140, Seed: 3, RowsPerMB: 50, RunID: 1})
	if len(files) != FilesPerObservation {
		t.Fatalf("files = %d, want %d", len(files), FilesPerObservation)
	}
	var total float64
	min, max := files[0].Spec.SizeMB, files[0].Spec.SizeMB
	ids := map[int64]bool{}
	for _, f := range files {
		total += f.Spec.SizeMB
		if f.Spec.SizeMB < min {
			min = f.Spec.SizeMB
		}
		if f.Spec.SizeMB > max {
			max = f.Spec.SizeMB
		}
		if ids[f.Spec.IDBase] {
			t.Fatal("duplicate IDBase across files")
		}
		ids[f.Spec.IDBase] = true
	}
	if total < 139 || total > 141 {
		t.Fatalf("total night size = %.1f MB, want ~140", total)
	}
	if max/min < 1.2 {
		t.Fatalf("file sizes do not vary: min=%.1f max=%.1f", min, max)
	}
	few := GenerateNight(NightSpec{TotalMB: 10, Seed: 3, Files: 4})
	if len(few) != 4 {
		t.Fatalf("override file count = %d", len(few))
	}
}

func TestTransformBasicTags(t *testing.T) {
	s := NewSchema()
	tr := NewTransformer(s)
	rec := Record{Tag: TagFNG, Fields: []string{"10", "20", "1", "100.5", "0.1", "3.0"}, Line: 12}
	row, err := tr.Transform(rec)
	if err != nil {
		t.Fatal(err)
	}
	if row.Table != TObjectFingers || len(row.Columns) != 6 || len(row.Values) != 6 {
		t.Fatalf("row = %+v", row)
	}
	if row.Values[0] != relstore.Int(10) || row.Values[3] != relstore.Float(100.5) {
		t.Fatalf("values = %v", row.Values)
	}
	if row.Bytes != rec.Bytes() {
		t.Fatalf("Bytes = %d, want %d", row.Bytes, rec.Bytes())
	}
}

func TestTransformNullAndPrecision(t *testing.T) {
	s := NewSchema()
	tr := NewTransformer(s)
	// seeing_arcsec has precision 2; empty sky_level becomes NULL.
	rec := Record{Tag: TagFRM, Fields: []string{"1", "2", "0", "53600.123456789", "145.00", "1.23456", "", "23.5"}}
	row, err := tr.Transform(rec)
	if err != nil {
		t.Fatal(err)
	}
	seeing := row.Values[5].Float()
	if seeing != 1.23 {
		t.Fatalf("precision not applied: %v", seeing)
	}
	if !row.Values[6].IsNull() {
		t.Fatalf("empty field should be NULL, got %v", row.Values[6])
	}
}

func TestTransformObjectDerivedColumns(t *testing.T) {
	s := NewSchema()
	tr := NewTransformer(s)
	rec := Record{Tag: TagOBJ, Fields: []string{"1", "2", "187.25", "2.05", "18.2", "0.02", "1.5", "0.1", "3"}}
	row, err := tr.Transform(rec)
	if err != nil {
		t.Fatal(err)
	}
	if len(row.Columns) != 13 {
		t.Fatalf("object columns = %d, want 13 (9 raw + htmid/cx/cy/cz)", len(row.Columns))
	}
	htmid := row.Values[9]
	if htmid.Kind != relstore.KindInt || htmid.I < 8 {
		t.Fatalf("htmid = %v", row.Values[9])
	}
	cx := row.Values[10].Float()
	cy := row.Values[11].Float()
	cz := row.Values[12].Float()
	norm := cx*cx + cy*cy + cz*cz
	if norm < 0.999 || norm > 1.001 {
		t.Fatalf("unit vector norm^2 = %v", norm)
	}
}

func TestTransformErrors(t *testing.T) {
	s := NewSchema()
	tr := NewTransformer(s)
	cases := []struct {
		rec  Record
		want string // the loader prints these; the text is part of the tool's output
	}{
		{Record{Tag: Tag("XXX"), Fields: []string{"1"}, Line: 3},
			`catalog: line 3 (XXX) field "": unknown tag`},
		{Record{Tag: TagFNG, Fields: []string{"1", "2"}, Line: 4}, // wrong arity
			`catalog: line 4 (FNG) field "": expected 6 fields, got 2`},
		{Record{Tag: TagFNG, Fields: []string{"1", "2", "1", "N/A", "0.1", "3.0"}, Line: 5}, // malformed float
			`catalog: line 5 (FNG) field "flux": not a float: "N/A"`},
		{Record{Tag: TagFNG, Fields: []string{"1", "2", "1", "NaN", "0.1", "3.0"}, Line: 5}, // ParseFloat accepts it
			`catalog: line 5 (FNG) field "flux": not a finite float: "NaN"`},
		{Record{Tag: TagOBJ, Fields: []string{"1", "2", "10", "10", "-Inf", "", "", "", ""}, Line: 6},
			`catalog: line 6 (OBJ) field "mag": not a finite float: "-Inf"`},
		{Record{Tag: TagOBJ, Fields: []string{"x", "2", "10", "10", "18", "", "", "", ""}, Line: 6}, // malformed int
			`catalog: line 6 (OBJ) field "object_id": not an integer: "x"`},
		{Record{Tag: TagOBJ, Fields: []string{"1", "2", "", "2.05", "18", "", "", "", ""}, Line: 7}, // missing ra
			`catalog: line 7 (OBJ) field "ra/dec": object position missing, cannot compute htmid`},
		{Record{Tag: TagOBJ, Fields: []string{"1", "2", "10", "", "18", "", "", "", ""}}, // missing dec
			`catalog: line 0 (OBJ) field "ra/dec": object position missing, cannot compute htmid`},
	}
	for i, c := range cases {
		if _, err := tr.Transform(c.rec); err == nil || err.Error() != c.want {
			t.Errorf("case %d: error %v, want %s", i, err, c.want)
		}
	}

	// A schema that lacks a tag's table, or a field's column, fails the
	// records that need them — and only those: an empty field never consults
	// its column.
	small, err := relstore.NewSchema(&relstore.TableSchema{
		Name:       TObjectFingers,
		Columns:    []relstore.Column{{Name: "finger_id", Type: relstore.TypeInt}, {Name: "flux", Type: relstore.TypeFloat, Precision: 2}},
		PrimaryKey: []string{"finger_id"},
	})
	if err != nil {
		t.Fatal(err)
	}
	partial := NewTransformer(small)
	if _, err := partial.Transform(Record{Tag: TagOBS, Fields: []string{"1"}, Line: 9}); err == nil ||
		err.Error() != `catalog: line 9 (OBS) field "": schema has no table "observations"` {
		t.Errorf("missing table: %v", err)
	}
	if _, err := partial.Transform(Record{Tag: TagFNG, Fields: []string{"1", "2", "1", "2.345", "0.1", "3.0"}, Line: 10}); err == nil ||
		err.Error() != `catalog: line 10 (FNG) field "object_id": table "object_fingers" has no column "object_id"` {
		t.Errorf("missing column: %v", err)
	}
	got, err := partial.Transform(Record{Tag: TagFNG, Fields: []string{"1", "", "", "2.345", "", ""}, Line: 11})
	if err != nil || got.Values[0] != relstore.Int(1) || got.Values[3] != relstore.Float(2.35) || !got.Values[1].IsNull() {
		t.Errorf("empty fields over missing columns: %+v, %v", got, err)
	}
	// Out-of-range coordinates survive the transform (the database check
	// constraint rejects them later) but produce a NULL htmid.
	row, err := tr.Transform(Record{Tag: TagOBJ, Fields: []string{"1", "2", "10", "123.0", "18", "", "", "", ""}})
	if err != nil {
		t.Fatalf("out-of-range dec should not fail the transform: %v", err)
	}
	if !row.Values[9].IsNull() {
		t.Fatalf("htmid for invalid position = %v, want NULL", row.Values[9])
	}
}

// TestGeneratedFilesTransformCleanly checks that every record of an
// error-free generated file transforms without client-side errors.
func TestGeneratedFilesTransformCleanly(t *testing.T) {
	s := NewSchema()
	tr := NewTransformer(s)
	f := Generate(GenSpec{SizeMB: 5, Seed: 21})
	for _, rec := range f.Records {
		if _, err := tr.Transform(rec); err != nil {
			t.Fatalf("record %q failed: %v", rec.Format(), err)
		}
	}
}

// parseLines is the specification ReadRecords and ParseText are held to:
// the text is lines ended by newlines (a last one may lack it), numbered from
// 1, each given to ParseLine on its own; blank and comment lines give
// nothing, a malformed line its error, in line order.  It covers lines under
// the length limit only (TestReadRecordsLongLine has the rest) and reports
// whether the text has none longer.
func parseLines(text string) (recs []Record, errs []error, ok bool) {
	lines := strings.Split(text, "\n")
	if lines[len(lines)-1] == "" {
		lines = lines[:len(lines)-1]
	}
	for i, line := range lines {
		if len(line) >= maxLineBytes {
			return nil, nil, false
		}
		rec, err := ParseLine(line, i+1)
		switch {
		case err == nil:
			recs = append(recs, rec)
		case err != ErrSkipLine:
			errs = append(errs, err)
		}
	}
	return recs, errs, true
}

// sameParse reports the first difference between two parses of one text:
// records (tag, every field, line number) and error strings, in order; want
// is the specification's.
func sameParse(gotRecs []Record, gotErrs []error, wantRecs []Record, wantErrs []error) error {
	if len(gotRecs) != len(wantRecs) {
		return fmt.Errorf("%d records, want %d", len(gotRecs), len(wantRecs))
	}
	for i, want := range wantRecs {
		got := gotRecs[i]
		if got.Tag != want.Tag || got.Line != want.Line || len(got.Fields) != len(want.Fields) {
			return fmt.Errorf("record %d: %+v, want %+v", i, got, want)
		}
		for j := range want.Fields {
			if got.Fields[j] != want.Fields[j] {
				return fmt.Errorf("record %d field %d: %q, want %q", i, j, got.Fields[j], want.Fields[j])
			}
		}
	}
	if len(gotErrs) != len(wantErrs) {
		return fmt.Errorf("%d errors %v, want %d %v", len(gotErrs), gotErrs, len(wantErrs), wantErrs)
	}
	for i, want := range wantErrs {
		if gotErrs[i].Error() != want.Error() {
			return fmt.Errorf("error %d: %q, want %q", i, gotErrs[i], want)
		}
	}
	return nil
}

// nightText serialises a generated night into one text per file.
func nightText(t testing.TB, spec NightSpec) []string {
	t.Helper()
	var texts []string
	for _, f := range GenerateNight(spec) {
		var buf bytes.Buffer
		if _, err := f.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		texts = append(texts, buf.String())
	}
	return texts
}

// parserCases are the inputs on which the line rules differ from "split at
// every | and newline".
var parserCases = map[string]string{
	"empty file":          "",
	"only a newline":      "\n",
	"no trailing newline": "PRM|1|2|name|value",
	"CRLF":                "PRM|1|2|name|value\r\nPRM|3|4|n|v\r\n",
	"CR only inside":      "PRM|1|2|na\rme|value\nPRM|3|4|n|v\r\r\n",
	"blank and comments":  "\n# header\n\nPRM|1|2|name|value\n#PRM|1|2|n|v\n \n\r\n",
	"comment after space": " # not a comment\n",
	"unknown tag":         "ZZZ|1|2\nprm|1|2|n|v\n|1|2\n",
	"short field count":   "OBJ|1|2\nPRM\nPRM|\n",
	"long field count":    "PRM|1|2|name|value|extra\n",
	"separator at end":    "PRM|1|2|name|\nPRM|1|2|name|value|\n",
	"spaces around tag":   " PRM |1|2|name|value\n\tFNG\t|1|2|3|4|5|6\n",
	"NUL bytes":           "PRM|1|\x00|na\x00me|value\n\x00\nPRM\x00|1|2|n|v\n",
	"invalid UTF-8":       "PRM|\xff|\xfe|n|v\n\xff\xfe|1\n",
	"many empty lines":    "\n\n\n\nPRM|1|2|n|v\n\n\n",
}

// parseDigest is an FNV-1a digest of a parse: every record's line number,
// tag and fields, then every error's text.
func parseDigest(recs []Record, errs []error) string {
	h := fnv.New64a()
	for _, r := range recs {
		fmt.Fprintf(h, "%d %s", r.Line, r.Tag)
		for _, f := range r.Fields {
			fmt.Fprintf(h, "|%q", f)
		}
		h.Write([]byte{'\n'})
	}
	for _, e := range errs {
		fmt.Fprintf(h, "%q\n", e.Error())
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// damagedNightDigests are parseDigest of each file of
// TestReadRecordsMatchesScanner's damaged night as the bufio.Scanner parser
// ReadRecords replaced parsed it, recorded while that parser still ran beside
// ReadRecords.
var damagedNightDigests = []string{"475245ebe5345758", "39b8a33333082fee", "0f2eb30939d8ce30", "f6861385c6b6a56d"}

// TestReadRecordsMatchesScanner holds the arena splitter to the parser it
// replaced: on a generated night with corrupted rows, the records, line
// numbers and error strings that parser gave, pinned by digest; on every edge
// of the line format, the per-line specification.
func TestReadRecordsMatchesScanner(t *testing.T) {
	for name, text := range parserCases {
		gotRecs, gotErrs := ReadRecords(strings.NewReader(text))
		wantRecs, wantErrs, _ := parseLines(text)
		if err := sameParse(gotRecs, gotErrs, wantRecs, wantErrs); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	for i, text := range nightText(t, NightSpec{TotalMB: 40, Seed: 5, ErrorRate: 0.02, RunID: 1, Files: 4}) {
		// Damage a few lines the way a truncated or mis-joined file would, so
		// the night also carries parse errors.
		lines := strings.SplitAfter(text, "\n")
		for j := 7; j < len(lines); j += 97 {
			switch j % 3 {
			case 0:
				lines[j] = "XX" + lines[j]
			case 1:
				lines[j] = strings.Replace(lines[j], "|", "", 1)
			default:
				lines[j] = strings.TrimSuffix(lines[j], "\n") + "|\r\n"
			}
		}
		text = strings.Join(lines, "")
		gotRecs, gotErrs := ReadRecords(strings.NewReader(text))
		if len(gotRecs) == 0 || len(gotErrs) == 0 {
			t.Fatalf("file %d: %d records and %d errors; the input exercises nothing", i, len(gotRecs), len(gotErrs))
		}
		if got, want := parseDigest(gotRecs, gotErrs), damagedNightDigests[i]; got != want {
			t.Errorf("file %d: parse digest %s, the Scanner parser's %s", i, got, want)
		}
	}
}

// FuzzReadRecords: on any bytes whose lines stay under the length limit the
// arena splitter parses as ParseLine does line by line.  The seed corpus
// (testdata/fuzz/FuzzReadRecords) holds two skygen files, one with injected
// errors.
func FuzzReadRecords(f *testing.F) {
	for _, text := range parserCases {
		f.Add([]byte(text))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		wantRecs, wantErrs, ok := parseLines(string(data))
		if !ok {
			return
		}
		gotRecs, gotErrs := ReadRecords(bytes.NewReader(data))
		if err := sameParse(gotRecs, gotErrs, wantRecs, wantErrs); err != nil {
			t.Fatal(err)
		}
	})
}

// TestParseTextMatchesReadRecords: the fleet's entry point gives a block of
// text the records, line numbers and errors ReadRecords gives the same bytes
// read from a file, and counts every line of it — blank, comment, malformed,
// CRLF-ended or cut off before its newline.
func TestParseTextMatchesReadRecords(t *testing.T) {
	var all strings.Builder
	for _, text := range parserCases {
		all.WriteString(text)
		if text != "" && !strings.HasSuffix(text, "\n") {
			all.WriteString("\n")
		}
	}
	all.WriteString("PRM|9|9|cut|off") // the block's last line has no newline
	cases := map[string]string{"every case in one block": all.String()}
	for name, text := range parserCases {
		cases[name] = text
	}
	for name, text := range cases {
		gotRecs, lines, gotErrs := ParseText(text)
		wantRecs, wantErrs, _ := parseLines(text)
		if err := sameParse(gotRecs, gotErrs, wantRecs, wantErrs); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		wantLines := 0
		for sc := bufio.NewScanner(strings.NewReader(text)); sc.Scan(); {
			wantLines++
		}
		if lines != wantLines {
			t.Errorf("%s: counted %d lines, a Scanner reads %d", name, lines, wantLines)
		}
	}
	recs, lines, errs := ParseText(all.String())
	if len(recs) == 0 || len(errs) == 0 || lines <= len(recs)+len(errs) {
		t.Fatalf("%d records, %d errors, %d lines: the block exercises nothing", len(recs), len(errs), lines)
	}
}

// TestReadRecordsLongLine: a line at or over the length limit is one
// ParseError with its line number, and the lines after it still parse (the
// Scanner version stopped there and dropped the rest of the file).
func TestReadRecordsLongLine(t *testing.T) {
	before := strings.Repeat("PRM|1|2|name|value\n", 3)
	long := "PRM|1|2|name|" + strings.Repeat("x", 5<<20) + "\n"
	after := strings.Repeat("FNG|1|2|3|4|5|6\n", 4)
	recs, errs := ReadRecords(strings.NewReader(before + long + after))
	if len(recs) != 7 {
		t.Fatalf("%d records, want the 3 before and the 4 after the long line", len(recs))
	}
	for i, rec := range recs {
		wantTag, wantLine := TagPRM, i+1
		if i >= 3 {
			wantTag, wantLine = TagFNG, i+2
		}
		if rec.Tag != wantTag || rec.Line != wantLine {
			t.Errorf("record %d: tag %s line %d, want %s line %d", i, rec.Tag, rec.Line, wantTag, wantLine)
		}
	}
	if len(errs) != 1 {
		t.Fatalf("%d errors, want exactly one: %v", len(errs), errs)
	}
	if pe, ok := errs[0].(*ParseError); !ok || pe.Line != 4 {
		t.Fatalf("error %v, want a *ParseError at line 4", errs[0])
	}
	// One byte under the limit is an ordinary line.
	ok := "PRM|1|2|name|" + strings.Repeat("x", maxLineBytes-1-len("PRM|1|2|name|"))
	if recs, errs := ReadRecords(strings.NewReader(ok + "\n" + after)); len(recs) != 5 || len(errs) != 0 {
		t.Fatalf("line of %d bytes: %d records, errors %v", len(ok), len(recs), errs)
	}
}

// TestReadRecordsAllocs pins what the arena splitter is for: a file costs a
// fixed number of allocations whatever its length, and few bytes beyond its
// text, its records and their field headers.  The Scanner version made 2.0
// allocations a line (50,406 on the larger file here) and allocated 8.70
// bytes per text byte.
func TestReadRecordsAllocs(t *testing.T) {
	const (
		mallocCeiling = 16
		bytesCeiling  = 5.0 // bytes allocated per byte of text
	)
	measure := func(text string) (mallocs uint64, bytesPerByte float64, lines int) {
		r := strings.NewReader(text)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		recs, errs := ReadRecords(r)
		runtime.ReadMemStats(&after)
		if len(errs) != 0 {
			t.Fatalf("parse errors: %v", errs)
		}
		return after.Mallocs - before.Mallocs, float64(after.TotalAlloc-before.TotalAlloc) / float64(len(text)), len(recs)
	}
	for _, mb := range []float64{25, 250} {
		text := nightText(t, NightSpec{TotalMB: mb, Seed: 7, ErrorRate: 0.02, RunID: 1, Files: 1})[0]
		mallocs, ratio, lines := measure(text)
		t.Logf("%d lines, %d text bytes: %d mallocs, %.2f bytes allocated per text byte", lines, len(text), mallocs, ratio)
		if mallocs > mallocCeiling {
			t.Errorf("%d lines cost %d allocations, ceiling %d", lines, mallocs, mallocCeiling)
		}
		if ratio > bytesCeiling {
			t.Errorf("%.2f bytes allocated per text byte, ceiling %.1f", ratio, bytesCeiling)
		}
	}
}
