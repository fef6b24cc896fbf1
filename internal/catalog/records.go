package catalog

import (
	"fmt"
	"io"
	"os"
	"strings"
)

// Tag identifies the destination of one catalog-file row.  Every row in a
// Palomar-Quest catalog file carries "a tag or a keyword that can be used to
// determine the destination table in the database" (§4.1); these are the tags
// our synthetic catalog format uses.
type Tag string

// Catalog row tags.
const (
	TagOBS Tag = "OBS" // observation header
	TagPRM Tag = "PRM" // observation parameter
	TagREG Tag = "REG" // sky region scanned
	TagCCD Tag = "CCD" // CCD column metadata
	TagFRM Tag = "FRM" // CCD frame
	TagAPR Tag = "APR" // frame aperture (4 per frame)
	TagZPT Tag = "ZPT" // frame zero point
	TagAST Tag = "AST" // frame astrometric solution
	TagPHO Tag = "PHO" // frame photometric calibration
	TagOBJ Tag = "OBJ" // detected object
	TagFNG Tag = "FNG" // object finger (4 per object)
	TagOAP Tag = "OAP" // object aperture magnitude
	TagSHP Tag = "SHP" // object shape parameters
	TagFLG Tag = "FLG" // object quality flag
)

// TagLayout describes the raw fields carried by rows with a given tag and the
// database table they populate.
type TagLayout struct {
	Tag    Tag
	Table  string
	Fields []string
}

// Layouts lists every tag in the order the extraction pipeline emits them.
var Layouts = []TagLayout{
	{TagOBS, TObservations, []string{"obs_id", "run_id", "telescope_id", "mjd_start", "ra_center", "dec_center", "airmass", "filter_set", "exposure_s"}},
	{TagPRM, TObservationParams, []string{"param_id", "obs_id", "name", "value"}},
	{TagREG, TSkyRegions, []string{"region_id", "obs_id", "ra_min", "ra_max", "dec_min", "dec_max"}},
	{TagCCD, TCCDColumns, []string{"ccd_col_id", "obs_id", "ccd_id", "ccd_number", "filter", "ra_center", "dec_center", "gain", "read_noise"}},
	{TagFRM, TCCDFrames, []string{"frame_id", "ccd_col_id", "frame_number", "mjd_start", "exposure_s", "seeing_arcsec", "sky_level", "zero_point"}},
	{TagAPR, TFrameApertures, []string{"aperture_id", "frame_id", "aperture_number", "radius_arcsec", "flux_correction"}},
	{TagZPT, TFrameZeroPoints, []string{"zp_id", "frame_id", "mag_zero", "zp_error", "color_term"}},
	{TagAST, TFrameAstrometry, []string{"ast_id", "frame_id", "crval1", "crval2", "cd1_1", "cd1_2", "cd2_1", "cd2_2", "rms_arcsec"}},
	{TagPHO, TFramePhotometry, []string{"pho_id", "frame_id", "mag_limit", "extinction", "sky_brightness"}},
	{TagOBJ, TObjects, []string{"object_id", "frame_id", "ra", "dec", "mag", "mag_err", "fwhm", "ellipticity", "flags"}},
	{TagFNG, TObjectFingers, []string{"finger_id", "object_id", "finger_number", "flux", "flux_err", "radius_arcsec"}},
	{TagOAP, TObjectApertures, []string{"oap_id", "object_id", "aperture_number", "mag", "mag_err"}},
	{TagSHP, TObjectShapes, []string{"shape_id", "object_id", "semi_major", "semi_minor", "theta_deg", "class_star"}},
	{TagFLG, TObjectFlags, []string{"oflag_id", "object_id", "flag_id", "value"}},
}

// layoutByTag is the lookup map built from Layouts.
var layoutByTag = func() map[Tag]TagLayout {
	m := make(map[Tag]TagLayout, len(Layouts))
	for _, l := range Layouts {
		m[l.Tag] = l
	}
	return m
}()

// LayoutFor returns the layout for tag; ok is false for unknown tags.
func LayoutFor(tag Tag) (TagLayout, bool) {
	l, ok := layoutByTag[tag]
	return l, ok
}

// TableForTag returns the destination table of rows with the given tag.
func TableForTag(tag Tag) (string, bool) {
	l, ok := layoutByTag[tag]
	return l.Table, ok
}

// FieldSep separates fields within a catalog line.
const FieldSep = "|"

// Record is one parsed catalog-file row.
type Record struct {
	Tag    Tag
	Fields []string
	// Line is the 1-based line number in the source file (0 when the record
	// was generated in memory and never serialized).
	Line int
}

// Format renders the record as a catalog file line (without newline).
func (r Record) Format() string {
	return string(r.Tag) + FieldSep + strings.Join(r.Fields, FieldSep)
}

// AppendLine appends the record to dst as Format renders it plus the newline:
// Bytes() bytes, with no string built on the way.
func (r Record) AppendLine(dst []byte) []byte {
	dst = append(append(dst, r.Tag...), FieldSep...)
	for i, f := range r.Fields {
		if i > 0 {
			dst = append(dst, FieldSep...)
		}
		dst = append(dst, f...)
	}
	return append(dst, '\n')
}

// Bytes returns the serialized length of the record including the newline
// (len(r.Format())+1, without rendering the line), which is what the
// generator uses to account catalog-file volume.
func (r Record) Bytes() int {
	n := len(r.Tag) + len(FieldSep) + 1
	for i, f := range r.Fields {
		if i > 0 {
			n += len(FieldSep)
		}
		n += len(f)
	}
	return n
}

// ParseLine parses one catalog file line into a Record.  It validates that
// the tag is known and the field count matches the tag's layout; it does not
// validate field contents (that is the transformer's and the database's job).
// The record's fields alias line.
func ParseLine(line string, lineNo int) (Record, error) {
	_, rec, err := splitLine(make([]string, 0, strings.Count(line, FieldSep)), line, lineNo)
	return rec, err
}

// maxLineBytes is the length from which ReadRecords refuses a line (counted
// without its newline) instead of parsing it.
const maxLineBytes = 4 << 20

// ReadRecords parses catalog ASCII from r, returning the parsed records and
// any per-line parse errors (malformed lines, and lines of 4 MiB or more, are
// skipped and reported, not fatal; an error reading r comes last, after
// whatever was read is parsed).
//
// The file is read once into one string, and the records are cut from two
// allocations sized by counting its newlines and separators: every field of
// every record aliases that string and every Record.Fields is a window of one
// shared arena, so holding one record holds the file's text and the arena.
// Appending to a record's Fields copies them (the windows are clipped to
// their length); nothing may write through them.
func ReadRecords(r io.Reader) ([]Record, []error) {
	text, readErr := readText(r)
	recs, _, errs := ParseText(text)
	if readErr != nil {
		errs = append(errs, readErr)
	}
	return recs, errs
}

// ParseText is ReadRecords over text already in memory (a fleet load task
// carries its share of a file that way): the records alias text and one arena
// per call, as ReadRecords' do.  lines is how many lines text holds, blank and
// comment lines and a last line without its newline included, so that
// lines - len(recs) of them gave no record.
func ParseText(text string) (recs []Record, lines int, errs []error) {
	s := newSplitter(strings.Count(text, "\n")+1, strings.Count(text, FieldSep))
	for text != "" {
		line := text
		if i := strings.IndexByte(text, '\n'); i >= 0 {
			line, text = text[:i], text[i+1:]
		} else {
			text = ""
		}
		lines++
		s.add(line, lines)
	}
	return s.recs, lines, s.errs
}

// splitter collects the records of one file or one load task.
type splitter struct {
	recs  []Record
	arena []string // every Record.Fields is a window of it
	errs  []error
}

// newSplitter allocates for at most maxLines records of maxFields fields in
// all, so neither slice grows while lines are added.
func newSplitter(maxLines, maxFields int) *splitter {
	return &splitter{recs: make([]Record, 0, maxLines), arena: make([]string, 0, maxFields)}
}

func (s *splitter) add(line string, lineNo int) {
	if len(line) >= maxLineBytes {
		s.errs = append(s.errs, &ParseError{Line: lineNo,
			Reason: fmt.Sprintf("line of %d bytes exceeds the %d-byte limit", len(line), maxLineBytes-1)})
		return
	}
	arena, rec, err := splitLine(s.arena, line, lineNo)
	s.arena = arena
	if err == nil {
		s.recs = append(s.recs, rec)
	} else if err != ErrSkipLine {
		s.errs = append(s.errs, err)
	}
}

// readText reads r to its end into one string, sized up front when r can say
// how much it holds.
func readText(r io.Reader) (string, error) {
	var sb strings.Builder
	switch src := r.(type) {
	case interface{ Len() int }:
		sb.Grow(src.Len())
	case *os.File:
		if info, err := src.Stat(); err == nil && info.Mode().IsRegular() {
			sb.Grow(int(info.Size()))
		}
	}
	_, err := io.Copy(&sb, r)
	return sb.String(), err
}

// splitLine is the one line parser: it cuts line at every FieldSep, appends
// the fields to arena and returns the grown arena with a record whose Fields
// is the capacity-clipped window just appended.  A line that yields no record
// leaves arena as it was.
func splitLine(arena []string, line string, lineNo int) ([]string, Record, error) {
	line = strings.TrimRight(line, "\r\n")
	if line == "" || line[0] == '#' {
		return arena, Record{}, ErrSkipLine
	}
	head, rest, more := strings.Cut(line, FieldSep)
	layout, ok := layoutByTag[Tag(strings.TrimSpace(head))]
	if !ok {
		return arena, Record{}, &ParseError{Line: lineNo, Reason: fmt.Sprintf("unknown tag %q", head)}
	}
	start := len(arena)
	for more {
		var field string
		field, rest, more = strings.Cut(rest, FieldSep)
		arena = append(arena, field)
	}
	if got := len(arena) - start; got != len(layout.Fields) {
		return arena[:start], Record{}, &ParseError{Line: lineNo, Tag: layout.Tag,
			Reason: fmt.Sprintf("expected %d fields, got %d", len(layout.Fields), got)}
	}
	return arena, Record{Tag: layout.Tag, Fields: arena[start:len(arena):len(arena)], Line: lineNo}, nil
}

// ErrSkipLine is returned by ParseLine for blank and comment lines.
var ErrSkipLine = fmt.Errorf("catalog: blank or comment line")

// ParseError reports a malformed catalog line.
type ParseError struct {
	Line   int
	Tag    Tag
	Reason string
}

// Error implements the error interface.
func (e *ParseError) Error() string {
	if e.Tag != "" {
		return fmt.Sprintf("catalog: line %d (%s): %s", e.Line, e.Tag, e.Reason)
	}
	return fmt.Sprintf("catalog: line %d: %s", e.Line, e.Reason)
}
