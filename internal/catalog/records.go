package catalog

import (
	"fmt"
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
func ParseLine(line string, lineNo int) (Record, error) {
	line = strings.TrimRight(line, "\r\n")
	if line == "" || strings.HasPrefix(line, "#") {
		return Record{}, ErrSkipLine
	}
	parts := strings.Split(line, FieldSep)
	tag := Tag(strings.TrimSpace(parts[0]))
	layout, ok := layoutByTag[tag]
	if !ok {
		return Record{}, &ParseError{Line: lineNo, Reason: fmt.Sprintf("unknown tag %q", parts[0])}
	}
	fields := parts[1:]
	if len(fields) != len(layout.Fields) {
		return Record{}, &ParseError{Line: lineNo, Tag: tag,
			Reason: fmt.Sprintf("expected %d fields, got %d", len(layout.Fields), len(fields))}
	}
	return Record{Tag: tag, Fields: fields, Line: lineNo}, nil
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
