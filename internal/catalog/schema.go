// Package catalog defines the Palomar-Quest repository data model, the
// interleaved catalog file format produced by the image-extraction pipeline,
// a parser and per-row transformer, and a deterministic synthetic generator.
//
// The real Palomar-Quest catalog files are derived from raw CCD images and
// archived in a mass storage system; we do not have them, so the generator
// produces files with the same *structure*: tagged ASCII rows for many
// destination tables interleaved in one file (a frame row followed by its
// four aperture rows, an object row followed by its four finger rows, and so
// on), a hierarchy joined by primary/foreign keys, occasional missing or
// invalid values, and 28 files of varying size per observation.
package catalog

import (
	"skyloader/internal/relstore"
)

func fptr(v float64) *float64 { return &v }

// Table names of the repository data model (23 tables, matching the count of
// Figure 1 in the paper).  The central hierarchy the catalog files populate is
//
//	observations -> ccd_columns -> ccd_frames -> objects -> (fingers, ...)
//
// plus frame-level detail tables and a set of static reference tables.
const (
	TObservations      = "observations"
	TObservationParams = "observation_params"
	TSkyRegions        = "sky_regions"
	TCCDColumns        = "ccd_columns"
	TCCDFrames         = "ccd_frames"
	TFrameApertures    = "ccd_frame_apertures"
	TFrameZeroPoints   = "frame_zero_points"
	TFrameAstrometry   = "frame_astrometry"
	TFramePhotometry   = "frame_photometry"
	TObjects           = "objects"
	TObjectFingers     = "object_fingers"
	TObjectApertures   = "object_apertures"
	TObjectShapes      = "object_shapes"
	TObjectFlags       = "object_flags"

	TTelescopes       = "telescopes"
	TInstruments      = "instruments"
	TCCDs             = "ccds"
	TFilters          = "filters"
	TObservingRuns    = "observing_runs"
	TPipelineVersions = "pipeline_versions"
	TQualityFlags     = "quality_flags"
	TLoadRuns         = "load_runs"
	TLoadErrors       = "load_errors"
)

// NewSchema builds the full 23-table repository schema with its primary keys,
// foreign keys, uniqueness and check constraints.
func NewSchema() *relstore.Schema {
	intCol := func(name string) relstore.Column { return relstore.Column{Name: name, Type: relstore.TypeInt} }
	nintCol := func(name string) relstore.Column {
		return relstore.Column{Name: name, Type: relstore.TypeInt, Nullable: true}
	}
	fltCol := func(name string, prec int) relstore.Column {
		return relstore.Column{Name: name, Type: relstore.TypeFloat, Precision: prec}
	}
	nfltCol := func(name string, prec int) relstore.Column {
		return relstore.Column{Name: name, Type: relstore.TypeFloat, Nullable: true, Precision: prec}
	}
	strCol := func(name string) relstore.Column { return relstore.Column{Name: name, Type: relstore.TypeString} }
	nstrCol := func(name string) relstore.Column {
		return relstore.Column{Name: name, Type: relstore.TypeString, Nullable: true}
	}

	tables := []*relstore.TableSchema{
		// ---------- static reference tables ----------
		{
			Name:       TTelescopes,
			Columns:    []relstore.Column{intCol("telescope_id"), strCol("name"), strCol("site"), fltCol("aperture_m", 2)},
			PrimaryKey: []string{"telescope_id"},
		},
		{
			Name:       TInstruments,
			Columns:    []relstore.Column{intCol("instrument_id"), intCol("telescope_id"), strCol("name"), intCol("num_ccds")},
			PrimaryKey: []string{"instrument_id"},
			ForeignKeys: []relstore.ForeignKey{
				{Name: "fk_instr_tel", Columns: []string{"telescope_id"}, RefTable: TTelescopes, RefColumns: []string{"telescope_id"}},
			},
		},
		{
			Name: TCCDs,
			Columns: []relstore.Column{
				intCol("ccd_id"), intCol("instrument_id"), intCol("ccd_number"),
				intCol("cols"), intCol("rows"), fltCol("pixel_scale", 4),
			},
			PrimaryKey: []string{"ccd_id"},
			ForeignKeys: []relstore.ForeignKey{
				{Name: "fk_ccd_instr", Columns: []string{"instrument_id"}, RefTable: TInstruments, RefColumns: []string{"instrument_id"}},
			},
			Uniques: []relstore.UniqueConstraint{{Name: "uq_ccd_number", Columns: []string{"instrument_id", "ccd_number"}}},
		},
		{
			Name:       TFilters,
			Columns:    []relstore.Column{intCol("filter_id"), strCol("name"), fltCol("wavelength_nm", 1), fltCol("bandwidth_nm", 1)},
			PrimaryKey: []string{"filter_id"},
			Uniques:    []relstore.UniqueConstraint{{Name: "uq_filter_name", Columns: []string{"name"}}},
		},
		{
			Name: TObservingRuns,
			Columns: []relstore.Column{
				intCol("run_id"), intCol("telescope_id"), strCol("night"), nstrCol("observer"),
			},
			PrimaryKey: []string{"run_id"},
			ForeignKeys: []relstore.ForeignKey{
				{Name: "fk_run_tel", Columns: []string{"telescope_id"}, RefTable: TTelescopes, RefColumns: []string{"telescope_id"}},
			},
		},
		{
			Name:       TPipelineVersions,
			Columns:    []relstore.Column{intCol("pipeline_id"), strCol("name"), strCol("version"), nstrCol("notes")},
			PrimaryKey: []string{"pipeline_id"},
		},
		{
			Name:       TQualityFlags,
			Columns:    []relstore.Column{intCol("flag_id"), strCol("name"), nstrCol("description")},
			PrimaryKey: []string{"flag_id"},
			Uniques:    []relstore.UniqueConstraint{{Name: "uq_flag_name", Columns: []string{"name"}}},
		},
		{
			Name: TLoadRuns,
			Columns: []relstore.Column{
				intCol("load_run_id"), strCol("source_file"), intCol("loader_node"),
				nintCol("rows_loaded"), nintCol("rows_skipped"),
			},
			PrimaryKey: []string{"load_run_id"},
		},
		{
			Name: TLoadErrors,
			Columns: []relstore.Column{
				intCol("load_error_id"), intCol("load_run_id"), intCol("line_number"),
				strCol("target_table"), strCol("reason"),
			},
			PrimaryKey: []string{"load_error_id"},
			ForeignKeys: []relstore.ForeignKey{
				{Name: "fk_lerr_run", Columns: []string{"load_run_id"}, RefTable: TLoadRuns, RefColumns: []string{"load_run_id"}},
			},
		},

		// ---------- observation hierarchy ----------
		{
			Name: TObservations,
			Columns: []relstore.Column{
				intCol("obs_id"), nintCol("run_id"), intCol("telescope_id"),
				fltCol("mjd_start", 6), fltCol("ra_center", 6), fltCol("dec_center", 6),
				fltCol("airmass", 3), strCol("filter_set"), nfltCol("exposure_s", 2),
			},
			PrimaryKey: []string{"obs_id"},
			ForeignKeys: []relstore.ForeignKey{
				{Name: "fk_obs_run", Columns: []string{"run_id"}, RefTable: TObservingRuns, RefColumns: []string{"run_id"}},
				{Name: "fk_obs_tel", Columns: []string{"telescope_id"}, RefTable: TTelescopes, RefColumns: []string{"telescope_id"}},
			},
			Checks: []relstore.CheckConstraint{
				{Name: "ck_obs_ra", Column: "ra_center", Min: fptr(0), Max: fptr(360)},
				{Name: "ck_obs_dec", Column: "dec_center", Min: fptr(-90), Max: fptr(90)},
				{Name: "ck_obs_airmass", Column: "airmass", Min: fptr(0.9), Max: fptr(40)},
			},
		},
		{
			Name: TObservationParams,
			Columns: []relstore.Column{
				intCol("param_id"), intCol("obs_id"), strCol("name"), strCol("value"),
			},
			PrimaryKey: []string{"param_id"},
			ForeignKeys: []relstore.ForeignKey{
				{Name: "fk_prm_obs", Columns: []string{"obs_id"}, RefTable: TObservations, RefColumns: []string{"obs_id"}},
			},
			Uniques: []relstore.UniqueConstraint{{Name: "uq_prm", Columns: []string{"obs_id", "name"}}},
		},
		{
			Name: TSkyRegions,
			Columns: []relstore.Column{
				intCol("region_id"), intCol("obs_id"),
				fltCol("ra_min", 6), fltCol("ra_max", 6), fltCol("dec_min", 6), fltCol("dec_max", 6),
			},
			PrimaryKey: []string{"region_id"},
			ForeignKeys: []relstore.ForeignKey{
				{Name: "fk_reg_obs", Columns: []string{"obs_id"}, RefTable: TObservations, RefColumns: []string{"obs_id"}},
			},
			Checks: []relstore.CheckConstraint{
				{Name: "ck_reg_ra_min", Column: "ra_min", Min: fptr(0), Max: fptr(360)},
				{Name: "ck_reg_dec_min", Column: "dec_min", Min: fptr(-90), Max: fptr(90)},
			},
		},
		{
			Name: TCCDColumns,
			Columns: []relstore.Column{
				intCol("ccd_col_id"), intCol("obs_id"), intCol("ccd_id"), intCol("ccd_number"),
				strCol("filter"), fltCol("ra_center", 6), fltCol("dec_center", 6),
				nfltCol("gain", 3), nfltCol("read_noise", 3),
			},
			PrimaryKey: []string{"ccd_col_id"},
			ForeignKeys: []relstore.ForeignKey{
				{Name: "fk_ccdcol_obs", Columns: []string{"obs_id"}, RefTable: TObservations, RefColumns: []string{"obs_id"}},
				{Name: "fk_ccdcol_ccd", Columns: []string{"ccd_id"}, RefTable: TCCDs, RefColumns: []string{"ccd_id"}},
			},
			Checks: []relstore.CheckConstraint{
				{Name: "ck_ccdcol_ra", Column: "ra_center", Min: fptr(0), Max: fptr(360)},
				{Name: "ck_ccdcol_dec", Column: "dec_center", Min: fptr(-90), Max: fptr(90)},
			},
		},
		{
			Name: TCCDFrames,
			Columns: []relstore.Column{
				intCol("frame_id"), intCol("ccd_col_id"), intCol("frame_number"),
				fltCol("mjd_start", 6), fltCol("exposure_s", 2), nfltCol("seeing_arcsec", 2),
				nfltCol("sky_level", 2), nfltCol("zero_point", 3),
			},
			PrimaryKey: []string{"frame_id"},
			ForeignKeys: []relstore.ForeignKey{
				{Name: "fk_frm_ccdcol", Columns: []string{"ccd_col_id"}, RefTable: TCCDColumns, RefColumns: []string{"ccd_col_id"}},
			},
			Checks: []relstore.CheckConstraint{
				{Name: "ck_frm_exposure", Column: "exposure_s", Min: fptr(0), Max: fptr(7200)},
				{Name: "ck_frm_seeing", Column: "seeing_arcsec", Min: fptr(0), Max: fptr(30)},
			},
		},
		{
			Name: TFrameApertures,
			Columns: []relstore.Column{
				intCol("aperture_id"), intCol("frame_id"), intCol("aperture_number"),
				fltCol("radius_arcsec", 3), nfltCol("flux_correction", 4),
			},
			PrimaryKey: []string{"aperture_id"},
			ForeignKeys: []relstore.ForeignKey{
				{Name: "fk_apr_frm", Columns: []string{"frame_id"}, RefTable: TCCDFrames, RefColumns: []string{"frame_id"}},
			},
			Uniques: []relstore.UniqueConstraint{{Name: "uq_apr", Columns: []string{"frame_id", "aperture_number"}}},
			Checks: []relstore.CheckConstraint{
				{Name: "ck_apr_radius", Column: "radius_arcsec", Min: fptr(0), Max: fptr(120)},
			},
		},
		{
			Name: TFrameZeroPoints,
			Columns: []relstore.Column{
				intCol("zp_id"), intCol("frame_id"), fltCol("mag_zero", 4),
				nfltCol("zp_error", 4), nfltCol("color_term", 4),
			},
			PrimaryKey: []string{"zp_id"},
			ForeignKeys: []relstore.ForeignKey{
				{Name: "fk_zpt_frm", Columns: []string{"frame_id"}, RefTable: TCCDFrames, RefColumns: []string{"frame_id"}},
			},
			Checks: []relstore.CheckConstraint{
				{Name: "ck_zpt_mag", Column: "mag_zero", Min: fptr(10), Max: fptr(40)},
			},
		},
		{
			Name: TFrameAstrometry,
			Columns: []relstore.Column{
				intCol("ast_id"), intCol("frame_id"),
				fltCol("crval1", 6), fltCol("crval2", 6),
				fltCol("cd1_1", 8), fltCol("cd1_2", 8), fltCol("cd2_1", 8), fltCol("cd2_2", 8),
				nfltCol("rms_arcsec", 4),
			},
			PrimaryKey: []string{"ast_id"},
			ForeignKeys: []relstore.ForeignKey{
				{Name: "fk_ast_frm", Columns: []string{"frame_id"}, RefTable: TCCDFrames, RefColumns: []string{"frame_id"}},
			},
		},
		{
			Name: TFramePhotometry,
			Columns: []relstore.Column{
				intCol("pho_id"), intCol("frame_id"), fltCol("mag_limit", 3),
				nfltCol("extinction", 4), nfltCol("sky_brightness", 3),
			},
			PrimaryKey: []string{"pho_id"},
			ForeignKeys: []relstore.ForeignKey{
				{Name: "fk_pho_frm", Columns: []string{"frame_id"}, RefTable: TCCDFrames, RefColumns: []string{"frame_id"}},
			},
		},
		{
			Name: TObjects,
			Columns: []relstore.Column{
				intCol("object_id"), intCol("frame_id"),
				fltCol("ra", 6), fltCol("dec", 6), intCol("htmid"),
				fltCol("cx", 8), fltCol("cy", 8), fltCol("cz", 8),
				fltCol("mag", 3), nfltCol("mag_err", 3),
				nfltCol("fwhm", 2), nfltCol("ellipticity", 3), nintCol("flags"),
			},
			PrimaryKey: []string{"object_id"},
			ForeignKeys: []relstore.ForeignKey{
				{Name: "fk_obj_frm", Columns: []string{"frame_id"}, RefTable: TCCDFrames, RefColumns: []string{"frame_id"}},
			},
			Checks: []relstore.CheckConstraint{
				{Name: "ck_obj_ra", Column: "ra", Min: fptr(0), Max: fptr(360)},
				{Name: "ck_obj_dec", Column: "dec", Min: fptr(-90), Max: fptr(90)},
				{Name: "ck_obj_mag", Column: "mag", Min: fptr(-5), Max: fptr(35)},
			},
		},
		{
			Name: TObjectFingers,
			Columns: []relstore.Column{
				intCol("finger_id"), intCol("object_id"), intCol("finger_number"),
				fltCol("flux", 4), nfltCol("flux_err", 4), nfltCol("radius_arcsec", 3),
			},
			PrimaryKey: []string{"finger_id"},
			ForeignKeys: []relstore.ForeignKey{
				{Name: "fk_fng_obj", Columns: []string{"object_id"}, RefTable: TObjects, RefColumns: []string{"object_id"}},
			},
			Uniques: []relstore.UniqueConstraint{{Name: "uq_fng", Columns: []string{"object_id", "finger_number"}}},
		},
		{
			Name: TObjectApertures,
			Columns: []relstore.Column{
				intCol("oap_id"), intCol("object_id"), intCol("aperture_number"),
				fltCol("mag", 3), nfltCol("mag_err", 3),
			},
			PrimaryKey: []string{"oap_id"},
			ForeignKeys: []relstore.ForeignKey{
				{Name: "fk_oap_obj", Columns: []string{"object_id"}, RefTable: TObjects, RefColumns: []string{"object_id"}},
			},
			Checks: []relstore.CheckConstraint{
				{Name: "ck_oap_mag", Column: "mag", Min: fptr(-5), Max: fptr(40)},
			},
		},
		{
			Name: TObjectShapes,
			Columns: []relstore.Column{
				intCol("shape_id"), intCol("object_id"),
				fltCol("semi_major", 3), fltCol("semi_minor", 3), fltCol("theta_deg", 2),
				nfltCol("class_star", 3),
			},
			PrimaryKey: []string{"shape_id"},
			ForeignKeys: []relstore.ForeignKey{
				{Name: "fk_shp_obj", Columns: []string{"object_id"}, RefTable: TObjects, RefColumns: []string{"object_id"}},
			},
			Checks: []relstore.CheckConstraint{
				{Name: "ck_shp_theta", Column: "theta_deg", Min: fptr(-180), Max: fptr(180)},
			},
		},
		{
			Name: TObjectFlags,
			Columns: []relstore.Column{
				intCol("oflag_id"), intCol("object_id"), intCol("flag_id"), nstrCol("value"),
			},
			PrimaryKey: []string{"oflag_id"},
			ForeignKeys: []relstore.ForeignKey{
				{Name: "fk_oflg_obj", Columns: []string{"object_id"}, RefTable: TObjects, RefColumns: []string{"object_id"}},
				{Name: "fk_oflg_flag", Columns: []string{"flag_id"}, RefTable: TQualityFlags, RefColumns: []string{"flag_id"}},
			},
		},
	}
	return relstore.MustSchema(tables...)
}

// NumCCDsPerInstrument matches the 112-CCD QUEST camera.
const NumCCDsPerInstrument = 112

// FilterNames are the photometric bands seeded into the filters table.
var FilterNames = []string{"U", "B", "R", "I", "Z", "G", "RI", "IZ"}

// QualityFlagNames are the object quality flags seeded into quality_flags.
var QualityFlagNames = []string{"SATURATED", "BLENDED", "EDGE", "COSMIC_RAY", "VARIABLE", "MOVING"}

// SeedReference populates the static reference tables (telescopes,
// instruments, the 112 CCDs, filters, observing runs, pipeline versions and
// quality flags) through the given transaction.  Loading proper assumes these
// rows exist, exactly as the production repository's metadata tables with
// "less than 100 rows" (§4.1) were populated ahead of catalog loading.
func SeedReference(txn *relstore.Txn, numRuns int) error {
	if numRuns <= 0 {
		numRuns = 16
	}
	ins := func(table string, cols []string, vals []relstore.Value) error {
		_, err := txn.Insert(table, cols, vals)
		return err
	}
	if err := ins(TTelescopes,
		[]string{"telescope_id", "name", "site", "aperture_m"},
		[]relstore.Value{relstore.Int(1), relstore.Str("Oschin 48-inch Schmidt"), relstore.Str("Palomar Observatory"), relstore.Float(1.22)}); err != nil {
		return err
	}
	if err := ins(TInstruments,
		[]string{"instrument_id", "telescope_id", "name", "num_ccds"},
		[]relstore.Value{relstore.Int(1), relstore.Int(1), relstore.Str("QUEST-II Camera"), relstore.Int(NumCCDsPerInstrument)}); err != nil {
		return err
	}
	for i := 1; i <= NumCCDsPerInstrument; i++ {
		if err := ins(TCCDs,
			[]string{"ccd_id", "instrument_id", "ccd_number", "cols", "rows", "pixel_scale"},
			[]relstore.Value{relstore.Int(int64(i)), relstore.Int(1), relstore.Int(int64(i)), relstore.Int(600), relstore.Int(2400), relstore.Float(0.87)}); err != nil {
			return err
		}
	}
	for i, name := range FilterNames {
		if err := ins(TFilters,
			[]string{"filter_id", "name", "wavelength_nm", "bandwidth_nm"},
			[]relstore.Value{relstore.Int(int64(i + 1)), relstore.Str(name), relstore.Float(350.0 + 60*float64(i)), relstore.Float(80.0)}); err != nil {
			return err
		}
	}
	for r := 1; r <= numRuns; r++ {
		if err := ins(TObservingRuns,
			[]string{"run_id", "telescope_id", "night", "observer"},
			[]relstore.Value{relstore.Int(int64(r)), relstore.Int(1), relstore.Str(nightName(r)), relstore.Str("QUEST robotic scheduler")}); err != nil {
			return err
		}
	}
	for i, v := range []string{"1.0", "1.1", "2.0"} {
		if err := ins(TPipelineVersions,
			[]string{"pipeline_id", "name", "version", "notes"},
			[]relstore.Value{relstore.Int(int64(i + 1)), relstore.Str("yale-extract"), relstore.Str(v), relstore.Null}); err != nil {
			return err
		}
	}
	for i, name := range QualityFlagNames {
		if err := ins(TQualityFlags,
			[]string{"flag_id", "name", "description"},
			[]relstore.Value{relstore.Int(int64(i + 1)), relstore.Str(name), relstore.Str("object quality flag " + name)}); err != nil {
			return err
		}
	}
	return nil
}

func nightName(r int) string {
	return "2005-" + twoDigits(1+(r-1)/28) + "-" + twoDigits(1+(r-1)%28)
}

func twoDigits(n int) string {
	if n < 10 {
		return "0" + string(rune('0'+n))
	}
	return string(rune('0'+n/10)) + string(rune('0'+n%10))
}
