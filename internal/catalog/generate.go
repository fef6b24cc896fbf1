package catalog

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"strconv"
)

// GenSpec controls synthetic catalog file generation.
//
// SizeMB is the *nominal* catalog volume the file stands for; the number of
// rows actually generated is SizeMB*RowsPerMB, which keeps the experiments
// laptop-sized while preserving the paper's ratios (EXPERIMENTS.md documents
// the scaling).  The default RowsPerMB of 100 makes the paper's 200 MB test
// file a 20,000-row file.
type GenSpec struct {
	// Name is the file name recorded in load provenance.
	Name string
	// SizeMB is the nominal catalog data volume represented by the file.
	SizeMB float64
	// RowsPerMB scales nominal megabytes to generated rows (default 100).
	RowsPerMB int
	// Seed makes generation deterministic.
	Seed int64
	// ErrorRate is the fraction of detail rows corrupted with one of the
	// error kinds the paper mentions (missing values, invalid values,
	// duplicate keys, orphaned references, malformed numbers).
	ErrorRate float64
	// IDBase offsets every generated primary key so that several files can
	// be loaded into one repository without key collisions.
	IDBase int64
	// RunID is the observing run the observation belongs to (a foreign key
	// into the seeded observing_runs table); 0 leaves it NULL.
	RunID int64
	// Unsorted, when true, emits child rows before their parents within
	// each frame group (violating the presorting of §4.5.4); used by the
	// ablation studies.
	Unsorted bool
}

func (s GenSpec) withDefaults() GenSpec {
	if s.RowsPerMB <= 0 {
		s.RowsPerMB = 100
	}
	if s.Name == "" {
		s.Name = fmt.Sprintf("catalog_%d_%04.0fMB.cat", s.Seed, s.SizeMB)
	}
	return s
}

const (
	// ccdsPerFile is the number of CCD columns in a file (the real pipeline
	// wrote 4 CCDs per catalog file).
	ccdsPerFile = 4
	// objectsPerFrame is the mean number of objects per frame.
	objectsPerFrame = 12
)

// ErrorKind labels the kinds of corruption the generator injects.
type ErrorKind string

// Injected error kinds.
const (
	ErrDuplicateKey ErrorKind = "duplicate_key"
	ErrOutOfRange   ErrorKind = "out_of_range"
	ErrMissingValue ErrorKind = "missing_value"
	ErrOrphanRef    ErrorKind = "orphan_reference"
	ErrMalformed    ErrorKind = "malformed_number"
)

// File is one generated catalog file.
type File struct {
	Name    string
	Spec    GenSpec
	Records []Record
	// RABase/DecBase anchor the file's sky footprint: frames fall in
	// [RABase, RABase+2), objects up to ~0.5 deg further, the observation's
	// region record spans RABase..RABase+2.3 and DecBase..DecBase+0.7.
	// Workload generators aim queries with them (serve.TraceSpec.Boxes).
	RABase, DecBase float64
	// NominalBytes is SizeMB expressed in bytes; it is what the loading
	// experiments use for throughput (MB/s) and staging-time accounting.
	NominalBytes int64
	// ActualBytes is the serialized size of the generated records.
	ActualBytes int64
	// DataRows is the number of generated records.
	DataRows int
	// RowsByTable counts generated records per destination table.
	RowsByTable map[string]int
	// ErrorsInjected counts injected corruptions by kind.
	ErrorsInjected map[ErrorKind]int
}

// TotalInjectedErrors sums the injected corruption counts.
func (f *File) TotalInjectedErrors() int {
	n := 0
	for _, c := range f.ErrorsInjected {
		n += c
	}
	return n
}

// Generate produces one synthetic catalog file according to spec.
func Generate(spec GenSpec) *File {
	spec = spec.withDefaults()
	g := &generator{
		spec: spec,
		rng:  rand.New(rand.NewSource(spec.Seed)),
		file: &File{
			Name:           spec.Name,
			Spec:           spec,
			NominalBytes:   int64(spec.SizeMB * 1e6),
			RowsByTable:    make(map[string]int),
			ErrorsInjected: make(map[ErrorKind]int),
		},
		tags: make([]tagState, len(Layouts)),
	}
	g.run()
	for i, ts := range g.tags {
		if n := len(ts.recs); n > 0 {
			g.file.RowsByTable[Layouts[i].Table] += n
		}
	}
	return g.file
}

type generator struct {
	spec GenSpec
	rng  *rand.Rand
	file *File
	// tags holds each tag's state, indexed by the tag's position in Layouts.
	tags []tagState
	// rb formats every record; objs and detail hold one frame's object and
	// detail records until the frame is emitted.
	rb           recordBuilder
	objs, detail []Record

	obsID   int64
	raBase  float64
	decBase float64
	mjd     float64
}

// tagState is what the generator keeps per tag: the last primary key handed
// out and the indices in File.Records of the records emitted so far, from
// which duplicate-key corruption draws a key to reuse.
type tagState struct {
	lastID int64
	recs   []int32
}

// tagSlot returns tag's position in Layouts (a switch, not a search: the
// generator asks twice a record).
func tagSlot(tag Tag) int {
	switch tag {
	case TagOBS:
		return 0
	case TagPRM:
		return 1
	case TagREG:
		return 2
	case TagCCD:
		return 3
	case TagFRM:
		return 4
	case TagAPR:
		return 5
	case TagZPT:
		return 6
	case TagAST:
		return 7
	case TagPHO:
		return 8
	case TagOBJ:
		return 9
	case TagFNG:
		return 10
	case TagOAP:
		return 11
	case TagSHP:
		return 12
	case TagFLG:
		return 13
	}
	panic("catalog: no layout for tag " + string(tag))
}

func (g *generator) id(tag Tag) int64 {
	ts := &g.tags[tagSlot(tag)]
	ts.lastID++
	return g.spec.IDBase + ts.lastID
}

func (g *generator) emit(rec Record) {
	ts := &g.tags[tagSlot(rec.Tag)]
	ts.recs = append(ts.recs, int32(len(g.file.Records)))
	g.file.Records = append(g.file.Records, rec)
	g.file.DataRows++
	g.file.ActualBytes += int64(rec.Bytes())
}

// recordBuilder builds one record at a time: each field is formatted into
// scratch, and done copies them into one string and carves the record's
// fields from it as a capacity-clipped window of a shared arena (as ParseText
// does), so a record costs one string and a share of an arena chunk.
type recordBuilder struct {
	tag     Tag
	scratch []byte
	ends    []int // end offset in scratch of every field so far
	arena   []string
}

// arenaChunk is how many fields one arena allocation holds.
const arenaChunk = 4096

func (b *recordBuilder) start(tag Tag) *recordBuilder {
	b.tag, b.scratch, b.ends = tag, b.scratch[:0], b.ends[:0]
	return b
}

func (b *recordBuilder) s(v string) *recordBuilder {
	b.scratch = append(b.scratch, v...)
	b.ends = append(b.ends, len(b.scratch))
	return b
}

func (b *recordBuilder) i(v int64) *recordBuilder {
	b.scratch = strconv.AppendInt(b.scratch, v, 10)
	b.ends = append(b.ends, len(b.scratch))
	return b
}

func (b *recordBuilder) f(v float64, prec int) *recordBuilder {
	b.scratch = appendFixed(b.scratch, v, prec)
	b.ends = append(b.ends, len(b.scratch))
	return b
}

func (b *recordBuilder) done() Record {
	text := string(b.scratch)
	if cap(b.arena)-len(b.arena) < len(b.ends) {
		b.arena = make([]string, 0, max(arenaChunk, len(b.ends)))
	}
	start, from := len(b.arena), 0
	for _, end := range b.ends {
		b.arena = append(b.arena, text[from:end])
		from = end
	}
	return Record{Tag: b.tag, Fields: b.arena[start:len(b.arena):len(b.arena)]}
}

// pow10 holds the powers of ten a float64 represents exactly.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// appendFixed appends v with prec digits after the point: the bytes
// strconv.AppendFloat(dst, v, 'f', prec, 64) appends, which for a fixed
// precision always takes strconv's exact big-decimal path.  appendFixedFast
// writes nearly every value the generator formats; the rest go to strconv.
func appendFixed(dst []byte, v float64, prec int) []byte {
	if out, ok := appendFixedFast(dst, v, prec); ok {
		return out
	}
	return strconv.AppendFloat(dst, v, 'f', prec, 64)
}

// appendFixedFast rounds s = |v|·10^prec to an integer m and writes m with
// the point inserted.  The product is computed with one rounding error of at
// most half an ulp of s, and when s < 2^52 both its fraction and a half are
// multiples of that ulp: a fraction other than exactly a half lies at least
// one ulp from it, so the exact product rounds to the same m and the bytes
// are strconv's.  A fraction of exactly a half (an exact tie, or a product
// within half an ulp of one), NaN, ±Inf, scaled magnitudes from 2^52 and
// precisions outside pow10 are left to strconv: it reports false and appends
// nothing.  The sign is written whenever v's sign bit is set, as strconv does:
// −0 and negatives that round to zero print as "-0.000".
func appendFixedFast(dst []byte, v float64, prec int) ([]byte, bool) {
	if prec < 0 || prec >= len(pow10) {
		return dst, false
	}
	s := math.Abs(v) * pow10[prec]
	if !(s < 0x1p52) { // NaN fails this too
		return dst, false
	}
	m := uint64(s)
	switch frac := s - float64(m); { // exact: m is a multiple of s's ulp
	case frac > 0.5:
		m++
	case frac == 0.5:
		return dst, false
	}
	if math.Signbit(v) {
		dst = append(dst, '-')
	}
	if prec == 0 {
		return strconv.AppendUint(dst, m, 10), true
	}
	unit := uint64(pow10[prec])
	dst = append(strconv.AppendUint(dst, m/unit, 10), '.')
	n := len(dst)
	dst = append(dst, "0000000000000000000000"[:prec]...)
	for i, r := n+prec-1, m%unit; r > 0; i, r = i-1, r/10 {
		dst[i] = byte('0' + r%10)
	}
	return dst, true
}

// maxFrameRows bounds the records one frame adds: the frame, its seven
// detail records and at most objectsPerFrame/2+objectsPerFrame-1 objects of
// eight records each.  A file stops at the first frame that meets its row
// target, so it holds fewer than target+maxFrameRows records.
const maxFrameRows = 8 + (objectsPerFrame/2+objectsPerFrame-1)*8

// run generates the record stream: one observation header, its parameters and
// region, CCD columns, and per CCD a sequence of frames each followed by its
// aperture/zero-point/astrometry/photometry rows and its objects, each object
// followed by finger/aperture/shape/flag rows — the interleaving described in
// §4.1 of the paper.
func (g *generator) run() {
	spec := g.spec
	targetRows := int(spec.SizeMB * float64(spec.RowsPerMB))
	if targetRows < 30 {
		targetRows = 30
	}
	g.file.Records = make([]Record, 0, targetRows+maxFrameRows)
	b := &g.rb

	g.raBase = g.rng.Float64() * 330
	g.decBase = -25 + g.rng.Float64()*50
	g.mjd = 53600 + g.rng.Float64()*400
	g.file.RABase, g.file.DecBase = g.raBase, g.decBase

	// Observation header block.
	g.obsID = g.id(TagOBS)
	runField := ""
	if spec.RunID > 0 {
		runField = strconv.FormatInt(spec.RunID, 10)
	}
	g.emit(b.start(TagOBS).i(g.obsID).s(runField).s("1").
		f(g.mjd, 6).f(g.raBase, 6).f(g.decBase, 6).
		f(1.0+g.rng.Float64()*1.6, 3).s(pick(g.rng, FilterNames)).f(60+g.rng.Float64()*120, 2).done())
	// Parameter names must be distinct within one observation because
	// observation_params carries a unique (obs_id, name) constraint.
	paramNames := []string{"DRIFT_RATE", "FOCUS", "CAMERA_TEMP", "HUMIDITY"}
	firstParam := g.rng.Intn(len(paramNames))
	for i := 0; i < 2; i++ {
		g.emit(b.start(TagPRM).i(g.id(TagPRM)).i(g.obsID).
			s(paramNames[(firstParam+i)%len(paramNames)]).
			f(g.rng.Float64()*100, 3).done())
	}
	g.emit(b.start(TagREG).i(g.id(TagREG)).i(g.obsID).
		f(g.raBase, 6).f(g.raBase+2.3, 6).f(g.decBase, 6).f(g.decBase+0.7, 6).done())

	// CCD columns for this file.
	var ccdIDs [ccdsPerFile]int64
	for i := range ccdIDs {
		ccdIDs[i] = g.id(TagCCD)
		ccdNum := int64(1 + g.rng.Intn(NumCCDsPerInstrument))
		g.emit(b.start(TagCCD).i(ccdIDs[i]).i(g.obsID).i(ccdNum).i(ccdNum).
			s(pick(g.rng, FilterNames)).
			f(g.raBase+float64(i)*0.25, 6).f(g.decBase+float64(i)*0.1, 6).
			f(2.0+g.rng.Float64(), 3).f(4.0+g.rng.Float64()*3, 3).done())
	}

	// Frames with their detail rows and objects, until the row budget is met.
	ccd := 0
	frameNumber := int64(0)
	for g.file.DataRows < targetRows {
		g.generateFrame(ccdIDs[ccd], frameNumber)
		ccd = (ccd + 1) % ccdsPerFile
		frameNumber++
	}
}

// generateFrame emits one frame and all of its children.
func (g *generator) generateFrame(ccdColID, frameNumber int64) {
	b := &g.rb
	frameID := g.id(TagFRM)
	frameRA := g.raBase + g.rng.Float64()*2.0
	frameDec := g.decBase + g.rng.Float64()*0.6

	frame := b.start(TagFRM).i(frameID).i(ccdColID).i(frameNumber).
		f(g.mjd+float64(frameNumber)*0.0017, 6).f(140+g.rng.Float64()*20, 2).
		f(0.9+g.rng.Float64()*2.2, 2).f(800+g.rng.Float64()*600, 2).f(22+g.rng.Float64()*4, 3).done()

	g.objs = g.objectRecords(g.objs[:0], frameID, frameRA, frameDec)

	detail := g.detail[:0]
	for a := int64(1); a <= 4; a++ {
		detail = append(detail, b.start(TagAPR).i(g.id(TagAPR)).i(frameID).i(a).
			f(1.5*float64(a), 3).f(1.0-0.02*float64(a), 4).done())
	}
	detail = append(detail, b.start(TagZPT).i(g.id(TagZPT)).i(frameID).
		f(21.5+g.rng.Float64()*2, 4).f(0.01+g.rng.Float64()*0.05, 4).f(-0.1+g.rng.Float64()*0.2, 4).done())
	detail = append(detail, b.start(TagAST).i(g.id(TagAST)).i(frameID).
		f(frameRA, 6).f(frameDec, 6).
		f(-0.00024, 8).f(0.0000012, 8).f(0.0000011, 8).f(0.00024, 8).
		f(0.05+g.rng.Float64()*0.2, 4).done())
	detail = append(detail, b.start(TagPHO).i(g.id(TagPHO)).i(frameID).
		f(20.5+g.rng.Float64()*1.5, 3).f(0.1+g.rng.Float64()*0.3, 4).f(19+g.rng.Float64()*2, 3).done())
	g.detail = detail

	if !g.spec.Unsorted {
		g.emit(frame)
		g.emitMaybeCorrupt(g.detail)
		g.emitMaybeCorrupt(g.objs)
		return
	}
	// Unsorted variant: children of the frame come first, the frame row last,
	// which defeats the parent-before-child presorting assumption.
	g.emitMaybeCorrupt(g.objs)
	g.emitMaybeCorrupt(g.detail)
	g.emit(frame)
}

// objectRecords appends the object rows (each followed by its children) for
// one frame to recs.
func (g *generator) objectRecords(recs []Record, frameID int64, frameRA, frameDec float64) []Record {
	b := &g.rb
	n := objectsPerFrame/2 + g.rng.Intn(objectsPerFrame)
	for i := 0; i < n; i++ {
		objID := g.id(TagOBJ)
		ra := frameRA + g.rng.Float64()*0.25
		if ra >= 360 {
			ra -= 360
		}
		dec := frameDec + g.rng.Float64()*0.25
		mag := 14 + g.rng.Float64()*8
		recs = append(recs, b.start(TagOBJ).i(objID).i(frameID).
			f(ra, 6).f(dec, 6).f(mag, 3).f(0.005+g.rng.Float64()*0.1, 3).
			f(1.2+g.rng.Float64()*2, 2).f(g.rng.Float64()*0.5, 3).i(int64(g.rng.Intn(16))).done())
		for fng := int64(1); fng <= 4; fng++ {
			recs = append(recs, b.start(TagFNG).i(g.id(TagFNG)).i(objID).i(fng).
				f(1000*g.rng.Float64(), 4).f(10*g.rng.Float64(), 4).f(1.5*float64(fng), 3).done())
		}
		recs = append(recs, b.start(TagOAP).i(g.id(TagOAP)).i(objID).i(int64(1+g.rng.Intn(4))).
			f(mag+g.rng.Float64()*0.2, 3).f(0.01+g.rng.Float64()*0.05, 3).done())
		recs = append(recs, b.start(TagSHP).i(g.id(TagSHP)).i(objID).
			f(1+g.rng.Float64()*3, 3).f(0.5+g.rng.Float64()*2, 3).f(-90+g.rng.Float64()*180, 2).
			f(g.rng.Float64(), 3).done())
		if g.rng.Float64() < 0.15 {
			recs = append(recs, b.start(TagFLG).i(g.id(TagFLG)).i(objID).
				i(int64(1+g.rng.Intn(len(QualityFlagNames)))).s("1").done())
		}
	}
	return recs
}

// emitMaybeCorrupt emits detail records, corrupting each with the configured
// error rate.
func (g *generator) emitMaybeCorrupt(recs []Record) {
	for _, rec := range recs {
		if g.spec.ErrorRate > 0 && g.rng.Float64() < g.spec.ErrorRate {
			g.corrupt(rec)
		}
		g.emit(rec)
	}
}

// corrupt applies one randomly chosen corruption to the record's fields, in
// place: the record has not been emitted, and its fields are its own.
func (g *generator) corrupt(rec Record) {
	out := rec.Fields
	kind := []ErrorKind{ErrDuplicateKey, ErrOutOfRange, ErrMissingValue, ErrOrphanRef, ErrMalformed}[g.rng.Intn(5)]
	switch kind {
	case ErrDuplicateKey:
		prev := g.tags[tagSlot(rec.Tag)].recs
		if len(prev) == 0 {
			return
		}
		out[0] = g.file.Records[prev[g.rng.Intn(len(prev))]].Fields[0]
	case ErrOutOfRange:
		// Blow up a numeric field beyond its check-constraint range.
		switch rec.Tag {
		case TagOBJ:
			out[4] = "99999.0" // mag far out of range
		case TagFRM:
			out[5] = "500.0" // absurd seeing
		case TagAPR:
			out[3] = "1e6"
		case TagZPT:
			out[2] = "-500"
		case TagSHP:
			out[4] = "7200"
		default:
			if len(out) > 3 {
				out[3] = "9.9e12"
			}
		}
	case ErrMissingValue:
		// Drop a value that feeds a NOT NULL column.
		switch rec.Tag {
		case TagOBJ:
			out[2] = "" // ra missing -> htmid cannot be computed
		case TagFRM:
			out[3] = "" // mjd_start missing
		case TagFNG:
			out[3] = "" // flux missing
		default:
			if len(out) > 2 {
				out[2] = ""
			}
		}
	case ErrOrphanRef:
		// Point the parent reference at a key that does not exist.
		if len(out) > 1 {
			out[1] = strconv.FormatInt(g.spec.IDBase+900000000+int64(g.rng.Intn(100000)), 10)
		}
	case ErrMalformed:
		if len(out) > 3 {
			out[3] = "N/A"
		} else {
			out[len(out)-1] = "N/A"
		}
	}
	g.file.ErrorsInjected[kind]++
}

func pick(rng *rand.Rand, options []string) string { return options[rng.Intn(len(options))] }

// writeChunk is how many bytes WriteTo gathers before each Write.
const writeChunk = 64 << 10

// WriteTo serializes the file in catalog ASCII form.  Every record is
// appended to one buffer, which goes to w whenever it holds writeChunk bytes.
func (f *File) WriteTo(w io.Writer) (int64, error) {
	buf := append(make([]byte, 0, writeChunk+4<<10), "# Palomar-Quest synthetic catalog "...)
	buf = append(append(buf, f.Name...), " (nominal "...)
	buf = append(strconv.AppendFloat(buf, f.Spec.SizeMB, 'f', 1, 64), " MB, "...)
	buf = append(strconv.AppendInt(buf, int64(f.DataRows), 10), " rows)\n"...)
	var n int64
	flush := func() error {
		c, err := w.Write(buf)
		n += int64(c)
		if err == nil && c < len(buf) {
			err = io.ErrShortWrite
		}
		buf = buf[:0]
		return err
	}
	for _, rec := range f.Records {
		if buf = rec.AppendLine(buf); len(buf) >= writeChunk {
			if err := flush(); err != nil {
				return n, err
			}
		}
	}
	return n, flush()
}

// FilesPerObservation is the number of catalog files the pipeline produces
// per observation (28, one per group of 4 CCDs; §4.4).
const FilesPerObservation = 28

// NightSpec controls generation of a full observation's worth of catalog
// files.
type NightSpec struct {
	// TotalMB is the nominal catalog volume of the whole observation
	// (roughly 15 GB/night in production; experiments use smaller values).
	TotalMB float64
	// RowsPerMB, Seed, ErrorRate and RunID are applied to every file.
	RowsPerMB int
	Seed      int64
	ErrorRate float64
	RunID     int64
	// Skew widens the spread of file sizes; 0 means moderate natural
	// variation (±40%), larger values make the night more unbalanced.
	Skew float64
	// Files overrides the number of files (default FilesPerObservation).
	Files int
}

// GenerateNight produces the catalog files for one observation with varying
// file sizes, the property that motivates the paper's dynamic ("on the fly")
// assignment of files to loader nodes (§4.4).
func GenerateNight(spec NightSpec) []*File {
	if spec.Files <= 0 {
		spec.Files = FilesPerObservation
	}
	if spec.RowsPerMB <= 0 {
		spec.RowsPerMB = 100
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	weights := make([]float64, spec.Files)
	var sum float64
	for i := range weights {
		w := 0.6 + 0.8*rng.Float64() + spec.Skew*rng.ExpFloat64()
		weights[i] = w
		sum += w
	}
	files := make([]*File, spec.Files)
	for i := range files {
		sizeMB := spec.TotalMB * weights[i] / sum
		files[i] = Generate(GenSpec{
			Name:      fmt.Sprintf("night%03d_file%02d.cat", spec.Seed%1000, i+1),
			SizeMB:    sizeMB,
			RowsPerMB: spec.RowsPerMB,
			Seed:      spec.Seed*1000 + int64(i),
			ErrorRate: spec.ErrorRate,
			IDBase:    int64(i+1) * 100_000_000,
			RunID:     spec.RunID,
		})
	}
	return files
}
