package catalog

import (
	"bufio"
	"fmt"
	"io"
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
	// CCDsPerFile is the number of CCD columns in the file (the real
	// pipeline wrote 4 CCDs per catalog file); default 4.
	CCDsPerFile int
	// ObjectsPerFrame is the mean number of objects per frame; default 12.
	ObjectsPerFrame int
	// Unsorted, when true, emits child rows before their parents within
	// each frame group (violating the presorting of §4.5.4); used by the
	// ablation studies.
	Unsorted bool
}

func (s GenSpec) withDefaults() GenSpec {
	if s.RowsPerMB <= 0 {
		s.RowsPerMB = 100
	}
	if s.CCDsPerFile <= 0 {
		s.CCDsPerFile = 4
	}
	if s.ObjectsPerFrame <= 0 {
		s.ObjectsPerFrame = 12
	}
	if s.Name == "" {
		s.Name = fmt.Sprintf("catalog_%d_%04.0fMB.cat", s.Seed, s.SizeMB)
	}
	return s
}

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
	rng := rand.New(rand.NewSource(spec.Seed))
	g := &generator{
		spec: spec,
		rng:  rng,
		file: &File{
			Name:           spec.Name,
			Spec:           spec,
			NominalBytes:   int64(spec.SizeMB * 1e6),
			RowsByTable:    make(map[string]int),
			ErrorsInjected: make(map[ErrorKind]int),
		},
		nextID: make(map[Tag]int64),
		seen:   make(map[Tag][]string),
	}
	g.run()
	return g.file
}

type generator struct {
	spec   GenSpec
	rng    *rand.Rand
	file   *File
	nextID map[Tag]int64
	// seen keeps previously emitted primary-key field values per tag so that
	// duplicate-key corruption can reuse one.
	seen map[Tag][]string

	obsID   int64
	raBase  float64
	decBase float64
	mjd     float64
}

func (g *generator) id(tag Tag) int64 {
	g.nextID[tag]++
	return g.spec.IDBase + g.nextID[tag]
}

func (g *generator) emit(tag Tag, fields ...string) {
	rec := Record{Tag: tag, Fields: fields}
	table, _ := TableForTag(tag)
	g.file.Records = append(g.file.Records, rec)
	g.file.RowsByTable[table]++
	g.file.DataRows++
	g.file.ActualBytes += int64(rec.Bytes())
	g.seen[tag] = append(g.seen[tag], fields[0])
}

func f2s(v float64, prec int) string { return strconv.FormatFloat(v, 'f', prec, 64) }
func i2s(v int64) string             { return strconv.FormatInt(v, 10) }

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

	g.raBase = g.rng.Float64() * 330
	g.decBase = -25 + g.rng.Float64()*50
	g.mjd = 53600 + g.rng.Float64()*400
	g.file.RABase, g.file.DecBase = g.raBase, g.decBase

	// Observation header block.
	g.obsID = g.id(TagOBS)
	runField := ""
	if spec.RunID > 0 {
		runField = i2s(spec.RunID)
	}
	g.emit(TagOBS, i2s(g.obsID), runField, "1",
		f2s(g.mjd, 6), f2s(g.raBase, 6), f2s(g.decBase, 6),
		f2s(1.0+g.rng.Float64()*1.6, 3), pick(g.rng, FilterNames), f2s(60+g.rng.Float64()*120, 2))
	// Parameter names must be distinct within one observation because
	// observation_params carries a unique (obs_id, name) constraint.
	paramNames := []string{"DRIFT_RATE", "FOCUS", "CAMERA_TEMP", "HUMIDITY"}
	firstParam := g.rng.Intn(len(paramNames))
	for i := 0; i < 2; i++ {
		g.emit(TagPRM, i2s(g.id(TagPRM)), i2s(g.obsID),
			paramNames[(firstParam+i)%len(paramNames)],
			f2s(g.rng.Float64()*100, 3))
	}
	g.emit(TagREG, i2s(g.id(TagREG)), i2s(g.obsID),
		f2s(g.raBase, 6), f2s(g.raBase+2.3, 6), f2s(g.decBase, 6), f2s(g.decBase+0.7, 6))

	// CCD columns for this file.
	ccdIDs := make([]int64, spec.CCDsPerFile)
	ccdNums := make([]int64, spec.CCDsPerFile)
	for i := 0; i < spec.CCDsPerFile; i++ {
		ccdIDs[i] = g.id(TagCCD)
		ccdNums[i] = int64(1 + g.rng.Intn(NumCCDsPerInstrument))
		g.emit(TagCCD, i2s(ccdIDs[i]), i2s(g.obsID), i2s(ccdNums[i]), i2s(ccdNums[i]),
			pick(g.rng, FilterNames),
			f2s(g.raBase+float64(i)*0.25, 6), f2s(g.decBase+float64(i)*0.1, 6),
			f2s(2.0+g.rng.Float64(), 3), f2s(4.0+g.rng.Float64()*3, 3))
	}

	// Frames with their detail rows and objects, until the row budget is met.
	ccd := 0
	frameNumber := int64(0)
	for g.file.DataRows < targetRows {
		g.generateFrame(ccdIDs[ccd], frameNumber)
		ccd = (ccd + 1) % spec.CCDsPerFile
		frameNumber++
	}
}

// generateFrame emits one frame and all of its children.
func (g *generator) generateFrame(ccdColID, frameNumber int64) {
	spec := g.spec
	frameID := g.id(TagFRM)
	frameRA := g.raBase + g.rng.Float64()*2.0
	frameDec := g.decBase + g.rng.Float64()*0.6

	frameFields := []string{i2s(frameID), i2s(ccdColID), i2s(frameNumber),
		f2s(g.mjd+float64(frameNumber)*0.0017, 6), f2s(140+g.rng.Float64()*20, 2),
		f2s(0.9+g.rng.Float64()*2.2, 2), f2s(800+g.rng.Float64()*600, 2), f2s(22+g.rng.Float64()*4, 3)}

	objBlocks := g.objectBlocks(frameID, frameRA, frameDec)

	var detail []pendingRec
	for a := int64(1); a <= 4; a++ {
		detail = append(detail, pendingRec{TagAPR, []string{i2s(g.id(TagAPR)), i2s(frameID), i2s(a),
			f2s(1.5*float64(a), 3), f2s(1.0-0.02*float64(a), 4)}})
	}
	detail = append(detail, pendingRec{TagZPT, []string{i2s(g.id(TagZPT)), i2s(frameID),
		f2s(21.5+g.rng.Float64()*2, 4), f2s(0.01+g.rng.Float64()*0.05, 4), f2s(-0.1+g.rng.Float64()*0.2, 4)}})
	detail = append(detail, pendingRec{TagAST, []string{i2s(g.id(TagAST)), i2s(frameID),
		f2s(frameRA, 6), f2s(frameDec, 6),
		f2s(-0.00024, 8), f2s(0.0000012, 8), f2s(0.0000011, 8), f2s(0.00024, 8),
		f2s(0.05+g.rng.Float64()*0.2, 4)}})
	detail = append(detail, pendingRec{TagPHO, []string{i2s(g.id(TagPHO)), i2s(frameID),
		f2s(20.5+g.rng.Float64()*1.5, 3), f2s(0.1+g.rng.Float64()*0.3, 4), f2s(19+g.rng.Float64()*2, 3)}})

	if !spec.Unsorted {
		g.emit(TagFRM, frameFields...)
		for _, d := range detail {
			g.emitMaybeCorrupt(d.tag, d.fields)
		}
		for _, blk := range objBlocks {
			for _, d := range blk {
				g.emitMaybeCorrupt(d.tag, d.fields)
			}
		}
		return
	}
	// Unsorted variant: children of the frame come first, the frame row last,
	// which defeats the parent-before-child presorting assumption.
	for _, blk := range objBlocks {
		for _, d := range blk {
			g.emitMaybeCorrupt(d.tag, d.fields)
		}
	}
	for _, d := range detail {
		g.emitMaybeCorrupt(d.tag, d.fields)
	}
	g.emit(TagFRM, frameFields...)
}

type pendingRec struct {
	tag    Tag
	fields []string
}

// objectBlocks builds the object rows (and their children) for one frame.
func (g *generator) objectBlocks(frameID int64, frameRA, frameDec float64) [][]pendingRec {
	spec := g.spec
	n := spec.ObjectsPerFrame/2 + g.rng.Intn(spec.ObjectsPerFrame)
	blocks := make([][]pendingRec, 0, n)
	for i := 0; i < n; i++ {
		objID := g.id(TagOBJ)
		ra := frameRA + g.rng.Float64()*0.25
		if ra >= 360 {
			ra -= 360
		}
		dec := frameDec + g.rng.Float64()*0.25
		mag := 14 + g.rng.Float64()*8
		blk := []pendingRec{{TagOBJ, []string{i2s(objID), i2s(frameID),
			f2s(ra, 6), f2s(dec, 6), f2s(mag, 3), f2s(0.005+g.rng.Float64()*0.1, 3),
			f2s(1.2+g.rng.Float64()*2, 2), f2s(g.rng.Float64()*0.5, 3), i2s(int64(g.rng.Intn(16)))}}}
		for fng := int64(1); fng <= 4; fng++ {
			blk = append(blk, pendingRec{TagFNG, []string{i2s(g.id(TagFNG)), i2s(objID), i2s(fng),
				f2s(1000*g.rng.Float64(), 4), f2s(10*g.rng.Float64(), 4), f2s(1.5*float64(fng), 3)}})
		}
		blk = append(blk, pendingRec{TagOAP, []string{i2s(g.id(TagOAP)), i2s(objID), i2s(int64(1 + g.rng.Intn(4))),
			f2s(mag+g.rng.Float64()*0.2, 3), f2s(0.01+g.rng.Float64()*0.05, 3)}})
		blk = append(blk, pendingRec{TagSHP, []string{i2s(g.id(TagSHP)), i2s(objID),
			f2s(1+g.rng.Float64()*3, 3), f2s(0.5+g.rng.Float64()*2, 3), f2s(-90+g.rng.Float64()*180, 2),
			f2s(g.rng.Float64(), 3)}})
		if g.rng.Float64() < 0.15 {
			blk = append(blk, pendingRec{TagFLG, []string{i2s(g.id(TagFLG)), i2s(objID),
				i2s(int64(1 + g.rng.Intn(len(QualityFlagNames)))), "1"}})
		}
		blocks = append(blocks, blk)
	}
	return blocks
}

// emitMaybeCorrupt emits a detail record, possibly corrupting it according to
// the configured error rate.
func (g *generator) emitMaybeCorrupt(tag Tag, fields []string) {
	if g.spec.ErrorRate > 0 && g.rng.Float64() < g.spec.ErrorRate {
		fields = g.corrupt(tag, fields)
	}
	g.emit(tag, fields...)
}

// corrupt applies one randomly chosen corruption to the record's fields.
func (g *generator) corrupt(tag Tag, fields []string) []string {
	out := make([]string, len(fields))
	copy(out, fields)
	kind := []ErrorKind{ErrDuplicateKey, ErrOutOfRange, ErrMissingValue, ErrOrphanRef, ErrMalformed}[g.rng.Intn(5)]
	switch kind {
	case ErrDuplicateKey:
		prev := g.seen[tag]
		if len(prev) == 0 {
			return out
		}
		out[0] = prev[g.rng.Intn(len(prev))]
	case ErrOutOfRange:
		// Blow up a numeric field beyond its check-constraint range.
		switch tag {
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
		switch tag {
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
			out[1] = i2s(g.spec.IDBase + 900000000 + int64(g.rng.Intn(100000)))
		}
	case ErrMalformed:
		if len(out) > 3 {
			out[3] = "N/A"
		} else {
			out[len(out)-1] = "N/A"
		}
	}
	g.file.ErrorsInjected[kind]++
	return out
}

func pick(rng *rand.Rand, options []string) string { return options[rng.Intn(len(options))] }

// WriteTo serializes the file in catalog ASCII form.
func (f *File) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var n int64
	header := fmt.Sprintf("# Palomar-Quest synthetic catalog %s (nominal %.1f MB, %d rows)\n",
		f.Name, f.Spec.SizeMB, f.DataRows)
	c, err := bw.WriteString(header)
	n += int64(c)
	if err != nil {
		return n, err
	}
	for _, rec := range f.Records {
		c, err := bw.WriteString(rec.Format() + "\n")
		n += int64(c)
		if err != nil {
			return n, err
		}
	}
	return n, bw.Flush()
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
