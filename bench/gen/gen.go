// Package gen produces the benchmark's inputs: observation nights serialised
// as catalog text in the work directory, and the query traces aimed at them.
//
// Generation is streaming and size-targeted (after storetheindex's
// writeCidFileOfSize): one catalog.File is generated at a time against a
// running row count, its text is written out, and only the per-file facts the
// trace builders need are kept — never the whole night's Records.  The
// program under test receives the text files and the traces, never the seed.
package gen

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"

	"skyloader/internal/catalog"
)

// maxObjectSamples caps the object facts kept per file; beyond it objects are
// sampled at a fixed stride so the kept set stays uniform over the file.
const maxObjectSamples = 8192

// footprintDeg2 is the sky area one generated file covers: frames start in a
// 2.0 x 0.6 degree box and objects spread up to 0.5 degree further.
const footprintDeg2 = 2.5 * 1.1

// Spec describes one night to generate.
type Spec struct {
	// Dir receives the text files; Prefix names them.
	Dir, Prefix string
	// Files is the number of catalog files, Rows the total row target.
	Files, Rows int
	Seed        int64
	ErrorRate   float64
	// FirstFile offsets the files' primary-key bases, so that two nights
	// (FirstFile 0 and FirstFile = first night's Files) load into one
	// database without key collisions.
	FirstFile int
}

// Object is one generated object row's identity and position.
type Object struct {
	ID, Frame int64
	RA, Dec   float64
}

// FileFacts is what is kept of one generated file.
type FileFacts struct {
	Name, Path      string
	Rows            int
	Bytes           int64
	RABase, DecBase float64
	// Objects is a uniform sample (all of them below maxObjectSamples) of
	// the file's well-formed object rows; ObjectsTotal counts all of them.
	Objects      []Object
	ObjectsTotal int
	// Frames lists the file's frame ids.
	Frames []int64
}

// Night is a generated observation: the files on disk and their facts.
type Night struct {
	Files []FileFacts
	Rows  int
	Bytes int64
}

// WriteNight generates the night file by file and serialises each to
// spec.Dir.  Every file's row target is its weighted share of the rows still
// owed, so the total lands within one frame group of spec.Rows.
func WriteNight(spec Spec) (*Night, error) {
	if spec.Files <= 0 || spec.Rows <= 0 {
		return nil, fmt.Errorf("gen: need positive files and rows, got %d and %d", spec.Files, spec.Rows)
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	weights := make([]float64, spec.Files)
	var remainingWeight float64
	for i := range weights {
		// The same +-40% natural variation in file size that motivates the
		// paper's dynamic file assignment.
		weights[i] = 0.6 + 0.8*rng.Float64()
		remainingWeight += weights[i]
	}
	night := &Night{}
	for i := 0; i < spec.Files; i++ {
		target := float64(spec.Rows-night.Rows) * weights[i] / remainingWeight
		remainingWeight -= weights[i]
		const rowsPerMB = 100
		f := catalog.Generate(catalog.GenSpec{
			Name:      fmt.Sprintf("%s_file%02d.cat", spec.Prefix, i+1),
			SizeMB:    target / rowsPerMB,
			RowsPerMB: rowsPerMB,
			Seed:      spec.Seed*1000 + int64(spec.FirstFile+i),
			ErrorRate: spec.ErrorRate,
			IDBase:    int64(spec.FirstFile+i+1) * 100_000_000,
			RunID:     1,
		})
		facts, err := writeFile(spec.Dir, f)
		if err != nil {
			return nil, err
		}
		night.Files = append(night.Files, facts)
		night.Rows += facts.Rows
		night.Bytes += facts.Bytes
	}
	return night, nil
}

// writeFile serialises one generated file and extracts its facts.
func writeFile(dir string, f *catalog.File) (FileFacts, error) {
	facts := FileFacts{
		Name: f.Name, Path: filepath.Join(dir, f.Name),
		Rows: f.DataRows, RABase: f.RABase, DecBase: f.DecBase,
	}
	out, err := os.Create(facts.Path)
	if err != nil {
		return facts, fmt.Errorf("gen: %w", err)
	}
	n, err := f.WriteTo(out)
	if err != nil {
		_ = out.Close()
		return facts, fmt.Errorf("gen: write %s: %w", facts.Path, err)
	}
	if err := out.Close(); err != nil {
		return facts, fmt.Errorf("gen: close %s: %w", facts.Path, err)
	}
	facts.Bytes = n

	stride := 1 + f.RowsByTable[catalog.TObjects]/maxObjectSamples
	for _, rec := range f.Records {
		switch rec.Tag {
		case catalog.TagFRM:
			if id, err := strconv.ParseInt(rec.Fields[0], 10, 64); err == nil {
				facts.Frames = append(facts.Frames, id)
			}
		case catalog.TagOBJ:
			obj, ok := parseObject(rec.Fields)
			if !ok {
				continue // a corrupted row; the loader will reject it too
			}
			if facts.ObjectsTotal%stride == 0 {
				facts.Objects = append(facts.Objects, obj)
			}
			facts.ObjectsTotal++
		}
	}
	return facts, nil
}

func parseObject(fields []string) (Object, bool) {
	var o Object
	var err [4]error
	o.ID, err[0] = strconv.ParseInt(fields[0], 10, 64)
	o.Frame, err[1] = strconv.ParseInt(fields[1], 10, 64)
	o.RA, err[2] = strconv.ParseFloat(fields[2], 64)
	o.Dec, err[3] = strconv.ParseFloat(fields[3], 64)
	for _, e := range err {
		if e != nil {
			return o, false
		}
	}
	return o, true
}

// Footprints returns where on the sky the files of a night with this spec
// would lie, without generating the night: a file's base point depends only
// on its seed, so a minimal file per seed is enough to learn it.
func Footprints(spec Spec) (ra, dec []float64) {
	for i := 0; i < spec.Files; i++ {
		f := catalog.Generate(catalog.GenSpec{Seed: spec.Seed*1000 + int64(spec.FirstFile+i)})
		ra, dec = append(ra, f.RABase), append(dec, f.DecBase)
	}
	return ra, dec
}
