// Package queries implements the science-query side of the repository.
//
// The paper's repository serves two purposes: a warehouse for incrementally
// loaded data and "a query engine to support scientific research" (§4.5.1) —
// which is why the single-integer htmid index is the one secondary index kept
// during the intensive loading phase.  This package provides the typical
// queries astronomers run against a catalog repository (cone searches by
// position, magnitude statistics, object and frame detail lookups) and
// reports whether they could be answered through the htmid index or had to
// fall back to a full scan, making the loading-versus-querying index
// trade-off of Figure 8 concrete.
package queries

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"

	"skyloader/internal/catalog"
	"skyloader/internal/htm"
	"skyloader/internal/relstore"
	"skyloader/internal/tuning"
)

// Stats describes the work performed by one query.
type Stats struct {
	// RowsExamined is the number of candidate rows inspected.
	RowsExamined int
	// RowsReturned is the number of rows satisfying the query.
	RowsReturned int
	// UsedIndex reports whether the htmid index served the query.
	UsedIndex bool
	// TrixelsScanned is the number of HTM trixel ranges probed (cone search).
	TrixelsScanned int
}

// Object is a decoded row of the objects table.
type Object struct {
	ObjectID int64
	FrameID  int64
	RA       float64
	Dec      float64
	HTMID    int64
	Mag      float64
}

// objectCols holds the positions of the columns an Object is decoded from,
// resolved against the schema once per query rather than once per row.
type objectCols struct {
	objectID, frameID, ra, dec, htmID, mag int
}

func newObjectCols(ts *relstore.TableSchema) objectCols {
	return objectCols{
		objectID: ts.ColumnIndex("object_id"),
		frameID:  ts.ColumnIndex("frame_id"),
		ra:       ts.ColumnIndex("ra"),
		dec:      ts.ColumnIndex("dec"),
		htmID:    ts.ColumnIndex("htmid"),
		mag:      ts.ColumnIndex("mag"),
	}
}

// decode reads an Object straight from a stored objects row; a NULL column
// decodes as zero.
func (c objectCols) decode(r relstore.RowView) Object {
	return Object{
		ObjectID: r.Int(c.objectID),
		FrameID:  r.Int(c.frameID),
		RA:       r.Float(c.ra),
		Dec:      r.Float(c.dec),
		HTMID:    r.Int(c.htmID),
		Mag:      r.Float(c.mag),
	}
}

// angularDistanceDeg returns the angular separation of a — a query's centre,
// converted to a unit vector once per query, not once per candidate — and a
// position.
func angularDistanceDeg(a htm.Vector, ra2, dec2 float64) float64 {
	b := htm.FromRaDec(ra2, dec2)
	dot := a.X*b.X + a.Y*b.Y + a.Z*b.Z
	if dot > 1 {
		dot = 1
	}
	if dot < -1 {
		dot = -1
	}
	return math.Acos(dot) * 180 / math.Pi
}

// coneCoverDepth picks a coarse HTM depth whose trixels are comparable in
// size to the search radius.  It delegates to htm.CoverDepth so the search
// path and result-cache signatures always agree on the cover.
func coneCoverDepth(radiusDeg float64) int { return htm.CoverDepth(radiusDeg) }

// ConeSearch returns the objects within radiusDeg of (raDeg, decDeg), sorted
// by object id so the answer is deterministic and directly comparable across
// execution paths.
//
// When the htmid index exists, the search covers the cone with coarse HTM
// trixel ranges (htm.ConeCover), probes the index for each range of
// descendant ids, and filters candidates by exact angular distance.  Without
// the index it degrades to a full scan of the objects table — exactly the
// query-performance cost the paper accepts temporarily by delaying
// secondary-index builds.  Both paths apply the same exact-distance filter,
// so for identical table contents they return byte-identical results.
func ConeSearch(db *relstore.DB, raDeg, decDeg, radiusDeg float64) ([]Object, Stats, error) {
	if !(radiusDeg > 0) {
		return nil, Stats{}, fmt.Errorf("queries: radius must be positive, got %v", radiusDeg)
	}
	ts := db.Schema().Table(catalog.TObjects)
	if ts == nil {
		return nil, Stats{}, fmt.Errorf("queries: schema has no objects table")
	}
	// fullScan is the index-free path: it answers when the index is absent,
	// or when it exists under the deferred policy mid-load (suspended until
	// Seal) and is missing the rows loaded so far.
	cols := newObjectCols(ts)
	centre := htm.FromRaDec(raDeg, decDeg)
	fullScan := func() ([]Object, Stats, error) {
		var stats Stats
		var out []Object
		err := db.ScanRef(catalog.TObjects, func(r relstore.RowView) bool {
			stats.RowsExamined++
			obj := cols.decode(r)
			if angularDistanceDeg(centre, obj.RA, obj.Dec) <= radiusDeg {
				out = append(out, obj)
			}
			return true
		})
		sortObjects(out)
		stats.RowsReturned = len(out)
		return out, stats, err
	}

	index := db.Table(catalog.TObjects).Index(tuning.HTMIDIndexName)
	if index == nil || !index.Ready() {
		return fullScan()
	}

	var stats Stats
	var out []Object
	stats.UsedIndex = true
	depth := coneCoverDepth(radiusDeg)
	cover, err := htm.ConeCover(raDeg, decDeg, radiusDeg, depth)
	if err != nil {
		return nil, stats, err
	}

	// The cover's ranges are sorted and disjoint by htm.ConeCover's contract
	// and an object has one index entry, so no row is visited twice.
	for _, rg := range cover {
		// One merged range is one B-tree range probe, however many coarse
		// trixels it spans — TrixelsScanned prices probes, not area.
		stats.TrixelsScanned++
		ids := rg.DescendantRange(htm.DefaultDepth - depth)
		err := db.RangeIndexedRef(catalog.TObjects, tuning.HTMIDIndexName,
			[]relstore.Value{relstore.Int(ids.Lo)}, []relstore.Value{relstore.Int(ids.Hi)},
			func(r relstore.RowView) bool {
				obj := cols.decode(r)
				stats.RowsExamined++
				if angularDistanceDeg(centre, obj.RA, obj.Dec) <= radiusDeg {
					out = append(out, obj)
				}
				return true
			})
		if errors.Is(err, relstore.ErrIndexNotReady) {
			// The index passed the Ready check above but a load phase opened
			// mid-query and suspended it (real-concurrency engine).  Restart
			// on the scan path instead of failing a query the fallback can
			// answer correctly.
			return fullScan()
		}
		if err != nil {
			return nil, stats, err
		}
	}
	sortObjects(out)
	stats.RowsReturned = len(out)
	return out, stats, nil
}

// sortObjects orders a result by object id so every execution path (index
// probe order, heap order, cached copy) yields the same byte sequence.
func sortObjects(objs []Object) {
	slices.SortFunc(objs, func(a, b Object) int { return cmp.Compare(a.ObjectID, b.ObjectID) })
}

// ObjectByID returns the object with the given primary key, or nil.
func ObjectByID(db *relstore.DB, objectID int64) (*Object, error) {
	cols := newObjectCols(db.Schema().Table(catalog.TObjects))
	var obj Object
	found, err := db.LookupByPKRef(catalog.TObjects, []relstore.Value{relstore.Int(objectID)},
		func(r relstore.RowView) { obj = cols.decode(r) })
	if err != nil || !found {
		return nil, err
	}
	return &obj, nil
}

// ObjectsOnFrame returns every object detected on the given frame.
func ObjectsOnFrame(db *relstore.DB, frameID int64) ([]Object, Stats, error) {
	cols := newObjectCols(db.Schema().Table(catalog.TObjects))
	var out []Object
	var stats Stats
	err := db.ScanRef(catalog.TObjects, func(r relstore.RowView) bool {
		stats.RowsExamined++
		if !r.IsNull(cols.frameID) && r.Int(cols.frameID) == frameID {
			out = append(out, cols.decode(r))
		}
		return true
	})
	stats.RowsReturned = len(out)
	return out, stats, err
}

// MagnitudeBin is one bin of a magnitude histogram.
type MagnitudeBin struct {
	Low   float64
	High  float64
	Count int64
}

// MagnitudeHistogram bins the objects table by magnitude.  binWidth must be
// positive; bins with no objects are omitted.
func MagnitudeHistogram(db *relstore.DB, binWidth float64) ([]MagnitudeBin, error) {
	if !(binWidth > 0) {
		return nil, fmt.Errorf("queries: bin width must be positive, got %v", binWidth)
	}
	ts := db.Schema().Table(catalog.TObjects)
	magIdx := ts.ColumnIndex("mag")
	counts := map[int64]int64{}
	err := db.ScanRef(catalog.TObjects, func(r relstore.RowView) bool {
		if !r.IsNull(magIdx) {
			counts[int64(math.Floor(r.Float(magIdx)/binWidth))]++
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	keys := make([]int64, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	out := make([]MagnitudeBin, 0, len(keys))
	for _, k := range keys {
		out = append(out, MagnitudeBin{
			Low:   float64(k) * binWidth,
			High:  float64(k+1) * binWidth,
			Count: counts[k],
		})
	}
	return out, nil
}
