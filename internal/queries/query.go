package queries

import (
	"fmt"
	"strconv"

	"skyloader/internal/catalog"
	"skyloader/internal/htm"
	"skyloader/internal/relstore"
)

// Query is one serveable science query.  The one-shot functions in this
// package answer a single caller; a serving layer needs three more things
// from a query, which this interface adds:
//
//   - Class groups queries for per-class latency accounting (every cone
//     search lands in the same histogram regardless of its parameters).
//   - Signature is a stable, parameter-complete cache key: two queries with
//     equal signatures must produce equal results against equal table
//     contents.
//   - Table names the table whose commit epoch governs cached results.
//
// Implementations are small value types so a workload trace is just a slice
// of them.
type Query interface {
	// Class is the query-class label used for latency histograms.
	Class() string
	// Signature is the result-cache key; it must encode every parameter
	// that affects the result.
	Signature() string
	// Table is the table the query reads (cache invalidation scope).
	Table() string
	// Run executes the query against db.
	Run(db *relstore.DB) (Result, error)
}

// Result is the uniform result envelope of a served query.  Exactly one of
// Objects/Bins is populated, depending on the query class; Stats always is.
type Result struct {
	Objects []Object
	Bins    []MagnitudeBin
	Stats   Stats
}

// Query-class labels.
const (
	ClassCone      = "cone"
	ClassLookup    = "lookup"
	ClassFrame     = "frame"
	ClassHistogram = "maghist"
)

// Cone is a positional cone search: objects within RadiusDeg of (RA, Dec).
type Cone struct {
	RA, Dec, RadiusDeg float64
}

// Class implements Query.
func (q Cone) Class() string { return ClassCone }

// Table implements Query.
func (q Cone) Table() string { return catalog.TObjects }

// Signature encodes the exact cone parameters plus the cover depth the
// executor will use, so a change in cover policy can never alias two caches.
func (q Cone) Signature() string {
	return fmt.Sprintf("cone:%s:%s:%s:%d",
		strconv.FormatFloat(q.RA, 'g', -1, 64),
		strconv.FormatFloat(q.Dec, 'g', -1, 64),
		strconv.FormatFloat(q.RadiusDeg, 'g', -1, 64),
		htm.CoverDepth(q.RadiusDeg))
}

// Run implements Query.
func (q Cone) Run(db *relstore.DB) (Result, error) {
	objs, stats, err := coneSearch(db, q.RA, q.Dec, q.RadiusDeg)
	return Result{Objects: objs, Stats: stats}, err
}

// ObjectLookup fetches one object by primary key.
type ObjectLookup struct {
	ObjectID int64
}

// Class implements Query.
func (q ObjectLookup) Class() string { return ClassLookup }

// Table implements Query.
func (q ObjectLookup) Table() string { return catalog.TObjects }

// Signature implements Query.
func (q ObjectLookup) Signature() string { return "lookup:" + strconv.FormatInt(q.ObjectID, 10) }

// Run implements Query.
func (q ObjectLookup) Run(db *relstore.DB) (Result, error) {
	obj, err := objectByID(db, q.ObjectID)
	res := Result{}
	res.Stats.RowsExamined = 1
	if obj != nil {
		res.Objects = []Object{*obj}
		res.Stats.RowsReturned = 1
		res.Stats.UsedIndex = true // primary-key hash probe
	}
	return res, err
}

// FrameObjects returns every object detected on one CCD frame.
type FrameObjects struct {
	FrameID int64
}

// Class implements Query.
func (q FrameObjects) Class() string { return ClassFrame }

// Table implements Query.
func (q FrameObjects) Table() string { return catalog.TObjects }

// Signature implements Query.
func (q FrameObjects) Signature() string { return "frame:" + strconv.FormatInt(q.FrameID, 10) }

// Run implements Query.
func (q FrameObjects) Run(db *relstore.DB) (Result, error) {
	objs, stats, err := objectsOnFrame(db, q.FrameID)
	sortObjects(objs)
	return Result{Objects: objs, Stats: stats}, err
}

// MagHistogram bins the whole objects table by magnitude.
type MagHistogram struct {
	BinWidth float64
}

// Class implements Query.
func (q MagHistogram) Class() string { return ClassHistogram }

// Table implements Query.
func (q MagHistogram) Table() string { return catalog.TObjects }

// Signature implements Query.
func (q MagHistogram) Signature() string {
	return "maghist:" + strconv.FormatFloat(q.BinWidth, 'g', -1, 64)
}

// Run implements Query.
func (q MagHistogram) Run(db *relstore.DB) (Result, error) {
	bins, err := magnitudeHistogram(db, q.BinWidth)
	res := Result{Bins: bins}
	for _, b := range bins {
		res.Stats.RowsExamined += int(b.Count)
	}
	res.Stats.RowsReturned = len(bins)
	return res, err
}
