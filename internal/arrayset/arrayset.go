// Package arrayset implements the array-set buffering data structure of the
// SkyLoader framework (paper §4.3).
//
// An ArraySet is a dynamically maintained collection of two-dimensional
// arrays, one per destination database table.  As the interleaved catalog
// data is read, each row is buffered into the array designated for its
// destination table; a new array is created the first time a table is seen.
// When any array reaches the configured array-size, the whole set is flushed
// with bulk inserts issued in parent-before-child (foreign-key) order, after
// which the arrays are destroyed and buffering starts over.  Buffering rows
// in arrays gives the loader random access to every pending row, which is
// what allows it to skip an offending row and repack the batch when a bulk
// insert fails part-way through.
package arrayset

import (
	"fmt"
	"sort"

	"skyloader/internal/relstore"
)

// Array buffers pending rows for one destination table.
//
// Rows is handed to the batch-apply path by reference (sub-slices go straight
// into Stmt.ExecuteBatchRows): every row is a capacity-clipped window of a
// value slab the array owns, stable from the moment the row is added until
// the array is passed to Recycle (for ever, if it never is), and nothing
// mutates buffered rows in between, so the flush path performs no per-row
// copies.
type Array struct {
	Table   string
	Columns []string
	Rows    [][]relstore.Value

	// SourceLines records the catalog file line of each buffered row, so
	// load errors can be reported against the input file.
	SourceLines []int

	// slab is the newest block of row values.  A full block is not grown:
	// the rows that window it keep it alive and a block twice its size takes
	// over, so rows never move and only the newest block is there to reuse.
	slab []relstore.Value

	bytes int64
}

// minSlabValues is the capacity of an array's first value slab; the slab
// doubles from there to whatever one flush cycle of the table needs and is
// then reused, so it is never sized from ArraySize (which may be millions).
const minSlabValues = 256

// Len returns the number of buffered rows.
func (a *Array) Len() int { return len(a.Rows) }

// Bytes returns the estimated raw data size of the buffered rows.
func (a *Array) Bytes() int64 { return a.bytes }

// Config controls an ArraySet.
type Config struct {
	// ArraySize is the row threshold at which a flush of the whole set is
	// triggered (the paper's array-size tunable).
	ArraySize int
	// PerTableSize optionally overrides ArraySize for specific tables (the
	// configuration-file extension the paper lists as future work in §4.3).
	PerTableSize map[string]int
	// MemoryHighWaterBytes, when > 0, triggers a flush whenever the
	// aggregate buffered memory (including per-row overhead) exceeds it —
	// the "memory high water mark" extension discussed in §4.3.
	MemoryHighWaterBytes int64
	// RowOverheadBytes is the per-row bookkeeping overhead added to the raw
	// row size when accounting memory.
	RowOverheadBytes int
}

// DefaultConfig returns the production configuration used by the paper's
// performance studies (array-size 1000).
func DefaultConfig() Config {
	return Config{ArraySize: 1000, RowOverheadBytes: 64}
}

// ArraySet is the set of per-table buffer arrays.
type ArraySet struct {
	cfg    Config
	order  map[string]int // table -> topological position (parents first)
	arrays map[string]*Array
	free   map[string]*Array // recycled arrays, emptied, awaiting their table's next cycle

	totalRows  int
	totalBytes int64

	cyclesFlushed int
	arraysCreated int
}

// New creates an ArraySet for the given schema.  The schema provides the
// foreign-key graph from which the parent-before-child flush order is
// derived.
func New(schema *relstore.Schema, cfg Config) (*ArraySet, error) {
	if cfg.ArraySize <= 0 {
		return nil, fmt.Errorf("arrayset: ArraySize must be positive, got %d", cfg.ArraySize)
	}
	topo, err := schema.TopologicalOrder()
	if err != nil {
		return nil, err
	}
	order := make(map[string]int, len(topo))
	for i, name := range topo {
		order[name] = i
	}
	return &ArraySet{
		cfg:    cfg,
		order:  order,
		arrays: make(map[string]*Array),
		free:   make(map[string]*Array),
	}, nil
}

// MustNew is New that panics on error.
func MustNew(schema *relstore.Schema, cfg Config) *ArraySet {
	s, err := New(schema, cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Config returns the configuration of the set.
func (s *ArraySet) Config() Config { return s.cfg }

// sizeFor returns the flush threshold for the given table.
func (s *ArraySet) sizeFor(table string) int {
	if n, ok := s.cfg.PerTableSize[table]; ok && n > 0 {
		return n
	}
	return s.cfg.ArraySize
}

// Add buffers one row destined for table, creating the table's array on
// first use.  The values are copied into the array's slab: the caller may
// reuse or change values as soon as Add returns.  It reports whether the
// addition filled any array (or crossed the memory high-water mark), i.e.
// whether the caller should flush now.  created reports whether the table's
// array joined the cycle with this row (newly allocated or recycled).
func (s *ArraySet) Add(table string, columns []string, values []relstore.Value, sourceLine int) (full, created bool, err error) {
	arr, ok := s.arrays[table]
	if !ok {
		// Schema membership only needs checking when no array exists yet: a
		// hit in s.arrays implies the table was validated when the array was
		// created, so the steady-state add path pays one map lookup, not two.
		if _, known := s.order[table]; !known {
			return false, false, fmt.Errorf("arrayset: table %q is not part of the schema", table)
		}
		if arr = s.free[table]; arr != nil {
			delete(s.free, table)
			arr.Columns = columns
		} else {
			// Pre-size the row buffers to the flush threshold: an array
			// almost always fills to exactly that size before the set is
			// drained, so reserving it up front removes the append regrowth
			// copies from the add path.
			size := s.sizeFor(table)
			arr = &Array{
				Table:       table,
				Columns:     columns,
				Rows:        make([][]relstore.Value, 0, size),
				SourceLines: make([]int, 0, size),
			}
		}
		s.arrays[table] = arr
		s.arraysCreated++
		created = true
	}
	if len(arr.slab)+len(values) > cap(arr.slab) {
		arr.slab = make([]relstore.Value, 0, max(2*cap(arr.slab), minSlabValues, len(values)))
	}
	start := len(arr.slab)
	arr.slab = append(arr.slab, values...)
	arr.Rows = append(arr.Rows, arr.slab[start:len(arr.slab):len(arr.slab)])
	arr.SourceLines = append(arr.SourceLines, sourceLine)
	rb := int64(relstore.RowSize(values) + s.cfg.RowOverheadBytes)
	arr.bytes += rb
	s.totalRows++
	s.totalBytes += rb

	if len(arr.Rows) >= s.sizeFor(table) {
		full = true
	}
	if s.cfg.MemoryHighWaterBytes > 0 && s.totalBytes >= s.cfg.MemoryHighWaterBytes {
		full = true
	}
	return full, created, nil
}

// Len returns the total number of buffered rows across all arrays.
func (s *ArraySet) Len() int { return s.totalRows }

// MemoryBytes returns the estimated memory held by the buffered rows
// (raw data plus per-row overhead).
func (s *ArraySet) MemoryBytes() int64 { return s.totalBytes }

// NumArrays returns the number of arrays currently maintained.
func (s *ArraySet) NumArrays() int { return len(s.arrays) }

// ArraysCreated returns the cumulative number of arrays that joined a flush
// cycle over the lifetime of the set, newly allocated or recycled.
func (s *ArraySet) ArraysCreated() int { return s.arraysCreated }

// CyclesFlushed returns how many flush cycles have completed.
func (s *ArraySet) CyclesFlushed() int { return s.cyclesFlushed }

// Array returns the buffer for the given table, or nil if none exists in the
// current cycle.
func (s *ArraySet) Array(table string) *Array { return s.arrays[table] }

// FlushOrder returns the tables that currently have buffered rows, ordered
// parents before children (Figure 2 of the paper).  Ties (tables unrelated by
// foreign keys) are broken by table name for determinism.
func (s *ArraySet) FlushOrder() []string {
	tables := make([]string, 0, len(s.arrays))
	for t, arr := range s.arrays {
		if arr.Len() > 0 {
			tables = append(tables, t)
		}
	}
	sort.Slice(tables, func(i, j int) bool {
		oi, oj := s.order[tables[i]], s.order[tables[j]]
		if oi != oj {
			return oi < oj
		}
		return tables[i] < tables[j]
	})
	return tables
}

// Drain returns the arrays in flush order and resets the set: the arrays are
// handed to the caller and the set is left empty, matching the paper's
// "at the end of the bulk-loading cycle, the arrays in array-set are
// destroyed and their memory released".  The caller owns what it gets — the
// set keeps no reference, and later Adds and Drains never touch it — until
// and unless it gives the arrays back with Recycle.
func (s *ArraySet) Drain() []*Array {
	order := s.FlushOrder()
	out := make([]*Array, 0, len(order))
	for _, t := range order {
		out = append(out, s.arrays[t])
	}
	s.Reset()
	s.cyclesFlushed++
	return out
}

// Recycle gives drained arrays back to the set, which empties them and
// reuses their row buffers and slab the next time their table is added to.
// The caller must be done with them: Rows, SourceLines and every row of the
// arrays are invalid from here on.  The buffers are cleared, so a recycled
// array pins none of the strings its rows held.
func (s *ArraySet) Recycle(arrays []*Array) {
	for _, arr := range arrays {
		clear(arr.Rows)
		clear(arr.slab)
		arr.Rows, arr.SourceLines, arr.slab = arr.Rows[:0], arr.SourceLines[:0], arr.slab[:0]
		arr.bytes = 0
		s.free[arr.Table] = arr
	}
}

// Reset discards all buffered rows and arrays without returning them.
func (s *ArraySet) Reset() {
	clear(s.arrays)
	s.totalRows = 0
	s.totalBytes = 0
}
