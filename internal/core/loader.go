// Package core implements the SkyLoader bulk-loading engine, the primary
// contribution of the paper: the bulk_loading algorithm (Figure 3) that
// buffers interleaved catalog rows into an array-set, flushes the arrays with
// bulk inserts in parent-before-child order, skips offending rows on batch
// errors by index tracing, and commits infrequently.
package core

import (
	"fmt"
	"time"

	"skyloader/internal/arrayset"
	"skyloader/internal/catalog"
	"skyloader/internal/relstore"
	"skyloader/internal/sqlbatch"
)

// Config holds the loader's user-tunable constants and policies.
type Config struct {
	// BatchSize is the number of rows sent per database call (the paper's
	// batch-size constant; 40 was found optimal).
	BatchSize int
	// ArraySize is the per-table buffer threshold that triggers a flush of
	// the whole array-set (the paper's array-size constant; 1000 optimal).
	ArraySize int
	// CommitEveryBatches commits after every N batches; 0 commits only at
	// the end of each file (the paper's "very infrequent" commits, §4.5.2).
	CommitEveryBatches int
	// RecordProvenance, when true, writes a load_runs row per file and a
	// load_errors row for every skipped row.
	RecordProvenance bool
	// LoaderNode identifies the cluster node running this loader in
	// provenance records and statistics.
	LoaderNode int
}

// DefaultConfig returns the production SkyLoader configuration (batch 40,
// array 1000, commit at end of file).
func DefaultConfig() Config {
	return Config{
		BatchSize: 40,
		ArraySize: 1000,
	}
}

func (c Config) withDefaults() Config {
	if c.BatchSize <= 0 {
		c.BatchSize = 40
	}
	if c.ArraySize <= 0 {
		c.ArraySize = 1000
	}
	return c
}

// SkippedRow describes one row rejected by the database and skipped by the
// error-recovery path.
type SkippedRow struct {
	Table      string
	SourceLine int
	File       string
	Reason     string
}

// Stats aggregates the work done by a loader.
type Stats struct {
	Files        int
	RowsRead     int
	ParseErrors  int
	RowsBuffered int
	RowsLoaded   int
	RowsSkipped  int
	Batches      int
	DBCalls      int
	FlushCycles  int
	Commits      int
	LockWaits    int
	LongStalls   int

	NominalBytes int64
	Elapsed      time.Duration

	RowsLoadedByTable map[string]int
	SkippedByTable    map[string]int
	Skipped           []SkippedRow
}

// Merge accumulates other into s (used to combine per-node statistics).
func (s *Stats) Merge(other Stats) {
	s.Files += other.Files
	s.RowsRead += other.RowsRead
	s.ParseErrors += other.ParseErrors
	s.RowsBuffered += other.RowsBuffered
	s.RowsLoaded += other.RowsLoaded
	s.RowsSkipped += other.RowsSkipped
	s.Batches += other.Batches
	s.DBCalls += other.DBCalls
	s.FlushCycles += other.FlushCycles
	s.Commits += other.Commits
	s.LockWaits += other.LockWaits
	s.LongStalls += other.LongStalls
	s.NominalBytes += other.NominalBytes
	if other.Elapsed > s.Elapsed {
		s.Elapsed = other.Elapsed
	}
	if s.RowsLoadedByTable == nil {
		s.RowsLoadedByTable = make(map[string]int)
	}
	for t, n := range other.RowsLoadedByTable {
		s.RowsLoadedByTable[t] += n
	}
	if s.SkippedByTable == nil {
		s.SkippedByTable = make(map[string]int)
	}
	for t, n := range other.SkippedByTable {
		s.SkippedByTable[t] += n
	}
	s.Skipped = append(s.Skipped, other.Skipped...)
}

// Loader is a single SkyLoader process: it owns one database connection and
// loads catalog files through it.
type Loader struct {
	conn   *sqlbatch.Conn
	schema *relstore.Schema
	cfg    Config
	cost   sqlbatch.CostModel
	xform  *catalog.Transformer

	set *arrayset.ArraySet
	// rowScratch is where every record is transformed; the array-set copies
	// the row out of it.
	rowScratch []relstore.Value
	stats      Stats

	batchesSinceCommit int
	// connCommits is the connection's commit count when the loader took it
	// over; Stats.Commits is what it has retired since.
	connCommits   int64
	nextLoadRunID int64
	nextLoadErrID int64
	currentFile   string
}

// NewLoader creates a loader over an open connection.
func NewLoader(conn *sqlbatch.Conn, cfg Config) (*Loader, error) {
	cfg = cfg.withDefaults()
	schema := conn.Server().DB().Schema()
	set, err := arrayset.New(schema, arrayset.Config{
		ArraySize:        cfg.ArraySize,
		RowOverheadBytes: conn.Server().Cost().BufferedRowOverheadBytes,
	})
	if err != nil {
		return nil, err
	}
	l := &Loader{
		schema: schema,
		cfg:    cfg,
		cost:   conn.Server().Cost(),
		xform:  catalog.NewTransformer(schema),
		set:    set,
	}
	l.rowScratch = make([]relstore.Value, 0, l.xform.MaxRowValues())
	// Provenance ids are derived from the loader node to stay unique across
	// parallel loaders.
	l.nextLoadRunID = int64(cfg.LoaderNode+1) * 1_000_000
	l.nextLoadErrID = int64(cfg.LoaderNode+1) * 10_000_000
	l.Rebind(conn)
	return l, nil
}

// Rebind moves the loader to conn, another connection to the same server,
// and starts its statistics over: for an owner that loads file after file
// but gets a new worker, and so a new connection, for each (a shard agent
// and its load tasks).  What a loader allocates to do its work — the
// array-set's buffers, the transformer, the row scratch — and its provenance
// ids carry over.  The loader must be between files, on a connection with no
// transaction open.
func (l *Loader) Rebind(conn *sqlbatch.Conn) {
	l.conn = conn
	l.connCommits = conn.Stats().Commits
	l.batchesSinceCommit = 0
	l.stats = Stats{RowsLoadedByTable: make(map[string]int), SkippedByTable: make(map[string]int)}
}

// Stats returns the loader's accumulated statistics.
func (l *Loader) Stats() Stats { return l.stats }

// Config returns the loader configuration.
func (l *Loader) Config() Config { return l.cfg }

// LoadFiles loads the given catalog files sequentially and returns the
// accumulated statistics.  Elapsed time covers the whole call.  Closing the
// engine's load phase is not the loader's job: one coordinator seals once
// every loader is done (parallel.Config.SealAfterLoad, or DB/Server.Seal).
func (l *Loader) LoadFiles(files []*catalog.File) (Stats, error) {
	start := l.conn.Worker().Now()
	for _, f := range files {
		if err := l.LoadFile(f); err != nil {
			return l.stats, err
		}
	}
	l.stats.Elapsed = l.conn.Worker().Now() - start
	return l.stats, nil
}

// LoadFile loads one catalog file: it implements the bulk_loading procedure
// of Figure 3 (parse, validate, transform, buffer into the array-set, flush
// in parent-child order when any array fills, skip error rows, commit
// infrequently).
func (l *Loader) LoadFile(f *catalog.File) error {
	fileStart := l.conn.Worker().Now()
	l.currentFile = f.Name
	l.stats.Files++
	l.stats.NominalBytes += f.NominalBytes

	// Stage the file from mass storage before parsing it.
	l.conn.ChargeClientCPU(l.cost.StagingTime(f.NominalBytes))

	if !l.conn.InTransaction() {
		if err := l.conn.Begin(); err != nil {
			return fmt.Errorf("core: begin transaction: %w", err)
		}
	}
	if l.cfg.RecordProvenance {
		if err := l.insertLoadRun(f); err != nil {
			return err
		}
	}

	for _, rec := range f.Records {
		if err := l.processRecord(rec); err != nil {
			return err
		}
	}
	// The scratch still holds the last row, and a string of it is a window of
	// the file's text: a loader kept between files must not pin a file it is
	// done with (the array-set clears what it recycles for the same reason).
	clear(l.rowScratch[:cap(l.rowScratch)])
	// Final partial flush for the file (line 13-14 of Figure 3 reaching the
	// end of input with partially filled arrays).
	if err := l.flushArraySet(); err != nil {
		return err
	}
	if err := l.commit(); err != nil {
		return err
	}
	if l.stats.Elapsed < l.conn.Worker().Now()-fileStart {
		l.stats.Elapsed = l.conn.Worker().Now() - fileStart
	}
	return nil
}

// processRecord is line 4-12 of Figure 3 for one input row.
func (l *Loader) processRecord(rec catalog.Record) error {
	l.stats.RowsRead++
	// Client-side parse/validate/transform/compute cost, accumulated and
	// charged as a single hold per row to keep the simulation fast.
	clientWork := l.cost.ParseRowCost + l.cost.TransformRowCost

	row, err := l.xform.TransformInto(l.rowScratch, rec)
	if err != nil {
		// Validation failure on the client: the row never reaches the
		// database (the paper's validation step filters errors and
		// outliers, §3).
		l.stats.ParseErrors++
		l.conn.ChargeClientCPU(clientWork)
		return nil
	}

	full, created, err := l.set.Add(row.Table, row.Columns, row.Values, rec.Line)
	if err != nil {
		return err
	}
	l.stats.RowsBuffered++
	clientWork += l.cost.BufferRowCost
	if created {
		clientWork += l.cost.ArrayInitCost
	}
	// Client paging penalty once the array-set exceeds the node's memory
	// budget (Figure 6's right-hand side).
	if budget := l.cost.ClientMemoryBytes; budget > 0 {
		if mem := l.set.MemoryBytes(); mem > budget {
			over := float64(mem-budget) / float64(budget)
			clientWork += time.Duration(over * float64(l.cost.PagingPenaltyPerRow))
		}
	}
	l.conn.ChargeClientCPU(clientWork)

	if full {
		return l.flushArraySet()
	}
	return nil
}

// flushArraySet is lines 5-12 of Figure 3: bulk-load every array, parents
// before children, then release the arrays (back to the set: the engine
// copied every row it took, so their buffers serve the next cycle).
func (l *Loader) flushArraySet() error {
	if l.set.Len() == 0 {
		return nil
	}
	arrays := l.set.Drain()
	l.stats.FlushCycles++
	for _, arr := range arrays {
		if err := l.loadArray(arr); err != nil {
			return err
		}
	}
	l.set.Recycle(arrays)
	return nil
}

// loadArray is lines 6-11 of Figure 3: repeatedly call batch_row with the
// remaining index range until every row of the array has been processed.
func (l *Loader) loadArray(arr *arrayset.Array) error {
	firstIdx := 0
	lastIdx := arr.Len() - 1
	for firstIdx <= lastIdx {
		next, err := l.batchRow(arr, firstIdx, lastIdx)
		if err != nil {
			return err
		}
		firstIdx = next
	}
	return nil
}

// batchRow is the batch_row function of Figure 3 (lines 15-35): pack rows
// into batches of batch-size, insert each batch in one database call, and on
// an error skip the offending row and return the index following it so the
// caller can resume.
//
// Batches are handed to the server as sub-slices of the array buffer rather
// than copied row-by-row through AddBatch: the array is stable until the
// flush cycle ends (random access into it is exactly what the array-set
// exists for), so the only per-row work left on this path is the engine's
// own validation and storage.
func (l *Loader) batchRow(arr *arrayset.Array, firstIdx, lastIdx int) (int, error) {
	stmt := l.conn.Prepare(arr.Table, arr.Columns)
	idx := firstIdx
	for idx <= lastIdx {
		end := idx + l.cfg.BatchSize
		if end > lastIdx+1 {
			end = lastIdx + 1
		}
		res, err := stmt.ExecuteBatchRows(arr.Rows[idx:end])
		if err != nil {
			return lastIdx + 1, fmt.Errorf("core: execute batch on %s: %w", arr.Table, err)
		}
		l.stats.Batches++
		l.stats.DBCalls++
		l.stats.RowsLoaded += res.RowsInserted
		l.stats.RowsLoadedByTable[arr.Table] += res.RowsInserted
		l.stats.LockWaits += res.LockWaits
		l.stats.LongStalls += res.LongStalls

		if err := l.maybeCommit(); err != nil {
			return lastIdx + 1, err
		}

		if res.Err == nil {
			idx = end
			continue
		}
		// A row in the batch violated a constraint: rows before it were
		// applied, the offender is skipped, and the caller resumes from the
		// row after it (index tracing through the source array).
		errIdx := idx + res.FailedIndex
		l.recordSkip(arr, errIdx, res.Err)
		return errIdx + 1, nil
	}
	return lastIdx + 1, nil
}

// recordSkip accounts one database-rejected row.
func (l *Loader) recordSkip(arr *arrayset.Array, idx int, cause error) {
	l.stats.RowsSkipped++
	l.stats.SkippedByTable[arr.Table]++
	line := 0
	if idx >= 0 && idx < len(arr.SourceLines) {
		line = arr.SourceLines[idx]
	}
	l.stats.Skipped = append(l.stats.Skipped, SkippedRow{
		Table:      arr.Table,
		SourceLine: line,
		File:       l.currentFile,
		Reason:     cause.Error(),
	})
	if l.cfg.RecordProvenance {
		l.insertLoadError(arr.Table, line, cause)
	}
}

// maybeCommit enforces the CommitEveryBatches policy.  These commits are
// pipelined: the transaction's commit is started, the next transaction begins
// and fills while the log device makes the marker durable, and the commit is
// retired — only then acknowledged and counted — when the next one starts.
// Without a durable log there is nothing to wait for and each is an ordinary
// commit (sqlbatch.Conn.CommitStart).
func (l *Loader) maybeCommit() error {
	if l.cfg.CommitEveryBatches <= 0 {
		return nil
	}
	l.batchesSinceCommit++
	if l.batchesSinceCommit < l.cfg.CommitEveryBatches {
		return nil
	}
	if err := l.committed(l.conn.CommitStart()); err != nil {
		return err
	}
	return l.conn.Begin()
}

// commit commits the current transaction if one is active and waits for it:
// when LoadFile returns, the file is on disk.
func (l *Loader) commit() error {
	if !l.conn.InTransaction() {
		return nil
	}
	return l.committed(l.conn.Commit())
}

// committed accounts for a commit call on the connection that returned err.
func (l *Loader) committed(err error) error {
	if err != nil {
		return fmt.Errorf("core: commit: %w", err)
	}
	l.stats.Commits = int(l.conn.Stats().Commits - l.connCommits)
	l.batchesSinceCommit = 0
	return nil
}

// insertLoadRun records provenance for the file being loaded.
func (l *Loader) insertLoadRun(f *catalog.File) error {
	l.nextLoadRunID++
	stmt := l.conn.Prepare(catalog.TLoadRuns,
		[]string{"load_run_id", "source_file", "loader_node", "rows_loaded", "rows_skipped"})
	_, err := stmt.ExecuteSingle([]relstore.Value{
		relstore.Int(l.nextLoadRunID), relstore.Str(f.Name), relstore.Int(int64(l.cfg.LoaderNode)),
		relstore.Null, relstore.Null})
	if err != nil {
		return err
	}
	return nil
}

// insertLoadError records provenance for a skipped row; provenance failures
// are not fatal to the load.
func (l *Loader) insertLoadError(table string, line int, cause error) {
	l.nextLoadErrID++
	reason := cause.Error()
	if len(reason) > 200 {
		reason = reason[:200]
	}
	stmt := l.conn.Prepare(catalog.TLoadErrors,
		[]string{"load_error_id", "load_run_id", "line_number", "target_table", "reason"})
	_, _ = stmt.ExecuteSingle([]relstore.Value{
		relstore.Int(l.nextLoadErrID), relstore.Int(l.nextLoadRunID), relstore.Int(int64(line)),
		relstore.Str(table), relstore.Str(reason)})
}
