// Package baseline implements the comparison loaders the paper's evaluation
// is measured against: the non-bulk (singleton insert) loader of Figure 4 and
// an SDSS-style two-phase loader (§6 discussion).
package baseline

import (
	"fmt"

	"skyloader/internal/catalog"
	"skyloader/internal/core"
	"skyloader/internal/sqlbatch"
)

// NonBulkConfig controls the singleton-insert loader.
type NonBulkConfig struct {
	// CommitEveryRows commits after every N rows; 0 commits at end of file.
	CommitEveryRows int
	// ChargeStaging charges mass-storage staging time per file.
	ChargeStaging bool
	// LoaderNode identifies the loader for statistics.
	LoaderNode int
}

// NonBulkLoader loads catalog files with one database call per row — the
// "series of individual SQL insert statements" baseline of §5.1.  Because the
// catalog files are presorted parent-before-child, row-at-a-time insertion in
// file order respects the foreign keys without any buffering.
//
// This loader must never be routed through the batch-apply path
// (Txn.InsertBatch or Stmt.ExecuteBatchRows): it exists to measure what
// loading costs WITHOUT batch amortization, so every row keeps paying its own
// database call, table-lock round trip, WAL append and index descent.
// Quietly batching it would make the Figure 4 bulk-vs-non-bulk comparison
// dishonest in wall-clock mode.
type NonBulkLoader struct {
	conn  *sqlbatch.Conn
	cfg   NonBulkConfig
	cost  sqlbatch.CostModel
	xform *catalog.Transformer

	stats core.Stats

	rowsSinceCommit int
	currentFile     string
}

// NewNonBulkLoader creates a non-bulk loader over an open connection.
func NewNonBulkLoader(conn *sqlbatch.Conn, cfg NonBulkConfig) *NonBulkLoader {
	l := &NonBulkLoader{
		conn:  conn,
		cfg:   cfg,
		cost:  conn.Server().Cost(),
		xform: catalog.NewTransformer(conn.Server().DB().Schema()),
	}
	l.stats.RowsLoadedByTable = make(map[string]int)
	l.stats.SkippedByTable = make(map[string]int)
	return l
}

// Stats returns the accumulated statistics.
func (l *NonBulkLoader) Stats() core.Stats { return l.stats }

// LoadFiles loads the files sequentially.
func (l *NonBulkLoader) LoadFiles(files []*catalog.File) (core.Stats, error) {
	start := l.conn.Worker().Now()
	for _, f := range files {
		if err := l.LoadFile(f); err != nil {
			return l.stats, err
		}
	}
	l.stats.Elapsed = l.conn.Worker().Now() - start
	return l.stats, nil
}

// LoadFile loads one catalog file row by row.
func (l *NonBulkLoader) LoadFile(f *catalog.File) error {
	fileStart := l.conn.Worker().Now()
	l.currentFile = f.Name
	l.stats.Files++
	l.stats.NominalBytes += f.NominalBytes
	if l.cfg.ChargeStaging {
		l.conn.ChargeClientCPU(l.cost.StagingTime(f.NominalBytes))
	}
	if !l.conn.InTransaction() {
		if err := l.conn.Begin(); err != nil {
			return fmt.Errorf("baseline: begin transaction: %w", err)
		}
	}
	for _, rec := range f.Records {
		l.stats.RowsRead++
		l.conn.ChargeClientCPU(l.cost.ParseRowCost + l.cost.TransformRowCost)
		row, err := l.xform.Transform(rec)
		if err != nil {
			l.stats.ParseErrors++
			continue
		}
		stmt := l.conn.Prepare(row.Table, row.Columns)
		res, err := stmt.ExecuteSingle(row.Values)
		if err != nil {
			return fmt.Errorf("baseline: insert into %s: %w", row.Table, err)
		}
		l.stats.DBCalls++
		l.stats.LockWaits += res.LockWaits
		l.stats.LongStalls += res.LongStalls
		if res.Err != nil {
			l.stats.RowsSkipped++
			l.stats.SkippedByTable[row.Table]++
			l.stats.Skipped = append(l.stats.Skipped, core.SkippedRow{
				Table: row.Table, SourceLine: rec.Line, File: f.Name, Reason: res.Err.Error()})
		} else {
			l.stats.RowsLoaded++
			l.stats.RowsLoadedByTable[row.Table]++
		}
		if err := l.maybeCommit(); err != nil {
			return err
		}
	}
	if err := l.commit(); err != nil {
		return err
	}
	if d := l.conn.Worker().Now() - fileStart; d > l.stats.Elapsed {
		l.stats.Elapsed = d
	}
	return nil
}

func (l *NonBulkLoader) maybeCommit() error {
	if l.cfg.CommitEveryRows <= 0 {
		return nil
	}
	l.rowsSinceCommit++
	if l.rowsSinceCommit < l.cfg.CommitEveryRows {
		return nil
	}
	if err := l.commit(); err != nil {
		return err
	}
	return l.conn.Begin()
}

func (l *NonBulkLoader) commit() error {
	if !l.conn.InTransaction() {
		return nil
	}
	if err := l.conn.Commit(); err != nil {
		return err
	}
	l.stats.Commits++
	l.rowsSinceCommit = 0
	return nil
}
