package baseline

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"skyloader/internal/catalog"
	"skyloader/internal/core"
	"skyloader/internal/exec"
	"skyloader/internal/relstore"
	"skyloader/internal/sqlbatch"
)

// The SDSS-style loader's model constants, after the SDSS framework
// description in §6.
const (
	// publishBatchSize is the batch size used when publishing from the task
	// database to the repository.
	publishBatchSize = 40
	// taskDBMaxMB caps the nominal volume loaded into one task database
	// before it is published (SDSS used 20-30 GB task DBs; scaled here).
	taskDBMaxMB = 400
	// validationRowCost is the per-row cost of the separate validation pass
	// over the task database.
	validationRowCost = 500 * time.Microsecond
	// convertRowCost is the per-row cost of splitting the catalog file into
	// per-table CSV files before loading (the SDSS pre-conversion step).
	convertRowCost = 250 * time.Microsecond
)

// TwoPhaseLoader approximates the SDSS loading framework the paper compares
// against in §6: catalog data is first converted into per-table row sets,
// bulk-loaded into a Task database without cross-table constraints, fully
// validated there, and finally published table-by-table into the repository
// database.  The SkyLoader authors argue their single-pass approach avoids
// the intermediate database and the extra pass; this loader exists so that
// the claim can be examined quantitatively (ablation A5).
type TwoPhaseLoader struct {
	conn  *sqlbatch.Conn
	cost  sqlbatch.CostModel
	xform *catalog.Transformer
	// taskDBMaxMB is the package constant; tests lower it to force an
	// intermediate publish.
	taskDBMaxMB float64

	// task is the in-memory task database (one per loader), standing in for
	// the SQL Server task DBs of the SDSS cluster.
	taskSchema *relstore.Schema
	task       *relstore.DB

	stats core.Stats
}

// NewTwoPhaseLoader creates a two-phase loader over an open connection.
func NewTwoPhaseLoader(conn *sqlbatch.Conn) (*TwoPhaseLoader, error) {
	schema := conn.Server().DB().Schema()
	taskSchema, err := taskSchemaFrom(schema)
	if err != nil {
		return nil, err
	}
	task, err := relstore.Open(taskSchema)
	if err != nil {
		return nil, err
	}
	l := &TwoPhaseLoader{
		conn:        conn,
		cost:        conn.Server().Cost(),
		xform:       catalog.NewTransformer(schema),
		taskDBMaxMB: taskDBMaxMB,
		taskSchema:  taskSchema,
		task:        task,
	}
	l.stats.RowsLoadedByTable = make(map[string]int)
	l.stats.SkippedByTable = make(map[string]int)
	return l, nil
}

// taskSchemaFrom strips foreign keys and check constraints from the
// repository schema: the SDSS task databases defer cross-table validation to
// the explicit validation phase.
func taskSchemaFrom(schema *relstore.Schema) (*relstore.Schema, error) {
	var tables []*relstore.TableSchema
	for _, t := range schema.Tables() {
		clone := &relstore.TableSchema{
			Name:       t.Name,
			Columns:    append([]relstore.Column{}, t.Columns...),
			PrimaryKey: append([]string{}, t.PrimaryKey...),
		}
		tables = append(tables, clone)
	}
	return relstore.NewSchema(tables...)
}

// Stats returns the accumulated statistics.
func (l *TwoPhaseLoader) Stats() core.Stats { return l.stats }

// LoadFiles performs the full two-phase load of the given files.
func (l *TwoPhaseLoader) LoadFiles(files []*catalog.File) (core.Stats, error) {
	start := l.conn.Worker().Now()
	var pendingMB float64
	for _, f := range files {
		if err := l.loadIntoTask(f); err != nil {
			return l.stats, err
		}
		pendingMB += f.Spec.SizeMB
		if pendingMB >= l.taskDBMaxMB {
			if err := l.validateAndPublish(); err != nil {
				return l.stats, err
			}
			pendingMB = 0
		}
	}
	if err := l.validateAndPublish(); err != nil {
		return l.stats, err
	}
	l.stats.Elapsed = l.conn.Worker().Now() - start
	return l.stats, nil
}

// loadIntoTask is phase one: convert the catalog file into per-table row sets
// and bulk-load them into the task database (no cross-table constraints).
//
// Records destined for the same table arrive in contiguous runs, and each run
// is applied to the task database with one InsertBatch call instead of one
// Insert per row — the task phase is a bulk load by definition (SDSS used
// bcp-style bulk insertion into the task DBs), so it rides the batch-apply
// path.  The task engine charges no virtual time (only ChargeClientCPU does,
// per record, unchanged), and the resume-after-failure loop reproduces the
// skip-and-continue semantics of the previous per-row code exactly, so the
// published repository state and all §6/A5 figures are unaffected.  The
// NON-bulk baseline (nonbulk.go) deliberately keeps per-row calls.
func (l *TwoPhaseLoader) loadIntoTask(f *catalog.File) error {
	l.stats.Files++
	l.stats.NominalBytes += f.NominalBytes
	l.conn.ChargeClientCPU(l.cost.StagingTime(f.NominalBytes))
	txn, err := l.task.Begin()
	if err != nil {
		return fmt.Errorf("baseline: task db begin: %w", err)
	}
	var (
		runTable string
		runCols  []string
		runRows  [][]relstore.Value
	)
	flushRun := func() {
		if len(runRows) == 0 {
			return
		}
		l.taskInsertRun(txn, runTable, runCols, runRows)
		runRows = runRows[:0]
	}
	for _, rec := range f.Records {
		l.stats.RowsRead++
		// Conversion to per-table CSV plus parse/transform.
		l.conn.ChargeClientCPU(l.cost.ParseRowCost + l.cost.TransformRowCost + convertRowCost)
		row, xerr := l.xform.Transform(rec)
		if xerr != nil {
			l.stats.ParseErrors++
			continue
		}
		if row.Table != runTable || !slices.Equal(runCols, row.Columns) {
			flushRun()
			runTable, runCols = row.Table, row.Columns
		}
		runRows = append(runRows, row.Values)
	}
	flushRun()
	if _, err := txn.Commit(); err != nil {
		return fmt.Errorf("baseline: task db commit: %w", err)
	}
	return nil
}

// taskInsertRun batch-applies one contiguous same-table run of rows to the
// task database, skipping rejected rows and resuming after each (the
// task-phase analogue of index tracing).  Task-phase rejects — duplicate keys
// and the like — are counted as skips; cross-table problems surface in
// validation.
func (l *TwoPhaseLoader) taskInsertRun(txn *relstore.Txn, table string, cols []string, rows [][]relstore.Value) {
	idx := 0
	for idx < len(rows) {
		br, err := txn.InsertBatch(table, cols, rows[idx:])
		l.stats.RowsBuffered += br.RowsInserted
		if err == nil {
			return
		}
		l.stats.RowsSkipped++
		l.stats.SkippedByTable[table]++
		idx += br.FailedIndex + 1
	}
}

// validateAndPublish is phase two: run the validation pass over the task
// database and publish each table to the repository with ordered bulk
// inserts, then empty the task database.
func (l *TwoPhaseLoader) validateAndPublish() error {
	totalRows := l.task.TotalRows()
	if totalRows == 0 {
		return nil
	}
	// Validation pass: every task row is checked (costed on the client/task
	// node, since SDSS validation ran on the task DB server).
	l.conn.ChargeClientCPU(time.Duration(totalRows) * validationRowCost)

	if !l.conn.InTransaction() {
		if err := l.conn.Begin(); err != nil {
			return fmt.Errorf("baseline: begin publish transaction: %w", err)
		}
	}
	order, err := l.taskSchema.TopologicalOrder()
	if err != nil {
		return err
	}
	for _, table := range order {
		if err := l.publishTable(table); err != nil {
			return err
		}
	}
	if err := l.conn.Commit(); err != nil {
		return fmt.Errorf("baseline: publish commit: %w", err)
	}
	l.stats.Commits++

	// Re-create an empty task database for the next chunk.
	task, err := relstore.Open(l.taskSchema)
	if err != nil {
		return err
	}
	l.task = task
	return nil
}

// publishTable bulk-inserts one task table into the repository.
func (l *TwoPhaseLoader) publishTable(table string) error {
	ts := l.taskSchema.Table(table)
	cols := ts.ColumnNames()
	var rows []relstore.Row
	if err := l.task.Scan(table, func(r relstore.Row) bool {
		rows = append(rows, r)
		return true
	}); err != nil {
		return err
	}
	if len(rows) == 0 {
		return nil
	}
	// Publish in primary-key order, as the SDSS CSV files were ordered.
	pkIdx := ts.ColumnIndex(ts.PrimaryKey[0])
	sort.Slice(rows, func(i, j int) bool {
		return relstore.CompareValues(rows[i][pkIdx], rows[j][pkIdx]) < 0
	})
	// Publish with the same index-tracing recovery the SkyLoader batch_row
	// procedure uses: on a rejected row, skip it and resume from the row
	// after it.
	stmt := l.conn.Prepare(table, cols)
	idx := 0
	for idx < len(rows) {
		end := idx + publishBatchSize
		if end > len(rows) {
			end = len(rows)
		}
		for _, r := range rows[idx:end] {
			stmt.AddBatch(r)
		}
		res, err := stmt.ExecuteBatch()
		if err != nil {
			return fmt.Errorf("baseline: publish %s: %w", table, err)
		}
		l.stats.Batches++
		l.stats.DBCalls++
		l.stats.RowsLoaded += res.RowsInserted
		l.stats.RowsLoadedByTable[table] += res.RowsInserted
		if res.Err == nil {
			idx = end
			continue
		}
		l.stats.RowsSkipped++
		l.stats.SkippedByTable[table]++
		idx = idx + res.FailedIndex + 1
	}
	return nil
}

// Worker returns the loader's execution worker (for timing windows in tests).
func (l *TwoPhaseLoader) Worker() exec.Worker { return l.conn.Worker() }
