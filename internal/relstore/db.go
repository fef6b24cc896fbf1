package relstore

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Config controls engine-level knobs that the paper tunes in §4.5.
type Config struct {
	// MaxConcurrentTxns is the concurrent-transaction limit (the Oracle
	// interested-transaction-list analogue); 0 means unlimited.  Exceeding it
	// is what produces lock waits at high parallelism (§5.4).
	MaxConcurrentTxns int
	// BTreeDegree is the minimum degree of secondary-index B-trees.
	BTreeDegree int
	// WALDir, when non-empty, makes the WAL durable: records are persisted to
	// segmented log files under this directory and syncs are real fsyncs.
	// Empty (the default) means no log at all.  See WithWALDir.
	WALDir string
	// CheckpointEveryBytes triggers an automatic checkpoint after roughly this
	// many durable log bytes; 0 disables.  See WithCheckpointEvery.
	CheckpointEveryBytes int64
	// WALSegmentBytes is the durable log segment size; 0 uses 4 MiB.  See
	// WithWALSegmentBytes.
	WALSegmentBytes int64
}

// DefaultConfig mirrors the production repository's loading configuration.
func DefaultConfig() Config {
	return Config{
		MaxConcurrentTxns: 24,
		BTreeDegree:       32,
	}
}

// DB is an embedded relational database instance.
//
// Concurrency: the engine is safe for concurrent transactions on separate
// goroutines.  The table set is immutable after Open; each Table carries its
// own lock, the lock manager and the durable log carry theirs, and the
// engine-wide counters are atomics, so writers to different tables proceed in
// parallel and writers to the same table serialize only for the in-memory
// critical section of the row store.
type DB struct {
	schema *Schema
	cfg    Config
	// indexPolicy is the default maintenance policy applied by CreateIndex
	// (see WithIndexPolicy); individual indexes may override it.
	indexPolicy IndexPolicy

	tables map[string]*Table
	locks  *LockManager
	wal    *WAL

	// loading marks the window between BeginLoad and Seal, during which
	// deferred-policy indexes are suspended.  Tables read it when an index is
	// created mid-load (see Table.createIndex).
	loading atomic.Bool

	// recovering marks a database still replaying its durable log (between
	// StartRecover and the replay's completion).  Ready() is false and Begin
	// refuses transactions while it is set.
	recovering atomic.Bool

	// tablesByID indexes tables by their stable numeric id (schema declaration
	// order) — the table id the durable WAL records carry.
	tablesByID []*Table

	// ckptMu serializes checkpoints; ckptSeq (guarded by it) is the sequence
	// number of the latest completed checkpoint.
	ckptMu  sync.Mutex
	ckptSeq int64

	// faultHook is the test-only fault-injection hook (WithFaultHook), shared
	// with the durable device and invoked on the replay path.
	faultHook FaultHook

	nextTxn  atomic.Int64
	counters dbCounters

	// scratchPool recycles the per-transaction key/encoding scratch buffers
	// (see scratch.go) so the insert path stays allocation-lean across
	// transactions.
	scratchPool sync.Pool
}

// dbCounters is the engine-wide statistics, kept as atomics (plus one small
// mutex-guarded map) so concurrent writers never contend on a stats lock.
type dbCounters struct {
	rowsInserted atomic.Int64
	rowsRejected atomic.Int64
	transactions atomic.Int64
	commits      atomic.Int64
	rollbacks    atomic.Int64
	indexSplits  atomic.Int64
	batchYields  atomic.Int64

	indexesCreated atomic.Int64
	indexesDropped atomic.Int64
	indexDDLFailed atomic.Int64

	violMu     sync.Mutex
	violations map[ConstraintKind]int64
}

// open builds the database from a resolved option set.
func open(schema *Schema, oc openConfig) (*DB, error) {
	if schema == nil {
		return nil, fmt.Errorf("relstore: nil schema")
	}
	cfg := oc.cfg
	if cfg.BTreeDegree <= 0 {
		cfg.BTreeDegree = DefaultConfig().BTreeDegree
	}
	db := &DB{
		schema:      schema,
		cfg:         cfg,
		indexPolicy: oc.indexPolicy,
		tables:      make(map[string]*Table, schema.NumTables()),
		locks:       NewLockManager(cfg.MaxConcurrentTxns),
		wal:         new(WAL),
	}
	db.counters.violations = make(map[ConstraintKind]int64)
	db.scratchPool.New = func() any { return new(scratch) }
	db.faultHook = oc.faultHook
	for i, ts := range schema.Tables() {
		t, err := newTable(ts, cfg.BTreeDegree, &db.loading)
		if err != nil {
			return nil, err
		}
		// Table ids follow schema declaration order, which is stable for a
		// given schema — the identity durable WAL records persist.
		t.tid = uint32(i)
		db.tables[ts.Name] = t
		db.tablesByID = append(db.tablesByID, t)
	}
	if cfg.WALDir != "" && !oc.recovering {
		dev, err := openWALDevice(cfg.WALDir, cfg.WALSegmentBytes, oc.faultHook)
		if err != nil {
			return nil, err
		}
		db.wal.dev.Store(dev)
	}
	return db, nil
}

// Close flushes and closes the durable log device, if any.  It does not wait
// for open transactions; in-memory state remains usable but no further
// durable appends may happen.  A nil error is returned for a database with no
// durable log, and a device that failed earlier returns that failure.
func (db *DB) Close() error {
	dev := db.wal.dev.Load()
	if dev == nil {
		return nil
	}
	return dev.close()
}

// Schema returns the database schema.
func (db *DB) Schema() *Schema { return db.schema }

// Config returns the engine configuration.
func (db *DB) Config() Config { return db.cfg }

// Table returns the named table, or nil.
func (db *DB) Table(name string) *Table { return db.tables[name] }

// WAL returns the redo log.
func (db *DB) WAL() *WAL { return db.wal }

// Stats returns a snapshot of the engine-wide counters.  Derived quantities
// (pages allocated, index bytes) are computed at snapshot time from their
// owning components rather than being re-derived on every insert.
func (db *DB) Stats() DBStats {
	out := DBStats{
		RowsInserted:     db.counters.rowsInserted.Load(),
		RowsRejected:     db.counters.rowsRejected.Load(),
		Transactions:     db.counters.transactions.Load(),
		Commits:          db.counters.commits.Load(),
		Rollbacks:        db.counters.rollbacks.Load(),
		IndexSplits:      db.counters.indexSplits.Load(),
		BatchYields:      db.counters.batchYields.Load(),
		IndexesCreated:   db.counters.indexesCreated.Load(),
		IndexesDropped:   db.counters.indexesDropped.Load(),
		IndexDDLFailures: db.counters.indexDDLFailed.Load(),
		PagesAllocated:   db.pagesAllocated(),
	}
	db.counters.violMu.Lock()
	out.ConstraintViolations = make(map[ConstraintKind]int64, len(db.counters.violations))
	for k, v := range db.counters.violations {
		out.ConstraintViolations[k] = v
	}
	db.counters.violMu.Unlock()
	for _, t := range db.tables {
		t.rlock()
		for _, ix := range t.indexList {
			out.IndexKeyBytes += int64(ix.tree.KeyBytes())
			out.IndexArenaBytes += int64(ix.tree.ArenaBytes())
		}
		t.mu.RUnlock()
	}
	return out
}

// TotalRows returns the number of live rows summed over all tables.
func (db *DB) TotalRows() int64 {
	var n int64
	for _, t := range db.tables {
		n += t.RowCount()
	}
	return n
}

// RowCounts returns a map of table name to live row count.
func (db *DB) RowCounts() map[string]int64 {
	out := make(map[string]int64, len(db.tables))
	for name, t := range db.tables {
		out[name] = t.RowCount()
	}
	return out
}

// checkForeignKeys verifies every foreign key of the row; NULL components are
// treated as satisfied (SQL MATCH SIMPLE semantics).  The caller holds every
// parent: a read lock on each distinct parent table, taken once with
// lockParentsForBatch, and its own lock for a self-referential one.  Like the
// production system's deferred constraint checking, a parent row rolled back
// between the probe and the child's commit is caught by VerifyIntegrity, not
// here.
func (db *DB) checkForeignKeys(sc *scratch, t *Table, row Row, rep *OpReport) error {
	ts := t.schema
	for fi := range ts.ForeignKeys {
		fk := &ts.ForeignKeys[fi]
		rep.ConstraintChecks++
		key := sc.fkKey(len(fk.Columns))
		null := false
		for i, c := range t.fkColIdxs[fi] {
			v := row[c]
			if v.IsNull() {
				null = true
				break
			}
			key[i] = v
		}
		if null {
			continue
		}
		parent := db.tables[fk.RefTable]
		rep.FKLookups++
		if parent == nil || !parent.lookupPK(key) {
			return &ConstraintError{Kind: KindForeignKey, Table: ts.Name, Constraint: fk.Name,
				Detail: fmt.Sprintf("no parent row in %q for key %s", fk.RefTable, EncodeKey(key))}
		}
	}
	return nil
}

func (db *DB) recordViolation(err error) {
	db.counters.rowsRejected.Add(1)
	if kind, ok := ViolationKind(err); ok {
		db.recordViolationKind(kind)
	}
}

func (db *DB) recordViolationKind(kind ConstraintKind) {
	db.counters.violMu.Lock()
	db.counters.violations[kind]++
	db.counters.violMu.Unlock()
}

func (db *DB) pagesAllocated() int64 {
	var n int64
	for _, t := range db.tables {
		n += int64(t.PageCount())
	}
	return n
}

// CreateIndex builds a secondary index on the named table under the
// database's default maintenance policy (see WithIndexPolicy).
func (db *DB) CreateIndex(table, name string, columns []string, unique bool) (*Index, error) {
	return db.CreateIndexWith(table, name, columns, unique, db.indexPolicy)
}

// CreateIndexWith builds a secondary index with an explicit maintenance
// policy, overriding the database default.  A deferred-policy index created
// during a load phase (between BeginLoad and Seal) starts suspended and is
// populated by Seal; otherwise it is backfilled immediately.
//
// Both CreateIndexWith and DropIndex update DBStats symmetrically: successes
// bump IndexesCreated/IndexesDropped, every error path bumps
// IndexDDLFailures, and both return typed errors (ErrNoSuchTable,
// ErrIndexExists, ErrNoSuchIndex, ErrNoSuchColumn).
func (db *DB) CreateIndexWith(table, name string, columns []string, unique bool, policy IndexPolicy) (*Index, error) {
	t, ok := db.tables[table]
	if !ok {
		db.counters.indexDDLFailed.Add(1)
		db.recordViolationKind(KindUnknownTable)
		return nil, ErrNoSuchTable
	}
	ix, err := t.createIndex(name, columns, unique, policy)
	if err != nil {
		db.counters.indexDDLFailed.Add(1)
		return nil, err
	}
	db.counters.indexesCreated.Add(1)
	return ix, nil
}

// DropIndex removes a secondary index from the named table.  Its error paths
// record the same statistics as CreateIndexWith's (see there).
func (db *DB) DropIndex(table, name string) error {
	t, ok := db.tables[table]
	if !ok {
		db.counters.indexDDLFailed.Add(1)
		db.recordViolationKind(KindUnknownTable)
		return ErrNoSuchTable
	}
	if err := t.dropIndex(name); err != nil {
		db.counters.indexDDLFailed.Add(1)
		return err
	}
	db.counters.indexesDropped.Add(1)
	return nil
}

// IndexPolicyDefault returns the database's default index maintenance policy.
func (db *DB) IndexPolicyDefault() IndexPolicy { return db.indexPolicy }

// AllIndexes lists every secondary index in the database, sorted by table
// then index name.
func (db *DB) AllIndexes() []*Index {
	var out []*Index
	for _, name := range db.schema.TableNames() {
		out = append(out, db.tables[name].Indexes()...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Table != out[j].Table {
			return out[i].Table < out[j].Table
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// PrePopulate marks the named table as already holding rows/bytes from
// earlier loading sessions.  It is used by the Figure 9 experiment (effect of
// database size) to set up 50-300 GB databases without materializing them;
// the insert path with secondary indices disabled does not depend on resident
// volume, which is exactly the behaviour the paper reports.
func (db *DB) PrePopulate(table string, rows, bytes int64) error {
	t, ok := db.tables[table]
	if !ok {
		return ErrNoSuchTable
	}
	t.prePopulate(rows, bytes)
	return nil
}

// PrePopulateEvenly spreads the given volume across all tables proportionally
// to a fixed catalog-like distribution (objects dominate).
func (db *DB) PrePopulateEvenly(totalBytes int64) {
	names := db.schema.TableNames()
	if len(names) == 0 {
		return
	}
	per := totalBytes / int64(len(names))
	for _, n := range names {
		// Assume ~200 bytes per historical row.
		_ = db.PrePopulate(n, per/200, per)
	}
}
