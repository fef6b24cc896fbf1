package relstore

import "sort"

// IndexStat is the per-index slice of a StatsSnapshot: the key memory
// accounting DBStats aggregates, broken out by index, what the whole B-tree
// holds, and the readiness the health probe gates on.
type IndexStat struct {
	Table, Name string
	Unique      bool
	// Ready mirrors Index.Ready: false for a deferred-policy index between
	// BeginLoad and Seal.
	Ready bool
	// KeyBytes is the summed length of the encoded keys the index stores;
	// ArenaBytes the capacity its nodes reserve for keys (see DBStats).
	KeyBytes, ArenaBytes int64
	// ResidentBytes is the memory the index's B-tree holds (see
	// BTree.ResidentBytes); ArenaBytes is part of it.
	ResidentBytes int64
}

// TableStat is the per-table slice of a StatsSnapshot: what the table stores
// and the memory it holds to store it.
type TableStat struct {
	Name string
	// Rows is the live row count and NominalBytes the nominal stored volume
	// (the sum of RowSize over live rows — the figure page fill and the cost
	// model use).
	Rows, NominalBytes int64
	// ResidentBytes is the memory the table holds for its rows, counted where
	// it is held: heap page data, slot directories and the layouts of closed
	// pages that carry their own, at their allocated capacity; the row
	// directory; and the slots of the primary-key and unique hash indexes.
	// Secondary B-tree indexes report their own memory in IndexStat.
	ResidentBytes int64
	// KeyIndexBytes is the hash indexes' share of ResidentBytes.
	KeyIndexBytes int64
	// RowDirBytes is the row directory's share of ResidentBytes and RowDirRuns
	// the id runs it holds (one per page unless replay stored ids out of order).
	RowDirBytes int64
	RowDirRuns  int
}

// StatsSnapshot is the one-call statistics surface of a database: engine
// counters, redo-log counters and per-table and per-index memory in a single
// struct, taken as close together as the component locks allow.  Exporters
// and reports consume this instead of reaching into DB.Stats() and
// WAL().Stats() separately — one accessor, one point in time, no
// partially-updated pairs when the caller formats them side by side.
// (Cross-component consistency is still best-effort: each component
// snapshots under its own lock, the same contract the individual accessors
// offered.)
type StatsSnapshot struct {
	DB      DBStats
	WAL     WALStats
	Indexes []IndexStat
	// Tables reports every table in schema declaration order.
	Tables []TableStat
	// TotalRows is the live row count summed over all tables.
	TotalRows int64
	// Loading reports whether the database is inside a BeginLoad/Seal window
	// (deferred indexes suspended).
	Loading bool
}

// StatsSnapshot captures the unified statistics snapshot.  Indexes are
// ordered by table name then index name, so successive scrapes expose
// series in a stable order.
func (db *DB) StatsSnapshot() StatsSnapshot {
	out := StatsSnapshot{
		DB:        db.Stats(),
		WAL:       db.wal.Stats(),
		TotalRows: db.TotalRows(),
		Loading:   db.loading.Load(),
	}
	for _, t := range db.tablesByID {
		out.Tables = append(out.Tables, t.stat())
	}
	names := db.schema.TableNames()
	sort.Strings(names)
	for _, name := range names {
		out.Indexes = db.tables[name].appendIndexStats(out.Indexes)
	}
	return out
}

// Ready reports whether every index in the database is ready to answer
// queries (no deferred index suspended by an open load phase), no load
// phase is open, and recovery replay (StartRecover) has finished — the
// condition the HTTP front door's readiness probe checks before admitting
// traffic that expects indexed latency.
func (db *DB) Ready() bool {
	if db.recovering.Load() {
		return false
	}
	if db.loading.Load() {
		return false
	}
	for _, t := range db.tables {
		t.rlock()
		for _, ix := range t.indexList {
			if !ix.Ready() {
				t.mu.RUnlock()
				return false
			}
		}
		t.mu.RUnlock()
	}
	return true
}
