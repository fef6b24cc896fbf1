package relstore

// OpReport describes the physical work performed by a storage-engine
// operation.  The engine itself is time-free; the sqlbatch server converts
// these counts into virtual service time on the simulated server's CPU, data
// disk, index disk and redo-log disk (the redo volume it derives from
// RowBytes and IndexEntryBytes), which is how the paper's runtime curves are
// regenerated without the original Oracle/Altix/SAN hardware.
type OpReport struct {
	// RowsInserted is the number of rows durably added.
	RowsInserted int
	// RowBytes is the total size of the inserted rows.
	RowBytes int
	// PagesDirtied counts heap pages newly written or modified.
	PagesDirtied int
	// FreshPages counts heap pages the inserts opened.
	FreshPages int
	// FirstPage and LastPage are the heap pages of the first and the last
	// row inserted, in the one table an insert call writes; they are valid
	// when RowsInserted > 0.  The sqlbatch server touches the pages between
	// them in its model of the data cache.
	FirstPage, LastPage int
	// IndexNodesVisited counts B-tree nodes touched across all maintained
	// secondary indexes.
	IndexNodesVisited int
	// IndexIntColNodeVisits counts node visits weighted by the number of
	// integer key columns in the index (one unit per integer column per
	// node visited).  Together with IndexFloatColNodeVisits it lets the
	// cost model charge differently for the single-integer htmid index and
	// the composite three-float index of Figure 8.
	IndexIntColNodeVisits int
	// IndexFloatColNodeVisits counts node visits weighted by the number of
	// float key columns in the index.
	IndexFloatColNodeVisits int
	// IndexSplits counts B-tree node splits across all maintained indexes.
	IndexSplits int
	// IndexEntryBytes is the volume of index entries written.
	IndexEntryBytes int
	// ConstraintChecks counts individual constraint evaluations (PK, FK,
	// unique, check, not-null).
	ConstraintChecks int
	// FKLookups counts parent-table primary-key probes.
	FKLookups int
	// UndoRecords counts undo entries appended for the owning transaction.
	UndoRecords int
}

// Add accumulates another report, of work done after r's, into r: the
// counts are summed and the page range extends to o's last page.
func (r *OpReport) Add(o OpReport) {
	if o.RowsInserted > 0 {
		if r.RowsInserted == 0 {
			r.FirstPage = o.FirstPage
		}
		r.LastPage = o.LastPage
	}
	r.RowsInserted += o.RowsInserted
	r.RowBytes += o.RowBytes
	r.PagesDirtied += o.PagesDirtied
	r.FreshPages += o.FreshPages
	r.IndexNodesVisited += o.IndexNodesVisited
	r.IndexIntColNodeVisits += o.IndexIntColNodeVisits
	r.IndexFloatColNodeVisits += o.IndexFloatColNodeVisits
	r.IndexSplits += o.IndexSplits
	r.IndexEntryBytes += o.IndexEntryBytes
	r.ConstraintChecks += o.ConstraintChecks
	r.FKLookups += o.FKLookups
	r.UndoRecords += o.UndoRecords
}

// DBStats aggregates engine-wide counters since database creation.  It has
// no log volume: the redo bytes §4.5.2 prices are the sqlbatch server's
// model, and the durable log's bytes are in WALStats.
type DBStats struct {
	RowsInserted         int64
	RowsRejected         int64
	Transactions         int64
	Commits              int64
	Rollbacks            int64
	ConstraintViolations map[ConstraintKind]int64
	PagesAllocated       int64
	IndexSplits          int64
	// BatchYields counts the times an InsertBatch closed its run early and
	// released the table because a reader was waiting on it; 0 means every
	// batch was one lock hold.
	BatchYields int64
	// IndexesCreated/IndexesDropped count successful index DDL operations;
	// IndexDDLFailures counts failed ones (unknown table/column, duplicate or
	// missing index).  CreateIndexWith and DropIndex update them
	// symmetrically.
	IndexesCreated   int64
	IndexesDropped   int64
	IndexDDLFailures int64
	// IndexKeyBytes is the summed length of the encoded keys stored across
	// every secondary-index B-tree; IndexArenaBytes is the bytes their nodes
	// reserve for keys.  The difference is the room nodes below capacity keep
	// for later inserts — the fill figure behind
	// relstore.index_arena_bytes_per_key_byte in bench/README.md.
	IndexKeyBytes   int64
	IndexArenaBytes int64
}
