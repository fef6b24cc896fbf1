// Package sqlbatch provides a JDBC-like batch loading API on top of the
// relstore engine and the discrete-event simulation kernel.
//
// The SkyLoader clients were Java programs speaking JDBC to an Oracle 10g
// server over Gigabit Ethernet.  This package reproduces the interface that
// matters to the loading algorithm — prepared statements, AddBatch,
// ExecuteBatch with stop-at-first-error semantics, explicit commit — and
// charges virtual time for the network round trips, server CPU, disk and log
// I/O, and lock waits that each call would have cost on the paper's hardware.
package sqlbatch

import (
	"time"

	"skyloader/internal/relstore"
)

// CostModel holds the virtual-time prices of the physical work reported by
// the engine plus the client-side costs of the loading pipeline.  The default
// values are calibrated (see internal/experiments) so that the shapes of the
// paper's Figures 4-9 are reproduced; EXPERIMENTS.md documents the calibration.
type CostModel struct {
	// --- client <-> server call costs -----------------------------------

	// CallOverhead is the fixed cost of one database call: network round
	// trip, statement dispatch and server-side call setup.  Its ratio to
	// RowServerCost determines the bulk-loading speedup (paper: 7-9x at
	// batch-size 40).
	CallOverhead time.Duration
	// NetworkBytesPerSecond is the usable bandwidth between the cluster
	// nodes and the database server (Gigabit Ethernet in the paper).
	NetworkBytesPerSecond float64

	// --- server-side per-row costs ---------------------------------------

	// RowServerCost is the CPU cost of processing one inserted row
	// (parsing the bound values, constraint checks, heap insert).
	RowServerCost time.Duration
	// ConstraintCheckCost is charged per individual constraint evaluation.
	ConstraintCheckCost time.Duration
	// FKLookupCost is charged per parent-key probe.
	FKLookupCost time.Duration
	// BatchRowScalingCost is an additional per-row cost proportional to the
	// batch size (lock-hold growth, large statement parsing, undo pressure).
	// It is what makes very large batches slower and produces the optimum
	// near batch-size 40-50 in Figure 5.
	BatchRowScalingCost time.Duration
	// ErrorHandlingCost is the server-side cost of raising and reporting a
	// constraint violation for one row.
	ErrorHandlingCost time.Duration

	// --- I/O costs --------------------------------------------------------

	// PageWriteCost is charged per dirtied heap page (data RAID device).
	PageWriteCost time.Duration
	// IndexNodeCost is charged per B-tree node visited during index
	// maintenance (index RAID device).
	IndexNodeCost time.Duration
	// IndexIntColCost is charged per integer key column per B-tree node
	// visited; with IndexFloatColCost it reproduces the paper's Figure 8
	// finding that a single-integer index costs ~1.5% while a composite
	// three-float index costs ~8.5% during loading.
	IndexIntColCost time.Duration
	// IndexFloatColCost is charged per float key column per B-tree node
	// visited.
	IndexFloatColCost time.Duration
	// IndexSplitCost is charged per B-tree node split.
	IndexSplitCost time.Duration
	// IndexBuildRowCost is charged per (row, index) pair streamed into an
	// end-of-load bulk index build (DB.Seal with the deferred policy): the
	// key extraction, sort share and sequential leaf append for one row.  It
	// prices the rebuild-after-load half of Figure 8's drop-and-rebuild
	// lever; the per-node charges below reuse the same int/float column cost
	// classes as immediate maintenance, so the DES prediction and the
	// wall-clock engine answer the same question.  Bulk building touches
	// each node once total instead of O(height) nodes per row, which is why
	// deferred loading wins.
	IndexBuildRowCost time.Duration
	// LogBytesPerSecond is the sequential redo-log write bandwidth.
	LogBytesPerSecond float64
	// CacheScanCostPerPage is the database-writer cost of examining one
	// cached page during a flush (drives the §4.5.5 small-cache effect).
	CacheScanCostPerPage time.Duration

	// --- transaction costs ------------------------------------------------

	// CommitCost is the fixed cost of a commit (log force, cleanout).
	CommitCost time.Duration

	// --- lock contention (drives Figure 7) --------------------------------

	// LockConflictProbPerWriter is the probability that a batch insert hits
	// a lock conflict for each *other* transaction concurrently writing.
	LockConflictProbPerWriter float64
	// LockWaitCost is the wait incurred by a lock conflict per other active
	// writer (the conflicting batch queues behind the transactions already
	// holding locks, so waits lengthen as parallelism grows).
	LockWaitCost time.Duration
	// StallThreshold is the number of concurrently active load transactions
	// above which rare long stalls become possible (the paper saw these at
	// 6+ loaders and ran 5 in production).
	StallThreshold int
	// StallProb is the per-batch probability of a long stall for each
	// active loader beyond StallThreshold.
	StallProb float64
	// StallCost is the duration of a long stall.
	StallCost time.Duration

	// --- client-side costs (loader process on a cluster node) -------------

	// ParseRowCost is the client CPU cost of parsing one catalog row.
	ParseRowCost time.Duration
	// TransformRowCost is the client CPU cost of validation, type
	// conversion, precision adjustment, and htmid/sky-coordinate
	// computation for one row.
	TransformRowCost time.Duration
	// BufferRowCost is the client cost of appending one row to an array of
	// the array-set.
	BufferRowCost time.Duration
	// ArrayInitCost is the client cost of allocating/initializing one array
	// in the array-set at the start of a buffering cycle.
	ArrayInitCost time.Duration
	// BufferedRowOverheadBytes is the client-side memory overhead per
	// buffered row beyond its raw data size (JVM object headers, boxing,
	// array slack in the original implementation).
	BufferedRowOverheadBytes int
	// ClientMemoryBytes is the memory available to the loader process for
	// the array-set before paging sets in (the cluster nodes had 1 GB RAM;
	// the memory available to the array-set was far smaller).
	ClientMemoryBytes int64
	// PagingPenaltyPerRow is the extra client time charged per buffered row
	// multiplied by the fractional overshoot of the array-set memory over
	// ClientMemoryBytes (models the paging-rate increase that erases the
	// benefit of arrays larger than ~1000 rows in Figure 6).
	PagingPenaltyPerRow time.Duration

	// --- input staging -----------------------------------------------------

	// MassStorageBytesPerSecond is the rate at which catalog files can be
	// staged from the mass storage system to a loader node.
	MassStorageBytesPerSecond float64
}

// DefaultCostModel returns the calibrated cost model used by the experiment
// harness.  See EXPERIMENTS.md for how each constant maps onto the paper's
// figures.
func DefaultCostModel() CostModel {
	return CostModel{
		CallOverhead:          110 * time.Millisecond,
		NetworkBytesPerSecond: 90e6,

		RowServerCost:       7 * time.Millisecond,
		ConstraintCheckCost: 120 * time.Microsecond,
		FKLookupCost:        250 * time.Microsecond,
		BatchRowScalingCost: 42 * time.Microsecond,
		ErrorHandlingCost:   25 * time.Millisecond,

		PageWriteCost:        900 * time.Microsecond,
		IndexNodeCost:        25 * time.Microsecond,
		IndexIntColCost:      560 * time.Microsecond,
		IndexFloatColCost:    1100 * time.Microsecond,
		IndexSplitCost:       1200 * time.Microsecond,
		IndexBuildRowCost:    45 * time.Microsecond,
		LogBytesPerSecond:    45e6,
		CacheScanCostPerPage: 30 * time.Microsecond,

		CommitCost: 35 * time.Millisecond,

		LockConflictProbPerWriter: 0.022,
		LockWaitCost:              150 * time.Millisecond,
		StallThreshold:            6,
		StallProb:                 0.0015,
		StallCost:                 30 * time.Second,

		ParseRowCost:             350 * time.Microsecond,
		TransformRowCost:         650 * time.Microsecond,
		BufferRowCost:            90 * time.Microsecond,
		ArrayInitCost:            2 * time.Millisecond,
		BufferedRowOverheadBytes: 1900,
		ClientMemoryBytes:        4 << 20,
		PagingPenaltyPerRow:      25 * time.Millisecond,

		MassStorageBytesPerSecond: 60e6,
	}
}

// NetworkTime returns the transfer time for n bytes at the configured
// bandwidth.
func (m CostModel) NetworkTime(n int) time.Duration {
	if m.NetworkBytesPerSecond <= 0 {
		return 0
	}
	return time.Duration(float64(n) / m.NetworkBytesPerSecond * float64(time.Second))
}

// LogTime returns the time to write n redo-log bytes.
func (m CostModel) LogTime(n int) time.Duration {
	if m.LogBytesPerSecond <= 0 {
		return 0
	}
	return time.Duration(float64(n) / m.LogBytesPerSecond * float64(time.Second))
}

// The redo log the paper's database wrote, as the server models it for
// §4.5.2's commit-frequency trade-off: a per-row insert is one record, its row
// and index-entry bytes behind a header; a batch is one group record, the
// header once plus a slot per row; a commit appends a marker and forces
// everything appended since the previous commit.
const (
	redoRecordHeader = 28
	redoGroupSlot    = 4
	redoCommitMarker = 48
)

// redoRecord is the size of the redo record for one insert call that reported
// rep, with slots group slots: 0 in execBatch's per-row loop, one per row for
// a batch.
// A call that stored no row writes none — but one that stored its row and then
// failed on the durable log did write it.
func redoRecord(rep relstore.OpReport, slots int) int {
	if rep.RowsInserted == 0 {
		return 0
	}
	return rep.RowBytes + rep.IndexEntryBytes + redoRecordHeader + slots*redoGroupSlot
}

// StagingTime returns the time to stage n bytes from mass storage.
func (m CostModel) StagingTime(n int64) time.Duration {
	if m.MassStorageBytesPerSecond <= 0 {
		return 0
	}
	return time.Duration(float64(n) / m.MassStorageBytesPerSecond * float64(time.Second))
}
