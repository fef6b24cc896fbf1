package sqlbatch

import (
	"errors"
	"fmt"
	"time"

	"skyloader/internal/exec"
	"skyloader/internal/relstore"
)

// ErrNoTransaction is returned when a statement executes without an active
// transaction on its connection.
var ErrNoTransaction = errors.New("sqlbatch: no active transaction")

// ErrBatchEmpty is returned when ExecuteBatch is called with an empty batch.
var ErrBatchEmpty = errors.New("sqlbatch: batch is empty")

// BatchResult describes the outcome of one ExecuteBatch call.
//
// Its semantics mirror the JDBC core API the paper used: rows are applied in
// order; at the first constraint violation the batch stops, the remaining
// rows are discarded, and the batch cannot be re-applied.  The caller learns
// the index of the failing row and is responsible for repacking and resending
// the remainder (which is exactly what the paper's batch_row procedure does).
type BatchResult struct {
	// RowsInserted is the number of rows applied before the failure (all of
	// them when Err is nil).
	RowsInserted int
	// FailedIndex is the zero-based index of the failing row, or -1.
	FailedIndex int
	// Err is the constraint violation that stopped the batch, or nil.
	Err error
	// LockWaits and LongStalls count contention events charged to the call.
	LockWaits  int
	LongStalls int
	// Report is the engine's physical-work report for the call.
	Report relstore.OpReport
}

// Conn is a loader connection bound to one execution worker: a simulation
// process in DES mode, a goroutine in wall-clock mode.  A Conn must only be
// used from its worker's goroutine; separate connections are independent and
// may run concurrently against the same server.
type Conn struct {
	server *Server
	worker exec.Worker
	txn    *relstore.Txn
	// pending is the one commit this connection has started and not yet
	// retired (CommitStart); nil otherwise.  forced is the redo it forces,
	// taken when it started and charged when it retires.
	pending *relstore.PendingCommit
	forced  int64
	closed  bool

	stats ConnStats
}

// ConnStats aggregates per-connection counters.
type ConnStats struct {
	Calls        int64
	RowsInserted int64
	RowsFailed   int64
	Batches      int64
	Commits      int64
	LockWaits    int64
	LongStalls   int64
}

// Worker returns the execution worker this connection belongs to.
func (c *Conn) Worker() exec.Worker { return c.worker }

// Server returns the server this connection talks to.
func (c *Conn) Server() *Server { return c.server }

// Stats returns the per-connection counters.
func (c *Conn) Stats() ConnStats { return c.stats }

// InTransaction reports whether the connection has an active transaction.
func (c *Conn) InTransaction() bool { return c.txn != nil && c.txn.Active() }

// Begin starts a transaction, waiting for a server transaction slot if the
// concurrent-transaction limit has been reached.
//
// A connection whose last commit is still pending (CommitStart) takes no
// second slot: a pending commit holds none of its own, the connection's slot
// passes to the transaction begun here, so N pipelining connections need N
// slots, not 2N, and cannot deadlock on them.
func (c *Conn) Begin() error {
	if c.closed {
		return fmt.Errorf("sqlbatch: connection closed")
	}
	if c.InTransaction() {
		return fmt.Errorf("sqlbatch: transaction already active")
	}
	var txn *relstore.Txn
	var err error
	if c.pending != nil {
		txn, err = c.server.db.Begin()
	} else {
		txn, err = c.server.begin(c.worker)
	}
	if err != nil {
		return err
	}
	c.txn = txn
	return nil
}

// Commit makes the current transaction durable: when it returns nil, this
// transaction and every one committed before it on the connection are
// acknowledged.
func (c *Conn) Commit() error {
	if !c.InTransaction() {
		return ErrNoTransaction
	}
	if err := c.Retire(); err != nil {
		return err
	}
	err := c.server.finish(c.worker, c.txn, true)
	c.txn = nil
	if err == nil {
		c.stats.Commits++
	}
	return err
}

// CommitStart commits the current transaction without waiting for the log:
// the commit is started (relstore.Txn.CommitStart) and the connection may
// Begin and fill its next transaction while the log device makes the marker
// durable.  Nothing is acknowledged until the commit retires — at the next
// CommitStart (a connection holds at most one pending commit, so commits
// retire in order), Commit, Rollback, Seal or Close, or an explicit Retire.
// When the engine has nothing to overlap (no durable log) or wants a quiet
// point (an automatic checkpoint is due) the commit retires here and
// CommitStart is Commit.
func (c *Conn) CommitStart() error {
	if !c.InTransaction() {
		return ErrNoTransaction
	}
	if err := c.Retire(); err != nil {
		return err
	}
	pc, forced, err := c.server.commitStart(c.worker, c.txn)
	c.txn = nil
	if err != nil {
		return err
	}
	c.pending, c.forced = pc, forced
	if pc.Settled() {
		return c.Retire()
	}
	return nil
}

// Retire waits for the pending commit, if any: a nil return acknowledges it.
func (c *Conn) Retire() error {
	pc := c.pending
	if pc == nil {
		return nil
	}
	c.pending = nil
	err := c.server.retire(c.worker, pc, c.forced, c.txn == nil)
	if err == nil {
		c.stats.Commits++
	}
	return err
}

// Rollback abandons the current transaction, after retiring a pending commit.
func (c *Conn) Rollback() error {
	if !c.InTransaction() {
		return ErrNoTransaction
	}
	if err := c.Retire(); err != nil {
		return err
	}
	err := c.server.finish(c.worker, c.txn, false)
	c.txn = nil
	return err
}

// Close releases the connection; a pending commit is retired and an active
// transaction is rolled back.
func (c *Conn) Close() error {
	if c.closed {
		return nil
	}
	if err := c.Retire(); err != nil {
		return err
	}
	if c.InTransaction() {
		if err := c.Rollback(); err != nil {
			return err
		}
	}
	c.closed = true
	return nil
}

// Prepare creates an insert statement for the given table and column list.
func (c *Conn) Prepare(table string, columns []string) *Stmt {
	cols := make([]string, len(columns))
	copy(cols, columns)
	return &Stmt{conn: c, table: table, columns: cols}
}

// Stmt is a prepared insert statement with an accumulating batch.
type Stmt struct {
	conn    *Conn
	table   string
	columns []string
	batch   [][]relstore.Value
}

// Table returns the destination table name.
func (s *Stmt) Table() string { return s.table }

// Columns returns the statement's column list.
func (s *Stmt) Columns() []string { return s.columns }

// AddBatch queues one row of values (matching the statement's column list)
// for the next ExecuteBatch call.
func (s *Stmt) AddBatch(values []relstore.Value) {
	row := make([]relstore.Value, len(values))
	copy(row, values)
	s.batch = append(s.batch, row)
}

// ExecuteBatch sends the queued rows to the server in one database call and
// clears the batch.  See BatchResult for the error semantics.
func (s *Stmt) ExecuteBatch() (BatchResult, error) {
	if len(s.batch) == 0 {
		return BatchResult{FailedIndex: -1}, ErrBatchEmpty
	}
	if !s.conn.InTransaction() {
		return BatchResult{FailedIndex: -1}, ErrNoTransaction
	}
	rows := s.batch
	s.batch = nil
	return s.ExecuteBatchRows(rows)
}

// ExecuteBatchRows sends rows to the server in one database call without
// staging them through AddBatch, sparing the loader's flush path one row copy
// per row: array-set buffers are stable for the life of the flush cycle, so
// they can be handed to the server by reference.  The caller must not mutate
// rows until the call returns; the engine coerces values into its own storage
// and never retains the argument.  Error semantics match ExecuteBatch.
func (s *Stmt) ExecuteBatchRows(rows [][]relstore.Value) (BatchResult, error) {
	if len(rows) == 0 {
		return BatchResult{FailedIndex: -1}, ErrBatchEmpty
	}
	if !s.conn.InTransaction() {
		return BatchResult{FailedIndex: -1}, ErrNoTransaction
	}
	res := s.conn.server.execBatch(s.conn.worker, s.conn.txn, s.table, s.columns, rows)
	s.conn.stats.Calls++
	s.conn.stats.Batches++
	return res, s.conn.account(res)
}

// ExecuteSingle inserts one row in its own database call (the non-bulk
// baseline path).
func (s *Stmt) ExecuteSingle(values []relstore.Value) (BatchResult, error) {
	if !s.conn.InTransaction() {
		return BatchResult{FailedIndex: -1}, ErrNoTransaction
	}
	row := make([]relstore.Value, len(values))
	copy(row, values)
	res := s.conn.server.execBatch(s.conn.worker, s.conn.txn, s.table, s.columns, [][]relstore.Value{row})
	s.conn.stats.Calls++
	return res, s.conn.account(res)
}

// account adds one call's outcome to the connection counters.  A rejected row
// is part of the result; anything else the engine failed with — its log
// device's error — is the call's error, so that no loader takes a dead log
// for a row to skip.
func (c *Conn) account(res BatchResult) error {
	c.stats.RowsInserted += int64(res.RowsInserted)
	c.stats.LockWaits += int64(res.LockWaits)
	c.stats.LongStalls += int64(res.LongStalls)
	if res.Err == nil {
		return nil
	}
	if !relstore.IsConstraintViolation(res.Err) {
		return res.Err
	}
	c.stats.RowsFailed++
	return nil
}

// ChargeClientCPU charges d of client-side (cluster node) processing time to
// the connection's worker.  The loader uses it for parse/transform/buffer
// work so that client costs and server costs share one clock; in wall-clock
// mode the charge is a no-op (real parse work takes real time instead).
func (c *Conn) ChargeClientCPU(d time.Duration) {
	c.worker.Sleep(d)
}
