package sqlbatch

import (
	"fmt"
	"sync/atomic"
	"time"

	"skyloader/internal/exec"
	"skyloader/internal/relstore"
)

// ServerConfig describes the simulated database host: the paper's server was
// an 8-processor SGI Altix with the database files, indexes and redo logs
// spread over three RAID devices reached through two FibreChannel channels.
type ServerConfig struct {
	// TxnSlots is the number of loader transactions the server admits
	// concurrently; requests beyond it queue (the RDBMS concurrent
	// transaction limit the paper ran into, §5.4).
	TxnSlots int
	// SeparateRAID controls whether data, index and log I/O go to three
	// separate devices (the §4.5.3 tuning) or contend on a single device.
	SeparateRAID bool
	// CachePages is the size of the data cache in pages.  A smaller cache
	// loads faster: the database writer scans all of it on each flush (§4.5.5).
	CachePages int
}

// The simulated host's fixed hardware: the paper's eight processors, and the
// concurrent I/O streams each RAID device sustains.
const (
	serverCPUs            = 8
	diskChannelsPerDevice = 2
)

// DefaultServerConfig mirrors the production environment of §5.
func DefaultServerConfig() ServerConfig {
	return ServerConfig{
		TxnSlots:     7,
		SeparateRAID: true,
		CachePages:   2048,
	}
}

// Server is the database server: it owns the relstore engine, the execution
// resources representing its hardware, its modelled data cache, and the cost
// model that converts engine work reports into service time.
//
// The server runs on whichever exec.Scheduler it was built with.  On the DES
// scheduler every cost below is charged in virtual time and runs are
// deterministic; on the realtime scheduler N client connections execute on N
// goroutines against the same shared engine, the resources block for real,
// and the counters (which are atomics) absorb concurrent updates.
type Server struct {
	db    *relstore.DB
	sched exec.Scheduler
	cost  CostModel
	cfg   ServerConfig

	cpus     exec.Resource
	txnSlots exec.Resource
	dataDisk exec.Resource
	idxDisk  exec.Resource
	logDisk  exec.Resource

	cache *dataCache
	// redo is the tail of the modelled redo log: the bytes appended since a
	// commit last forced it (see redoRecord).
	redo  atomic.Int64
	stats serverCounters
}

// ServerStats aggregates server-side counters for reporting.
type ServerStats struct {
	Calls         int64
	RowsReceived  int64
	RowsInserted  int64
	RowsRejected  int64
	Commits       int64
	Rollbacks     int64
	LockWaits     int64
	LongStalls    int64
	LockWaitTime  time.Duration
	NetworkBytes  int64
	ServerCPUTime time.Duration
	DataIOTime    time.Duration
	IndexIOTime   time.Duration
	LogIOTime     time.Duration
	// Seals counts Seal calls that rebuilt at least one index; SealTime is
	// the total service time charged for those rebuilds (also included in
	// ServerCPUTime/IndexIOTime).
	Seals    int64
	SealTime time.Duration
}

// serverCounters is the lock-free internal representation of ServerStats;
// durations are nanosecond atomics so concurrent connections never contend
// on a stats mutex.
type serverCounters struct {
	calls        atomic.Int64
	rowsReceived atomic.Int64
	rowsInserted atomic.Int64
	rowsRejected atomic.Int64
	commits      atomic.Int64
	rollbacks    atomic.Int64
	lockWaits    atomic.Int64
	longStalls   atomic.Int64
	lockWaitNs   atomic.Int64
	networkBytes atomic.Int64
	serverCPUNs  atomic.Int64
	dataIONs     atomic.Int64
	indexIONs    atomic.Int64
	logIONs      atomic.Int64
	seals        atomic.Int64
	sealNs       atomic.Int64
}

func (c *serverCounters) snapshot() ServerStats {
	return ServerStats{
		Calls:         c.calls.Load(),
		RowsReceived:  c.rowsReceived.Load(),
		RowsInserted:  c.rowsInserted.Load(),
		RowsRejected:  c.rowsRejected.Load(),
		Commits:       c.commits.Load(),
		Rollbacks:     c.rollbacks.Load(),
		LockWaits:     c.lockWaits.Load(),
		LongStalls:    c.longStalls.Load(),
		LockWaitTime:  time.Duration(c.lockWaitNs.Load()),
		NetworkBytes:  c.networkBytes.Load(),
		ServerCPUTime: time.Duration(c.serverCPUNs.Load()),
		DataIOTime:    time.Duration(c.dataIONs.Load()),
		IndexIOTime:   time.Duration(c.indexIONs.Load()),
		LogIOTime:     time.Duration(c.logIONs.Load()),
		Seals:         c.seals.Load(),
		SealTime:      time.Duration(c.sealNs.Load()),
	}
}

// NewServerOn creates a database server on an arbitrary execution scheduler:
// pass exec.NewDES for deterministic virtual-time simulation or
// exec.NewRealtime for a genuinely concurrent wall-clock run.
func NewServerOn(sched exec.Scheduler, db *relstore.DB, cfg ServerConfig, cost CostModel) *Server {
	if cfg.TxnSlots <= 0 {
		cfg.TxnSlots = DefaultServerConfig().TxnSlots
	}
	if cfg.CachePages <= 0 {
		cfg.CachePages = DefaultServerConfig().CachePages
	}
	s := &Server{db: db, sched: sched, cost: cost, cfg: cfg, cache: newDataCache(cfg.CachePages)}
	s.cpus = sched.NewResource("server-cpus", serverCPUs)
	s.txnSlots = sched.NewResource("txn-slots", cfg.TxnSlots)
	s.dataDisk = sched.NewResource("data-raid", diskChannelsPerDevice)
	if cfg.SeparateRAID {
		s.idxDisk = sched.NewResource("index-raid", diskChannelsPerDevice)
		s.logDisk = sched.NewResource("log-raid", diskChannelsPerDevice)
	} else {
		s.idxDisk = s.dataDisk
		s.logDisk = s.dataDisk
	}
	return s
}

// DB returns the hosted database.
func (s *Server) DB() *relstore.DB { return s.db }

// Scheduler returns the execution scheduler the server runs on.
func (s *Server) Scheduler() exec.Scheduler { return s.sched }

// Cost returns the cost model in use.
func (s *Server) Cost() CostModel { return s.cost }

// Config returns the server configuration.
func (s *Server) Config() ServerConfig { return s.cfg }

// Stats returns a snapshot of the server counters.
func (s *Server) Stats() ServerStats { return s.stats.snapshot() }

// ConnectWorker opens a connection for the worker w.  Connection setup costs
// one round trip.
func (s *Server) ConnectWorker(w exec.Worker) *Conn {
	w.Sleep(s.cost.CallOverhead)
	return &Conn{server: s, worker: w}
}

// begin admits a new transaction, queueing on the transaction-slot resource
// when the server is at its concurrency limit (§5.4) — the one limit on
// concurrent transactions: the engine admits any number.
func (s *Server) begin(w exec.Worker) (*relstore.Txn, error) {
	s.txnSlots.Acquire(w, 1)
	txn, err := s.db.Begin()
	if err != nil {
		s.txnSlots.Release(w, 1)
		return nil, err
	}
	return txn, nil
}

// finish ends a transaction (commit or rollback) on the caller's goroutine
// and frees its slot.  A commit that fails forces nothing: the engine rolled
// the transaction back, and its redo bytes stay in the tail as a rollback's
// do.
func (s *Server) finish(w exec.Worker, txn *relstore.Txn, commit bool) error {
	defer s.txnSlots.Release(w, 1)
	if commit {
		if _, err := txn.Commit(); err != nil {
			return err
		}
		s.chargeCommit(w, s.forceRedo())
		return nil
	}
	s.stats.rollbacks.Add(1)
	err := txn.Rollback()
	s.useCPU(w, s.cost.CommitCost)
	return err
}

// commitStart starts txn's commit (relstore.Txn.CommitStart) and returns the
// redo bytes it forces, taken from the tail now that its marker is appended:
// what the connection writes before the commit retires is the next commit's.
// The slot stays with the connection: it goes on to the transaction the
// connection begins next, or is freed by retire when none was begun.  If the
// engine could not start the commit it has rolled the transaction back, the
// tail is left alone and the slot is freed here.
func (s *Server) commitStart(w exec.Worker, txn *relstore.Txn) (*relstore.PendingCommit, int64, error) {
	pc, err := txn.CommitStart()
	if err != nil {
		s.txnSlots.Release(w, 1)
		return nil, 0, err
	}
	return pc, s.forceRedo(), nil
}

// retire waits until a started commit is durable and settled and charges it
// the forced bytes commitStart took; freeSlot says the connection began
// nothing after it, so its slot goes back.  A commit that fails here was
// rolled back, so its bytes return to the tail, as in finish.
func (s *Server) retire(w exec.Worker, pc *relstore.PendingCommit, forced int64, freeSlot bool) error {
	if freeSlot {
		defer s.txnSlots.Release(w, 1)
	}
	if _, err := pc.Wait(); err != nil {
		s.redo.Add(forced - redoCommitMarker)
		return err
	}
	s.chargeCommit(w, forced)
	return nil
}

// forceRedo empties the redo tail for a commit whose marker was just
// appended and returns what the commit forces: the tail plus the marker.
func (s *Server) forceRedo() int64 { return s.redo.Swap(0) + redoCommitMarker }

// chargeCommit counts a commit and charges its processing: the database
// writer flushes the whole data cache, so fixed CPU cost plus the cache scan,
// then a forced log write plus the dirty pages.
func (s *Server) chargeCommit(w exec.Worker, forced int64) {
	written, scanned := s.cache.flush()
	s.stats.commits.Add(1)
	cpu := s.cost.CommitCost + time.Duration(scanned)*s.cost.CacheScanCostPerPage
	s.useCPU(w, cpu)
	logT := s.cost.LogTime(int(forced)) + time.Duration(written)*s.cost.PageWriteCost
	s.useDisk(w, s.logDisk, logT, &s.stats.logIONs)
}

// BeginLoad opens the engine's load phase: deferred-policy indexes stop
// being maintained until Seal.  It is free — suspension is bookkeeping, not
// physical work — so no worker is needed; call it before spawning loaders.
func (s *Server) BeginLoad() error { return s.db.BeginLoad() }

// Seal closes the load phase on behalf of worker w: every deferred index is
// bulk-rebuilt from a presorted key stream (relstore.DB.Seal) and the rebuild
// is charged to the server's CPU and index device using the same index cost
// classes as immediate maintenance — IndexBuildRowCost per streamed row plus
// the per-node int/float column charges — so a virtual-time Figure 8 sweep of
// the two policies is an apples-to-apples comparison.
func (s *Server) Seal(w exec.Worker) (relstore.SealReport, error) {
	rep, err := s.db.Seal()
	if err != nil {
		return rep, err
	}
	if !rep.Sealed() {
		return rep, nil
	}
	var charged time.Duration
	for _, ix := range rep.Indexes {
		// Sort + stream CPU, proportional to rows.
		cpu := time.Duration(ix.Rows) * s.cost.IndexBuildRowCost
		s.useCPU(w, cpu)
		// Sequential node writes on the index device: each node is written
		// once, priced with the same column cost classes immediate
		// maintenance pays per node *visit*.
		idxT := time.Duration(ix.NodesBuilt)*s.cost.IndexNodeCost +
			time.Duration(ix.NodesBuilt*ix.IntCols)*s.cost.IndexIntColCost +
			time.Duration(ix.NodesBuilt*ix.FloatCols)*s.cost.IndexFloatColCost
		s.useDisk(w, s.idxDisk, idxT, &s.stats.indexIONs)
		charged += cpu + idxT
	}
	s.stats.seals.Add(1)
	s.stats.sealNs.Add(int64(charged))
	return rep, nil
}

func (s *Server) useCPU(w exec.Worker, d time.Duration) {
	if d <= 0 {
		return
	}
	s.cpus.Acquire(w, 1)
	w.Sleep(d)
	s.cpus.Release(w, 1)
	s.stats.serverCPUNs.Add(int64(d))
}

func (s *Server) useDisk(w exec.Worker, r exec.Resource, d time.Duration, acc *atomic.Int64) {
	if d <= 0 {
		return
	}
	r.Acquire(w, 1)
	w.Sleep(d)
	r.Release(w, 1)
	acc.Add(int64(d))
}

// execBatch runs a batch of inserts against table within txn on behalf of
// worker w, charging network, CPU, disk and lock-contention time.  It
// implements JDBC batch-update semantics: rows are applied in order until the
// first failure; the failing row and all rows after it are not applied.
func (s *Server) execBatch(w exec.Worker, txn *relstore.Txn, table string, columns []string, rows [][]relstore.Value) BatchResult {
	res := BatchResult{FailedIndex: -1}
	if len(rows) == 0 {
		return res
	}
	s.stats.calls.Add(1)
	s.stats.rowsReceived.Add(int64(len(rows)))

	// 1. Network: one round trip plus payload transfer.
	payload := 0
	for _, r := range rows {
		payload += relstore.RowSize(r)
	}
	s.stats.networkBytes.Add(int64(payload))
	w.Sleep(s.cost.CallOverhead + s.cost.NetworkTime(payload))

	// 2. Server-side execution under one CPU.
	//
	// The engine has one insert path; the two schedulers differ only in how
	// finely they call it.  The DES scheduler calls Txn.Insert (a one-row
	// batch) once per row, because the §5 virtual-time figures are priced per
	// row: a redo record and a data-cache touch for each row's report.  That
	// loop is the cost model's pricing granularity, not a second engine path.
	// Wall-clock mode hands the engine the whole batch, which amortizes the
	// lock, log and index work across it and is where the real hardware
	// speedup comes from.  Both stop at the first failing row and leave the
	// rows before it applied.  The data cache sees each engine call's pages as
	// soon as it returns, and the redo tail grows by each call's record before
	// anything here yields.  The Deterministic() fork stays because the §5
	// outputs are priced per row: a batch call under the DES would change
	// every skybench CSV and skyload figure that make oracles compares.
	var rep relstore.OpReport
	inserted, logBytes := 0, 0
	var failErr error
	var misses, scanned int
	if s.sched.Deterministic() || len(rows) == 1 {
		// Single-row calls are priced like the DES loop in every mode: the
		// non-bulk baseline (ExecuteSingle) is charged a redo record with
		// no group slots, as a one-row call of the loop is.
		for i, r := range rows {
			one, err := txn.Insert(table, columns, r)
			rep.Add(one)
			logBytes += redoRecord(one, 0)
			m, sc := s.cache.write(table, one)
			misses, scanned = misses+m, scanned+sc
			if err != nil {
				res.FailedIndex = i
				failErr = err
				break
			}
			inserted++
		}
	} else {
		br, err := txn.InsertBatch(table, columns, rows)
		rep = br.Report
		logBytes = redoRecord(rep, br.RowsInserted)
		misses, scanned = s.cache.write(table, rep)
		inserted = br.RowsInserted
		res.FailedIndex = br.FailedIndex
		failErr = err
	}
	s.redo.Add(int64(logBytes))
	res.RowsInserted = inserted
	res.Err = failErr
	s.stats.rowsInserted.Add(int64(inserted))
	if failErr != nil {
		s.stats.rowsRejected.Add(1)
	}

	cpu := time.Duration(inserted) * s.cost.RowServerCost
	cpu += time.Duration(inserted) * time.Duration(len(rows)) * s.cost.BatchRowScalingCost
	cpu += time.Duration(rep.ConstraintChecks) * s.cost.ConstraintCheckCost
	cpu += time.Duration(rep.FKLookups) * s.cost.FKLookupCost
	cpu += time.Duration(scanned) * s.cost.CacheScanCostPerPage
	if failErr != nil {
		cpu += s.cost.ErrorHandlingCost
	}
	s.useCPU(w, cpu)

	// 3. Disk I/O on the data, index and log devices.  A fresh page is a
	// miss in any cache.
	dataT := time.Duration(rep.PagesDirtied)*s.cost.PageWriteCost + time.Duration(rep.FreshPages+misses)*s.cost.PageWriteCost/2
	s.useDisk(w, s.dataDisk, dataT, &s.stats.dataIONs)
	idxT := time.Duration(rep.IndexNodesVisited)*s.cost.IndexNodeCost +
		time.Duration(rep.IndexIntColNodeVisits)*s.cost.IndexIntColCost +
		time.Duration(rep.IndexFloatColNodeVisits)*s.cost.IndexFloatColCost +
		time.Duration(rep.IndexSplits)*s.cost.IndexSplitCost
	s.useDisk(w, s.idxDisk, idxT, &s.stats.indexIONs)
	logT := s.cost.LogTime(logBytes)
	s.useDisk(w, s.logDisk, logT, &s.stats.logIONs)

	// 4. Lock contention: each other transaction concurrently loading makes
	// a conflict more likely; beyond the stall threshold rare long stalls
	// appear (the paper's "very infrequent ... stalls and dramatic
	// degradation", §5.4).
	// Contention pressure counts both admitted transactions and those queued
	// for a slot: sessions waiting to be admitted still hold locks manager
	// state and make conflicts more likely, which is why the paper saw
	// degradation (not just flattening) beyond the optimal degree.
	active := s.txnSlots.InUse() + s.txnSlots.QueueLen()
	if active > 1 {
		conflictProb := s.cost.LockConflictProbPerWriter * float64(active-1)
		if s.sched.RandFloat64() < conflictProb {
			// The wait grows with the number of concurrent writers: the
			// conflicting batch queues behind the other transactions holding
			// locks on the same table.
			wait := time.Duration(active-1) * s.cost.LockWaitCost
			s.stats.lockWaits.Add(1)
			s.stats.lockWaitNs.Add(int64(wait))
			w.Sleep(wait)
			res.LockWaits++
		}
		if active > s.cost.StallThreshold {
			stallProb := s.cost.StallProb * float64(active-s.cost.StallThreshold)
			if s.sched.RandFloat64() < stallProb {
				s.stats.longStalls.Add(1)
				s.stats.lockWaitNs.Add(int64(s.cost.StallCost))
				w.Sleep(s.cost.StallCost)
				res.LongStalls++
			}
		}
	}

	res.Report = rep
	return res
}

// String summarizes the server statistics.
func (st ServerStats) String() string {
	return fmt.Sprintf("calls=%d rows=%d inserted=%d rejected=%d commits=%d lockWaits=%d stalls=%d cpu=%s",
		st.Calls, st.RowsReceived, st.RowsInserted, st.RowsRejected, st.Commits, st.LockWaits, st.LongStalls, st.ServerCPUTime)
}
