// Package skyloader is a reproduction of "Optimized Data Loading for a
// Multi-Terabyte Sky Survey Repository" (Y. Dora Cai, Ruth Aydt, Robert J.
// Brunner, Supercomputing 2005): the SkyLoader framework for parallel bulk
// loading of the Palomar-Quest sky-survey catalog into a multi-table
// relational repository.
//
// The implementation lives under internal/:
//
//   - internal/core       — the bulk_loading / batch_row algorithm (Figure 3)
//   - internal/arrayset   — the array-set buffering structure (§4.3)
//   - internal/parallel   — the cluster coordinator with dynamic assignment (§4.4)
//   - internal/tuning     — the §4.5 database and system tuning profiles
//   - internal/loadconfig — JSON campaign configuration files (the paper's §7 future work)
//   - internal/baseline   — the comparison loaders: non-bulk singleton inserts (Figure 4)
//     and an SDSS-style two-phase loader
//   - internal/relstore   — the embedded relational engine standing in for Oracle 10g,
//     safe for concurrent writer transactions, with a durable WAL, checkpoints and recovery
//   - internal/frame      — the one byte layer: the length+CRC32 frame and the field cursor
//     under WAL segments, checkpoint files and the shard wire
//   - internal/sqlbatch   — the JDBC-like batch client/server with the calibrated cost model,
//     which prices the paper's data cache (§4.5.5) and redo log (§4.5.2)
//   - internal/catalog    — the Palomar-Quest data model, file format, parser and generator
//   - internal/htm        — Hierarchical Triangular Mesh ids for object positions
//   - internal/des        — the deterministic discrete-event simulation kernel
//   - internal/exec       — the execution abstraction (Scheduler/Worker/Resource) with a
//     DES implementation and a goroutine-backed realtime implementation
//   - internal/experiments — regeneration of every figure of §5 plus ablations
//   - internal/metrics    — result tables, histograms and the Prometheus text writer/validator
//   - internal/queries    — the science-query side (cone search via HTM trixel ranges,
//     lookups, histograms) behind a Query interface with per-query work stats
//   - internal/serve      — the concurrent query-serving subsystem: worker pool on
//     exec.Scheduler, bounded admission with deadlines, sharded LRU result cache
//     invalidated by relstore commit epochs, per-class latency histograms, and the
//     mixed load+serve scenario
//   - internal/httpserve  — the one HTTP front door over internal/serve: /v1 query API,
//     /metrics, /healthz, /debug/traces; a database and a shard fleet are two
//     serve.Engine implementations behind the same serve.Server and httpserve.Server
//   - internal/trace      — per-request stage tracing published into a fixed ring
//   - internal/shard      — the distributed layer: HTM-partitioned coordinator and agents
//     with scatter-gather serving; the coordinator routes each record once and keeps an
//     object directory, not the night; internal/shard/wire is its message protocol, on
//     internal/frame (a load task is one block of catalog text, built and parsed in its frame)
//
// The benchmarks in bench_test.go regenerate the paper's evaluation; the
// binaries under cmd/ (skygen, skyload, skybench, skyserve, skystorm,
// skyshard) expose the same functionality on the command line, and
// examples/quickstart walks through the library API.  bench/ is the repository's benchmark
// (BENCHMARK.json, `make perf`), a module of its own.  See README.md,
// PERFORMANCE.md and bench/README.md.
//
// # Row representation: values in flight, packed bytes at rest
//
// Column values move through the client side — parser, transformer,
// array-set, batch statements — as relstore.Value, a compact tagged struct
// (kind tag + int64 + float64 + string fields) rather than a boxed interface,
// so building and buffering a row performs no per-value heap allocation.
// Value is the transport type only.  A table stores each row as a packed
// record in a byte page: a NULL bitmap, a slot per column and the row's string
// bytes, derived from the column kinds alone, so the resident repository holds
// no pointers for the collector to follow.  A closed page of a table without a
// string column is re-encoded once into a layout of its own — each number the
// page minimum plus a delta of 0 to 8 bytes, floats with a declared precision
// as scaled integers when that is exact — and needs no slot directory, since
// its records are all one length.  Readers that do
// not need a copy (DB.ScanRef, RangeIndexedRef, LookupByPKRef) receive a
// relstore.RowView with typed getters over the page bytes, valid only inside
// the visitor call; Scan, LookupByPK, RangeIndexed and friends materialise a
// Row the caller owns.  Primary-key and unique hash indexes store no keys: a
// slot is a 32-bit hash tag and a row id, and a probe that matches a tag
// settles equality by reading the key columns of the stored row in place.
// PERFORMANCE.md describes the layout, the ownership and lifetime rules, and
// the measured footprint.
//
// # Ingest memory traffic
//
// The ingest client allocates per file, per array and per chunk, not per
// line and per row.  catalog.ReadRecords reads a file into one string and
// cuts every record out of it: fields alias the text and every Record.Fields
// is a window of one arena, so a record keeps its whole file alive.  The
// loader transforms each record into one scratch row
// (Transformer.TransformInto), ArraySet.Add copies it into the table's value
// slab, and after a flush cycle ArraySet.Recycle hands the cleared buffers to
// the next; arrays a caller keeps after Drain and never recycles stay intact.
// DB.Checkpoint encodes the snapshot into 1 MiB chunks, frames built in
// place, and writes them once the table locks are released.  PERFORMANCE.md
// ("Ingest memory traffic") has the ownership rules and the measured
// counters.
//
// # Execution modes
//
// Everything above the storage engine runs against internal/exec's Scheduler
// abstraction, which has two implementations:
//
//   - Deterministic DES mode (exec.NewDES(seed)): loaders, server CPUs, disks
//     and transaction slots are processes and resources on the discrete-event
//     kernel of internal/des, which only internal/exec imports; at most one
//     process runs at a time, time is virtual, and a seed fully determines
//     the trace.  All §5 figures regenerate in this mode, and a loader that
//     panics fails the run instead of leaving a short figure behind.
//
//   - Wall-clock mode (exec.NewRealtime): every loader is a real goroutine,
//     resources (the server's transaction slots among them) block on FIFO
//     condition queues, and the concurrent relstore engine (per-table locks,
//     atomic counters, per-transaction scratch buffers) absorbs genuinely
//     parallel writers.
//     `skyload -wallclock` reports real elapsed time next to the
//     virtual-time prediction.
//
// Both modes store rows through the engine's one insert path,
// relstore.Txn.InsertBatch, of which Txn.Insert is the one-row call: the
// sqlbatch server makes one call per row under DES, where its cost model
// prices each row's redo record and data-cache touch, and one per batch on
// the wall clock.
//
// PERFORMANCE.md documents when to use which mode and the scratch-buffer
// ownership rules that keep the insert path allocation-lean under
// concurrency; `make perf` (bench/README.md) measures both.
//
// # Load policies and the Open options API
//
// The storage engine is constructed with relstore.Open(schema, ...Option).
// Three options set one Config field each (WithWALDir, WithCheckpointEvery,
// WithWALSegmentBytes), WithConfig adopts a whole Config, and WithIndexPolicy
// and the test-only WithFaultHook carry what Config does not hold.  The §4.5.5
// data cache, the §4.5.2 redo volume and the §5.4 transaction limit are the
// simulated server's, not the engine's: sqlbatch.ServerConfig.CachePages and
// TxnSlots size the first and the last, and the redo volume is derived from
// the work each engine call reports.
// PERFORMANCE.md ("Knob audit") lists who sets each one and what it measured;
// relstore's TestConfigSurface pins the field set so a new knob is a visible
// decision.
//
// With WithWALDir a commit has two halves: Txn.CommitStart appends the commit
// marker and starts the log flush beside the caller, PendingCommit.Wait
// returns once the marker is durable and settles the commit, and Txn.Commit is
// the two composed.  core.Loader overlaps its CommitEveryBatches commits with
// the next transaction's work through sqlbatch.Conn.CommitStart/Retire;
// without a WAL directory CommitStart is Commit.  PERFORMANCE.md ("Durable
// WAL ownership rules", "Log pipeline") has the locks, the acknowledgement
// rule and the measurements.
//
// Every secondary index carries an IndexPolicy.  IndexImmediate (the
// default) maintains the index on every insert.  IndexDeferred participates
// in the load lifecycle — DB.BeginLoad suspends it, inserts skip it, and
// DB.Seal bulk-rebuilds it from a presorted key stream by packing B-tree
// leaves left to right (BTree.BuildFromSorted) — which is the paper's
// Figure 8 drop-indexes-while-loading lever as a supported engine mode.
// README.md ("Load policies") shows the workflow end to end, PERFORMANCE.md
// states the Seal ownership rules, and bench/README.md's ingest-bulk and
// ingest-durable workloads measure the two policies.
package skyloader

// Version identifies this reproduction release.
const Version = "1.0.0"
