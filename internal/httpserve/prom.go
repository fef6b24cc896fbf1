package httpserve

import (
	"io"
	"net/http"
	"time"

	"skyloader/internal/metrics"
	"skyloader/internal/relstore"
)

// handleMetrics renders the full metric catalog in Prometheus text format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request, path string) {
	began := time.Now()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.WriteMetrics(w); err != nil {
		s.observe(path, http.StatusInternalServerError, time.Since(began))
		return
	}
	s.observe(path, http.StatusOK, time.Since(began))
}

// WriteMetrics writes the exposition payload for one scrape.  It is exported
// so tests and bench/skyperf can render a scrape without a socket.
//
// Catalog layout: the backend's own families first (a database's rows, WAL
// and per-table and per-index memory, or a fleet's sky_shard_*), then the
// serving layer (admission counters, result cache, per-class latency
// histograms, queue wait, worker pool), then the transport (per-endpoint
// counters, request latency) and the trace ring.  Every counter that exists
// in the engine's snapshot structs is exported — the scrape is the superset
// of every in-process report.
func (s *Server) WriteMetrics(out io.Writer) error {
	p := metrics.NewPromWriter(out)
	s.backend.writeMetrics(p)

	// --- serve: admission counters ---
	c := s.qs.Counters()
	p.Counter("sky_serve_requests_total", "Query requests admitted or shed.", c.Requests)
	p.Counter("sky_serve_served_total", "Requests answered (cache hits included).", c.Served)
	p.Counter("sky_serve_shed_total", "Requests shed at the full admission queue.", c.Shed)
	p.Counter("sky_serve_expired_total", "Requests abandoned past their queue-wait deadline.", c.Expired)
	p.Counter("sky_serve_errors_total", "Requests that failed in the engine.", c.Errors)
	p.Counter("sky_serve_unstable_total", "Answers computed over in-flight loader writes (served, never cached).", c.Unstable)
	p.Counter("sky_serve_during_ingest_served_total", "Requests served while loaders were active.", c.DuringIngestServed)
	p.Counter("sky_serve_during_ingest_shed_total", "Requests shed while loaders were active.", c.DuringIngestShed)
	p.Counter("sky_serve_during_ingest_expired_total", "Requests expired while loaders were active.", c.DuringIngestExpired)

	// --- serve: result cache ---
	if cache := s.qs.Cache(); cache != nil {
		cs := cache.Stats()
		p.Counter("sky_result_cache_hits_total", "Result cache hits.", cs.Hits)
		p.Counter("sky_result_cache_misses_total", "Result cache misses.", cs.Misses)
		p.Counter("sky_result_cache_stale_hits_total", "Lookups that found an epoch-invalidated entry.", cs.StaleHits)
		p.Counter("sky_result_cache_evictions_total", "Capacity evictions.", cs.Evictions)
		p.Counter("sky_result_cache_stores_total", "Results stored.", cs.Stores)
		p.Gauge("sky_result_cache_entries", "Entries currently cached.", int64(cs.Entries))
		p.Gauge("sky_serve_cache_body_bytes", "Response-body bytes the cached results carry.", cs.BodyBytes)
	}

	// --- serve: per-class counters and latency histograms ---
	p.Metric("sky_serve_class_requests_total", "Requests by query class.", "counter")
	classes := s.qs.Classes()
	for _, cl := range classes {
		p.SampleInt("sky_serve_class_requests_total", classLabels(cl.Class), cl.Requests)
	}
	p.Metric("sky_serve_class_served_total", "Served requests by query class.", "counter")
	for _, cl := range classes {
		p.SampleInt("sky_serve_class_served_total", classLabels(cl.Class), cl.Served)
	}
	p.Metric("sky_serve_class_cache_hits_total", "Result-cache hits by query class.", "counter")
	for _, cl := range classes {
		p.SampleInt("sky_serve_class_cache_hits_total", classLabels(cl.Class), cl.CacheHits)
	}
	p.Metric("sky_serve_latency_seconds", "Served-request latency by query class.", "histogram")
	for _, cl := range classes {
		p.Histogram("sky_serve_latency_seconds", classLabels(cl.Class), cl.Latency)
	}
	p.Metric("sky_serve_queue_wait_seconds", "Admission queue wait of executed requests.", "histogram")
	p.Histogram("sky_serve_queue_wait_seconds", nil, s.qs.QueueWait())
	p.Metric("sky_serve_during_ingest_latency_seconds", "Served-request latency while loaders were active.", "histogram")
	p.Histogram("sky_serve_during_ingest_latency_seconds", nil, s.qs.DuringIngestLatency())

	// --- serve: worker pool saturation ---
	workers := s.qs.Workers()
	ws := workers.Stats()
	p.Gauge("sky_workers_capacity", "Query worker pool size.", int64(ws.Capacity))
	p.Gauge("sky_workers_in_use", "Workers currently executing.", int64(workers.InUse()))
	p.Gauge("sky_workers_queue_len", "Requests waiting for a worker.", int64(workers.QueueLen()))
	p.Counter("sky_workers_grants_total", "Worker-slot grants.", int64(ws.Grants))
	p.Counter("sky_workers_waits_total", "Worker-slot acquisitions that had to queue.", int64(ws.Waits))
	p.CounterFloat("sky_workers_wait_seconds_total", "Cumulative time spent waiting for a worker slot.", ws.TotalWait.Seconds())
	p.Gauge("sky_workers_max_queue_depth", "High-water mark of the worker queue.", int64(ws.MaxQueueDepth))

	// --- transport ---
	p.Metric("sky_http_requests_total", "HTTP requests by endpoint.", "counter")
	for _, path := range s.paths {
		p.SampleInt("sky_http_requests_total", pathLabels(path), s.reqs[path].Load())
	}
	p.Metric("sky_http_errors_total", "HTTP 4xx/5xx responses by endpoint.", "counter")
	for _, path := range s.paths {
		p.SampleInt("sky_http_errors_total", pathLabels(path), s.errs[path].Load())
	}
	p.Metric("sky_http_request_seconds", "HTTP request handling latency, all endpoints.", "histogram")
	p.Histogram("sky_http_request_seconds", nil, s.latency)
	p.Gauge("sky_http_open_conns_limit", "Listener connection cap (0 before Start).", int64(s.maxConns()))
	p.GaugeFloat("sky_http_uptime_seconds", "Seconds since the front door was built.", time.Since(s.start).Seconds())

	// --- trace ring ---
	p.Counter("sky_trace_published_total", "Requests sampled into the trace ring.", int64(s.tracer.Published()))
	p.Gauge("sky_trace_sample_interval", "One request in N is traced.", int64(s.cfg.TraceEvery))

	return p.Err()
}

// writeMetrics renders every engine counter of the database.
func (b dbBackend) writeMetrics(p *metrics.PromWriter) {
	writeDBMetrics(p, b.db.StatsSnapshot())
}

// writeDBMetrics renders one statistics snapshot of a database.
func writeDBMetrics(p *metrics.PromWriter, snap relstore.StatsSnapshot) {
	// --- relstore: row and transaction counters ---
	p.Counter("sky_db_rows_inserted_total", "Rows inserted into the store.", snap.DB.RowsInserted)
	p.Counter("sky_db_rows_rejected_total", "Rows rejected by constraint checks.", snap.DB.RowsRejected)
	p.Counter("sky_db_transactions_total", "Transactions begun.", snap.DB.Transactions)
	p.Counter("sky_db_commits_total", "Transactions committed.", snap.DB.Commits)
	p.Counter("sky_db_rollbacks_total", "Transactions rolled back.", snap.DB.Rollbacks)
	p.Metric("sky_db_constraint_violations_total", "Constraint violations by kind.", "counter")
	byKind := make(map[string]int64, len(snap.DB.ConstraintViolations))
	for kind, n := range snap.DB.ConstraintViolations {
		byKind[kind.String()] = n
	}
	for _, kind := range metrics.SortedLabelNames(byKind) {
		p.SampleInt("sky_db_constraint_violations_total", []metrics.Label{{Name: "kind", Value: kind}}, byKind[kind])
	}
	p.Counter("sky_db_pages_allocated_total", "Heap pages allocated.", snap.DB.PagesAllocated)
	p.Counter("sky_db_index_splits_total", "B-tree node splits.", snap.DB.IndexSplits)
	p.Counter("sky_db_batch_yields_total", "Batch runs closed early to let a waiting reader in.", snap.DB.BatchYields)
	p.Counter("sky_db_indexes_created_total", "Successful CREATE INDEX operations.", snap.DB.IndexesCreated)
	p.Counter("sky_db_indexes_dropped_total", "Successful DROP INDEX operations.", snap.DB.IndexesDropped)
	p.Counter("sky_db_index_ddl_failures_total", "Failed index DDL operations.", snap.DB.IndexDDLFailures)
	p.Gauge("sky_db_total_rows", "Rows currently resident across all tables.", snap.TotalRows)
	p.Gauge("sky_db_loading", "1 while a BeginLoad/Seal window is open.", boolInt(snap.Loading))

	// --- relstore: WAL, checkpoints, crash recovery ---
	p.Counter("sky_wal_commits_total", "Commits started, one commit marker each.", snap.WAL.Commits)
	p.Counter("sky_wal_syncs_total", "Log forces at commit, one per commit; sky_wal_durable_syncs_total counts the fsyncs.", snap.WAL.Syncs)
	p.Gauge("sky_wal_durable", "1 when records are persisted to a WAL directory.", boolInt(snap.WAL.Durable))
	p.Counter("sky_wal_durable_bytes_total", "Bytes appended to on-disk WAL segments.", snap.WAL.DurableBytes)
	p.Counter("sky_wal_durable_syncs_total", "fsync batches issued against the WAL.", snap.WAL.DurableSyncs)
	// With the two above these answer "is this load waiting on the log?":
	// seconds committers spent blocked on durability, and how many of them a
	// flush someone else had issued served.
	p.CounterFloat("sky_wal_commit_wait_seconds_total", "Time committers spent waiting for their commit marker to become durable, summed.", float64(snap.WAL.CommitWaitNs)/1e9)
	p.Counter("sky_wal_shared_flushes_total", "Commits made durable by a flush they did not issue.", snap.WAL.SharedFlushes)
	p.Counter("sky_wal_segments_created_total", "WAL segment files created.", snap.WAL.SegmentsCreated)
	p.Counter("sky_wal_segments_deleted_total", "WAL segment files deleted by checkpoint truncation.", snap.WAL.SegmentsDeleted)
	p.Counter("sky_wal_checkpoints_total", "Checkpoints taken (manual and automatic).", snap.WAL.Checkpoints)
	p.Counter("sky_wal_replay_records_total", "WAL records applied by crash recovery.", snap.WAL.ReplayRecords)
	p.Counter("sky_wal_replay_rows_total", "Rows restored from the log by crash recovery.", snap.WAL.ReplayRows)
	p.Counter("sky_wal_replay_bytes_total", "Log bytes scanned by crash recovery.", snap.WAL.ReplayBytes)
	p.Counter("sky_wal_replay_torn_tail_total", "Torn trailing records discarded by crash recovery.", snap.WAL.ReplayTornTail)

	// --- relstore: per-table memory footprint ---
	p.Metric("sky_relstore_resident_bytes", "Memory held for stored rows (page data, slot and row directories, key-index runs and slots), by table.", "gauge")
	for _, ts := range snap.Tables {
		p.SampleInt("sky_relstore_resident_bytes", tableLabels(ts.Name), ts.ResidentBytes)
	}
	p.Metric("sky_relstore_keyindex_bytes", "Key runs and tag slots of the primary-key and unique indexes (part of the resident bytes), by table.", "gauge")
	for _, ts := range snap.Tables {
		p.SampleInt("sky_relstore_keyindex_bytes", tableLabels(ts.Name), ts.KeyIndexBytes)
	}
	p.Metric("sky_relstore_keyindex_runs", "Runs of integer keys loaded in step with their row ids held by the primary-key and unique indexes, by table.", "gauge")
	for _, ts := range snap.Tables {
		p.SampleInt("sky_relstore_keyindex_runs", tableLabels(ts.Name), int64(ts.KeyRuns))
	}
	p.Metric("sky_relstore_rowdir_bytes", "The row directory's id runs (part of the resident bytes), by table.", "gauge")
	for _, ts := range snap.Tables {
		p.SampleInt("sky_relstore_rowdir_bytes", tableLabels(ts.Name), ts.RowDirBytes)
	}
	p.Metric("sky_relstore_rowdir_runs", "Id runs in the row directory (one per page unless replay stored ids out of order), by table.", "gauge")
	for _, ts := range snap.Tables {
		p.SampleInt("sky_relstore_rowdir_runs", tableLabels(ts.Name), int64(ts.RowDirRuns))
	}

	// --- relstore: per-index memory footprint ---
	p.Metric("sky_relstore_index_resident_bytes", "Memory held by a secondary index's B-tree (node headers, slots, children, reserved key bytes, duplicate-id lists), by index.", "gauge")
	for _, ix := range snap.Indexes {
		p.SampleInt("sky_relstore_index_resident_bytes", indexLabels(ix.Table, ix.Name), ix.ResidentBytes)
	}
	p.Metric("sky_index_key_bytes", "Encoded key bytes stored, by index.", "gauge")
	for _, ix := range snap.Indexes {
		p.SampleInt("sky_index_key_bytes", indexLabels(ix.Table, ix.Name), ix.KeyBytes)
	}
	p.Metric("sky_index_arena_bytes", "Key bytes reserved by the B-tree nodes (part of the resident bytes), by index.", "gauge")
	for _, ix := range snap.Indexes {
		p.SampleInt("sky_index_arena_bytes", indexLabels(ix.Table, ix.Name), ix.ArenaBytes)
	}
	p.Metric("sky_index_ready", "1 when the index is maintained and queryable.", "gauge")
	for _, ix := range snap.Indexes {
		p.SampleInt("sky_index_ready", indexLabels(ix.Table, ix.Name), boolInt(ix.Ready))
	}
}

// boolInt is the 0/1 sample of a boolean gauge.
func boolInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func indexLabels(table, index string) []metrics.Label {
	return []metrics.Label{{Name: "table", Value: table}, {Name: "index", Value: index}}
}

func tableLabels(table string) []metrics.Label {
	return []metrics.Label{{Name: "table", Value: table}}
}

func classLabels(class string) []metrics.Label {
	return []metrics.Label{{Name: "class", Value: class}}
}

func pathLabels(path string) []metrics.Label {
	return []metrics.Label{{Name: "path", Value: path}}
}

// maxConns reports the effective listener cap, for the scrape.
func (s *Server) maxConns() int {
	if s.listener == nil {
		return 0
	}
	if ll, ok := s.listener.(*limitedListener); ok {
		return cap(ll.sem)
	}
	return 0
}
