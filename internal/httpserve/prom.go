package httpserve

import (
	"io"
	"net/http"
	"time"

	"skyloader/internal/metrics"
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
// so the -smoke path and tests can validate a scrape without a socket.
//
// Catalog layout: the backend's own families first (a database's rows, WAL,
// buffer cache and per-index memory, or a fleet's sky_shard_*), then the
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
	p.Metric("sky_serve_requests_total", "Query requests admitted or shed.", "counter")
	p.SampleInt("sky_serve_requests_total", nil, c.Requests)
	p.Metric("sky_serve_served_total", "Requests answered (cache hits included).", "counter")
	p.SampleInt("sky_serve_served_total", nil, c.Served)
	p.Metric("sky_serve_shed_total", "Requests shed at the full admission queue.", "counter")
	p.SampleInt("sky_serve_shed_total", nil, c.Shed)
	p.Metric("sky_serve_expired_total", "Requests abandoned past their queue-wait deadline.", "counter")
	p.SampleInt("sky_serve_expired_total", nil, c.Expired)
	p.Metric("sky_serve_errors_total", "Requests that failed in the engine.", "counter")
	p.SampleInt("sky_serve_errors_total", nil, c.Errors)
	p.Metric("sky_serve_unstable_total", "Answers computed over in-flight loader writes (served, never cached).", "counter")
	p.SampleInt("sky_serve_unstable_total", nil, c.Unstable)
	p.Metric("sky_serve_during_ingest_served_total", "Requests served while loaders were active.", "counter")
	p.SampleInt("sky_serve_during_ingest_served_total", nil, c.DuringIngestServed)
	p.Metric("sky_serve_during_ingest_shed_total", "Requests shed while loaders were active.", "counter")
	p.SampleInt("sky_serve_during_ingest_shed_total", nil, c.DuringIngestShed)
	p.Metric("sky_serve_during_ingest_expired_total", "Requests expired while loaders were active.", "counter")
	p.SampleInt("sky_serve_during_ingest_expired_total", nil, c.DuringIngestExpired)

	// --- serve: result cache ---
	if cache := s.qs.Cache(); cache != nil {
		cs := cache.Stats()
		p.Metric("sky_result_cache_hits_total", "Result cache hits.", "counter")
		p.SampleInt("sky_result_cache_hits_total", nil, cs.Hits)
		p.Metric("sky_result_cache_misses_total", "Result cache misses.", "counter")
		p.SampleInt("sky_result_cache_misses_total", nil, cs.Misses)
		p.Metric("sky_result_cache_stale_hits_total", "Lookups that found an epoch-invalidated entry.", "counter")
		p.SampleInt("sky_result_cache_stale_hits_total", nil, cs.StaleHits)
		p.Metric("sky_result_cache_evictions_total", "Capacity evictions.", "counter")
		p.SampleInt("sky_result_cache_evictions_total", nil, cs.Evictions)
		p.Metric("sky_result_cache_stores_total", "Results stored.", "counter")
		p.SampleInt("sky_result_cache_stores_total", nil, cs.Stores)
		p.Metric("sky_result_cache_entries", "Entries currently cached.", "gauge")
		p.SampleInt("sky_result_cache_entries", nil, int64(cs.Entries))
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
	p.Metric("sky_workers_capacity", "Query worker pool size.", "gauge")
	p.SampleInt("sky_workers_capacity", nil, int64(ws.Capacity))
	p.Metric("sky_workers_in_use", "Workers currently executing.", "gauge")
	p.SampleInt("sky_workers_in_use", nil, int64(workers.InUse()))
	p.Metric("sky_workers_queue_len", "Requests waiting for a worker.", "gauge")
	p.SampleInt("sky_workers_queue_len", nil, int64(workers.QueueLen()))
	p.Metric("sky_workers_grants_total", "Worker-slot grants.", "counter")
	p.SampleInt("sky_workers_grants_total", nil, int64(ws.Grants))
	p.Metric("sky_workers_waits_total", "Worker-slot acquisitions that had to queue.", "counter")
	p.SampleInt("sky_workers_waits_total", nil, int64(ws.Waits))
	p.Metric("sky_workers_wait_seconds_total", "Cumulative time spent waiting for a worker slot.", "counter")
	p.Sample("sky_workers_wait_seconds_total", nil, ws.TotalWait.Seconds())
	p.Metric("sky_workers_max_queue_depth", "High-water mark of the worker queue.", "gauge")
	p.SampleInt("sky_workers_max_queue_depth", nil, int64(ws.MaxQueueDepth))

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
	p.Metric("sky_http_open_conns_limit", "Listener connection cap (0 before Start).", "gauge")
	p.SampleInt("sky_http_open_conns_limit", nil, int64(s.maxConns()))
	p.Metric("sky_http_uptime_seconds", "Seconds since the front door was built.", "gauge")
	p.Sample("sky_http_uptime_seconds", nil, time.Since(s.start).Seconds())

	// --- trace ring ---
	p.Metric("sky_trace_published_total", "Requests sampled into the trace ring.", "counter")
	p.SampleInt("sky_trace_published_total", nil, int64(s.tracer.Published()))
	p.Metric("sky_trace_sample_interval", "One request in N is traced.", "gauge")
	p.SampleInt("sky_trace_sample_interval", nil, int64(s.cfg.TraceEvery))

	return p.Err()
}

// writeMetrics renders every engine counter of the database.
func (b dbBackend) writeMetrics(p *metrics.PromWriter) {
	snap := b.db.StatsSnapshot()

	// --- relstore: row and transaction counters ---
	p.Metric("sky_db_rows_inserted_total", "Rows inserted into the store.", "counter")
	p.SampleInt("sky_db_rows_inserted_total", nil, snap.DB.RowsInserted)
	p.Metric("sky_db_rows_rejected_total", "Rows rejected by constraint checks.", "counter")
	p.SampleInt("sky_db_rows_rejected_total", nil, snap.DB.RowsRejected)
	p.Metric("sky_db_transactions_total", "Transactions begun.", "counter")
	p.SampleInt("sky_db_transactions_total", nil, snap.DB.Transactions)
	p.Metric("sky_db_commits_total", "Transactions committed.", "counter")
	p.SampleInt("sky_db_commits_total", nil, snap.DB.Commits)
	p.Metric("sky_db_rollbacks_total", "Transactions rolled back.", "counter")
	p.SampleInt("sky_db_rollbacks_total", nil, snap.DB.Rollbacks)
	p.Metric("sky_db_constraint_violations_total", "Constraint violations by kind.", "counter")
	byKind := make(map[string]int64, len(snap.DB.ConstraintViolations))
	for kind, n := range snap.DB.ConstraintViolations {
		byKind[kind.String()] = n
	}
	for _, kind := range metrics.SortedLabelNames(byKind) {
		p.SampleInt("sky_db_constraint_violations_total", []metrics.Label{{Name: "kind", Value: kind}}, byKind[kind])
	}
	p.Metric("sky_db_pages_allocated_total", "Heap pages allocated.", "counter")
	p.SampleInt("sky_db_pages_allocated_total", nil, snap.DB.PagesAllocated)
	p.Metric("sky_db_log_bytes_total", "Redo-log bytes written (cost model).", "counter")
	p.SampleInt("sky_db_log_bytes_total", nil, snap.DB.LogBytes)
	p.Metric("sky_db_index_splits_total", "B-tree node splits.", "counter")
	p.SampleInt("sky_db_index_splits_total", nil, snap.DB.IndexSplits)
	p.Metric("sky_db_lock_conflicts_total", "Row-lock conflicts.", "counter")
	p.SampleInt("sky_db_lock_conflicts_total", nil, snap.DB.LockConflicts)
	p.Metric("sky_db_indexes_created_total", "Successful CREATE INDEX operations.", "counter")
	p.SampleInt("sky_db_indexes_created_total", nil, snap.DB.IndexesCreated)
	p.Metric("sky_db_indexes_dropped_total", "Successful DROP INDEX operations.", "counter")
	p.SampleInt("sky_db_indexes_dropped_total", nil, snap.DB.IndexesDropped)
	p.Metric("sky_db_index_ddl_failures_total", "Failed index DDL operations.", "counter")
	p.SampleInt("sky_db_index_ddl_failures_total", nil, snap.DB.IndexDDLFailures)
	p.Metric("sky_db_total_rows", "Rows currently resident across all tables.", "gauge")
	p.SampleInt("sky_db_total_rows", nil, snap.TotalRows)
	p.Metric("sky_db_loading", "1 while a BeginLoad/Seal window is open.", "gauge")
	loading := int64(0)
	if snap.Loading {
		loading = 1
	}
	p.SampleInt("sky_db_loading", nil, loading)

	// --- relstore: WAL ---
	p.Metric("sky_wal_records_total", "WAL records appended.", "counter")
	p.SampleInt("sky_wal_records_total", nil, snap.WAL.Records)
	p.Metric("sky_wal_group_records_total", "Batched multi-row WAL records.", "counter")
	p.SampleInt("sky_wal_group_records_total", nil, snap.WAL.GroupRecords)
	p.Metric("sky_wal_grouped_rows_total", "Rows covered by batched WAL records.", "counter")
	p.SampleInt("sky_wal_grouped_rows_total", nil, snap.WAL.GroupedRows)
	p.Metric("sky_wal_bytes_total", "WAL bytes appended.", "counter")
	p.SampleInt("sky_wal_bytes_total", nil, snap.WAL.Bytes)
	p.Metric("sky_wal_commits_total", "Commit records appended.", "counter")
	p.SampleInt("sky_wal_commits_total", nil, snap.WAL.Commits)
	// The sync family: syncs >= auto_syncs always holds; the difference is
	// the per-commit syncs.
	p.Metric("sky_wal_syncs_total", "Log syncs from every cause (per-commit, threshold).", "counter")
	p.SampleInt("sky_wal_syncs_total", nil, snap.WAL.Syncs)
	p.Metric("sky_wal_auto_syncs_total", "Syncs forced by the unsynced-bytes threshold.", "counter")
	p.SampleInt("sky_wal_auto_syncs_total", nil, snap.WAL.AutoSyncs)
	p.Metric("sky_wal_max_unsynced_bytes", "High-water mark of unsynced WAL bytes.", "gauge")
	p.SampleInt("sky_wal_max_unsynced_bytes", nil, snap.WAL.MaxUnsyncedBytes)

	// --- relstore: durable WAL, checkpoints, crash recovery ---
	p.Metric("sky_wal_durable", "1 when records are persisted to a WAL directory.", "gauge")
	durable := int64(0)
	if snap.WAL.Durable {
		durable = 1
	}
	p.SampleInt("sky_wal_durable", nil, durable)
	p.Metric("sky_wal_durable_bytes_total", "Bytes appended to on-disk WAL segments.", "counter")
	p.SampleInt("sky_wal_durable_bytes_total", nil, snap.WAL.DurableBytes)
	p.Metric("sky_wal_durable_syncs_total", "fsync batches issued against the WAL.", "counter")
	p.SampleInt("sky_wal_durable_syncs_total", nil, snap.WAL.DurableSyncs)
	// With the two above these answer "is this load waiting on the log?":
	// seconds committers spent blocked on durability, and how many of them a
	// flush someone else had issued served.
	p.Metric("sky_wal_commit_wait_seconds_total", "Time committers spent waiting for their commit marker to become durable, summed.", "counter")
	p.Sample("sky_wal_commit_wait_seconds_total", nil, float64(snap.WAL.CommitWaitNs)/1e9)
	p.Metric("sky_wal_shared_flushes_total", "Commits made durable by a flush they did not issue.", "counter")
	p.SampleInt("sky_wal_shared_flushes_total", nil, snap.WAL.SharedFlushes)
	p.Metric("sky_wal_segments_created_total", "WAL segment files created.", "counter")
	p.SampleInt("sky_wal_segments_created_total", nil, snap.WAL.SegmentsCreated)
	p.Metric("sky_wal_segments_deleted_total", "WAL segment files deleted by checkpoint truncation.", "counter")
	p.SampleInt("sky_wal_segments_deleted_total", nil, snap.WAL.SegmentsDeleted)
	p.Metric("sky_wal_checkpoints_total", "Checkpoints taken (manual and automatic).", "counter")
	p.SampleInt("sky_wal_checkpoints_total", nil, snap.WAL.Checkpoints)
	p.Metric("sky_wal_replay_records_total", "WAL records applied by crash recovery.", "counter")
	p.SampleInt("sky_wal_replay_records_total", nil, snap.WAL.ReplayRecords)
	p.Metric("sky_wal_replay_rows_total", "Rows restored from the log by crash recovery.", "counter")
	p.SampleInt("sky_wal_replay_rows_total", nil, snap.WAL.ReplayRows)
	p.Metric("sky_wal_replay_bytes_total", "Log bytes scanned by crash recovery.", "counter")
	p.SampleInt("sky_wal_replay_bytes_total", nil, snap.WAL.ReplayBytes)
	p.Metric("sky_wal_replay_torn_tail_total", "Torn trailing records discarded by crash recovery.", "counter")
	p.SampleInt("sky_wal_replay_torn_tail_total", nil, snap.WAL.ReplayTornTail)

	// --- relstore: buffer cache ---
	p.Metric("sky_buffer_cache_capacity_pages", "Buffer cache capacity.", "gauge")
	p.SampleInt("sky_buffer_cache_capacity_pages", nil, int64(snap.Cache.Capacity))
	p.Metric("sky_buffer_cache_resident_pages", "Pages currently resident.", "gauge")
	p.SampleInt("sky_buffer_cache_resident_pages", nil, int64(snap.Cache.Resident))
	p.Metric("sky_buffer_cache_hits_total", "Buffer cache hits.", "counter")
	p.SampleInt("sky_buffer_cache_hits_total", nil, snap.Cache.Hits)
	p.Metric("sky_buffer_cache_misses_total", "Buffer cache misses.", "counter")
	p.SampleInt("sky_buffer_cache_misses_total", nil, snap.Cache.Misses)
	p.Metric("sky_buffer_cache_evicts_total", "Buffer cache evictions.", "counter")
	p.SampleInt("sky_buffer_cache_evicts_total", nil, snap.Cache.Evicts)
	p.Metric("sky_buffer_cache_flushes_total", "Dirty-page flushes.", "counter")
	p.SampleInt("sky_buffer_cache_flushes_total", nil, snap.Cache.Flushes)
	p.Metric("sky_buffer_cache_scan_work_total", "LRU scan steps.", "counter")
	p.SampleInt("sky_buffer_cache_scan_work_total", nil, snap.Cache.ScanWork)

	// --- relstore: per-table memory footprint ---
	p.Metric("sky_relstore_resident_bytes", "Memory held for stored rows (page data, slot and row directories, key-index slots), by table.", "gauge")
	for _, ts := range snap.Tables {
		p.SampleInt("sky_relstore_resident_bytes", tableLabels(ts.Name), ts.ResidentBytes)
	}
	p.Metric("sky_relstore_keyindex_bytes", "Slots of the primary-key and unique hash indexes (part of the resident bytes), by table.", "gauge")
	for _, ts := range snap.Tables {
		p.SampleInt("sky_relstore_keyindex_bytes", tableLabels(ts.Name), ts.KeyIndexBytes)
	}

	// --- relstore: per-index memory footprint ---
	p.Metric("sky_index_key_bytes", "Encoded key bytes stored, by index.", "gauge")
	for _, ix := range snap.Indexes {
		p.SampleInt("sky_index_key_bytes", indexLabels(ix.Table, ix.Name), ix.KeyBytes)
	}
	p.Metric("sky_index_arena_bytes", "Key arena capacity reserved, by index.", "gauge")
	for _, ix := range snap.Indexes {
		p.SampleInt("sky_index_arena_bytes", indexLabels(ix.Table, ix.Name), ix.ArenaBytes)
	}
	p.Metric("sky_index_ready", "1 when the index is maintained and queryable.", "gauge")
	for _, ix := range snap.Indexes {
		ready := int64(0)
		if ix.Ready {
			ready = 1
		}
		p.SampleInt("sky_index_ready", indexLabels(ix.Table, ix.Name), ready)
	}
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
