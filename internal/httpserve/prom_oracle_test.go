package httpserve

import (
	"bytes"
	"errors"
	"reflect"
	"regexp"
	"strconv"
	"testing"
	"time"

	"skyloader/internal/metrics"
	"skyloader/internal/relstore"
	"skyloader/internal/shard"
	"skyloader/internal/shard/wire"
)

// The scrape as it was written before PromWriter had Counter/Gauge: every
// family a Metric call and a Sample call that repeat the name.  The three
// functions below are that hand-written body, kept as the oracle the one-call
// form is compared against byte for byte.  The database catalog carries the
// only intended differences, written here in the old form: sky_wal_syncs_total
// has its corrected help text, the auto-sync family is gone with the threshold
// it counted, and sky_db_batch_yields_total is new.

func oracleServeMetrics(s *Server, p *metrics.PromWriter) {
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
}

func oracleDBMetrics(p *metrics.PromWriter, snap relstore.StatsSnapshot) {
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
	p.Metric("sky_db_index_splits_total", "B-tree node splits.", "counter")
	p.SampleInt("sky_db_index_splits_total", nil, snap.DB.IndexSplits)
	p.Metric("sky_db_batch_yields_total", "Batch runs closed early to let a waiting reader in.", "counter")
	p.SampleInt("sky_db_batch_yields_total", nil, snap.DB.BatchYields)
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

	// --- relstore: WAL, checkpoints, crash recovery ---
	p.Metric("sky_wal_commits_total", "Commits started, one commit marker each.", "counter")
	p.SampleInt("sky_wal_commits_total", nil, snap.WAL.Commits)
	p.Metric("sky_wal_syncs_total", "Log forces at commit, one per commit; sky_wal_durable_syncs_total counts the fsyncs.", "counter")
	p.SampleInt("sky_wal_syncs_total", nil, snap.WAL.Syncs)
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

	// --- relstore: per-table memory footprint ---
	p.Metric("sky_relstore_resident_bytes", "Memory held for stored rows (page data, slot and row directories, key-index slots), by table.", "gauge")
	for _, ts := range snap.Tables {
		p.SampleInt("sky_relstore_resident_bytes", tableLabels(ts.Name), ts.ResidentBytes)
	}
	p.Metric("sky_relstore_keyindex_bytes", "Slots of the primary-key and unique hash indexes (part of the resident bytes), by table.", "gauge")
	for _, ts := range snap.Tables {
		p.SampleInt("sky_relstore_keyindex_bytes", tableLabels(ts.Name), ts.KeyIndexBytes)
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
		ready := int64(0)
		if ix.Ready {
			ready = 1
		}
		p.SampleInt("sky_index_ready", indexLabels(ix.Table, ix.Name), ready)
	}
}

func oracleFleetMetrics(p *metrics.PromWriter, snap shard.Snapshot, stats []wire.Stats, statsErr error) {
	p.Metric("sky_shard_count", "Number of shards in the fleet.", "gauge")
	p.SampleInt("sky_shard_count", nil, int64(snap.Shards))
	p.Metric("sky_shard_queries_total", "Queries scattered by the coordinator.", "counter")
	p.SampleInt("sky_shard_queries_total", nil, snap.Queries)
	p.Metric("sky_shard_query_errors_total", "Scatter-gather queries that failed.", "counter")
	p.SampleInt("sky_shard_query_errors_total", nil, snap.QueryErrors)

	p.Metric("sky_shard_fanout_total", "Per-shard calls issued, by query class.", "counter")
	for _, class := range metrics.SortedLabelNames(snap.FanoutByClass) {
		p.SampleInt("sky_shard_fanout_total", classLabels(class), snap.FanoutByClass[class])
	}
	p.Metric("sky_shard_requests_total", "Query calls dispatched to each shard.", "counter")
	for i, n := range snap.ShardRequests {
		p.SampleInt("sky_shard_requests_total", shardLabels(i), n)
	}
	p.Metric("sky_shard_load_tasks_total", "Load tasks dispatched to each shard.", "counter")
	for i, n := range snap.ShardLoads {
		p.SampleInt("sky_shard_load_tasks_total", shardLabels(i), n)
	}
	p.Metric("sky_shard_gather_seconds", "Scatter-to-merge latency of sharded queries.", "histogram")
	p.Histogram("sky_shard_gather_seconds", nil, snap.GatherHist)
	p.Metric("sky_shard_wire_bytes_total", "Framed protocol bytes, by direction.", "counter")
	p.SampleInt("sky_shard_wire_bytes_total", []metrics.Label{{Name: "direction", Value: "sent"}}, snap.BytesSent)
	p.SampleInt("sky_shard_wire_bytes_total", []metrics.Label{{Name: "direction", Value: "received"}}, snap.BytesReceived)

	p.Metric("sky_shard_directory_runs", "Object-id runs in the coordinator's object directory.", "gauge")
	p.SampleInt("sky_shard_directory_runs", nil, int64(snap.DirectoryRuns))
	p.Metric("sky_shard_directory_bytes", "Bytes held by the coordinator's object directory.", "gauge")
	p.SampleInt("sky_shard_directory_bytes", nil, snap.DirectoryBytes)
	p.Metric("sky_shard_directory_misses_total", "Object lookups the directory could not place on one shard, which broadcast.", "counter")
	p.SampleInt("sky_shard_directory_misses_total", nil, snap.DirectoryMisses)

	// Live per-shard state; a probe failure leaves the families out of this
	// scrape rather than failing it (the fleet may be mid-restart).
	p.Metric("sky_shard_probe_failed", "1 when the last per-shard stats probe failed.", "gauge")
	failed := int64(0)
	if statsErr != nil {
		failed = 1
	}
	p.SampleInt("sky_shard_probe_failed", nil, failed)
	if statsErr == nil {
		p.Metric("sky_shard_ready", "Per-shard readiness (1 serving, 0 loading/replaying).", "gauge")
		for _, st := range stats {
			v := int64(0)
			if st.Ready {
				v = 1
			}
			p.SampleInt("sky_shard_ready", shardLabels(int(st.ShardID)), v)
		}
		p.Metric("sky_shard_rows", "Rows resident on each shard.", "gauge")
		for _, st := range stats {
			p.SampleInt("sky_shard_rows", shardLabels(int(st.ShardID)), st.Rows)
		}
		p.Metric("sky_shard_queries_served_total", "Queries each shard has answered.", "counter")
		for _, st := range stats {
			p.SampleInt("sky_shard_queries_served_total", shardLabels(int(st.ShardID)), st.QueriesServed)
		}
	}
}

// fillDistinct sets every integer, bool and string reachable from v to a
// value of its own (slices get two elements, maps two entries), so a family
// rendered from the wrong field cannot go unnoticed.
func fillDistinct(v reflect.Value, next *int64) {
	switch v.Kind() {
	case reflect.Int, reflect.Int64:
		*next += 7
		v.SetInt(*next)
	case reflect.Uint32:
		*next += 7
		v.SetUint(uint64(*next))
	case reflect.Bool:
		v.SetBool(true)
	case reflect.String:
		*next += 7
		v.SetString("n" + strconv.FormatInt(*next, 10))
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillDistinct(v.Field(i), next)
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < 2; i++ {
			fillDistinct(v.Index(i), next)
		}
	case reflect.Map:
		v.Set(reflect.MakeMap(v.Type()))
		for i := 0; i < 2; i++ {
			k, e := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
			if k.Kind() == reflect.String {
				fillDistinct(k, next)
			} else {
				k.SetInt(int64(i)) // ConstraintKind: the first two kinds
			}
			fillDistinct(e, next)
			v.SetMapIndex(k, e)
		}
	}
}

// TestScrapeUnchangedByFamilyHelpers renders fixed snapshots of a database and
// of a fleet, and the serving and transport families of a live front door,
// through the exporter and through the hand-written oracle above.
func TestScrapeUnchangedByFamilyHelpers(t *testing.T) {
	render := func(fn func(*metrics.PromWriter)) string {
		var buf bytes.Buffer
		p := metrics.NewPromWriter(&buf)
		fn(p)
		if err := p.Err(); err != nil {
			t.Fatal(err)
		}
		if _, err := metrics.PromValid(buf.String()); err != nil {
			t.Fatalf("invalid exposition: %v", err)
		}
		return buf.String()
	}
	same := func(what, got, want string) {
		t.Helper()
		if got != want {
			t.Errorf("%s: the scrape moved\n--- exporter ---\n%s--- oracle ---\n%s", what, got, want)
		}
	}

	var n int64
	var dbSnap relstore.StatsSnapshot
	fillDistinct(reflect.ValueOf(&dbSnap).Elem(), &n)
	same("database",
		render(func(p *metrics.PromWriter) { writeDBMetrics(p, dbSnap) }),
		render(func(p *metrics.PromWriter) { oracleDBMetrics(p, dbSnap) }))

	var fleetSnap shard.Snapshot
	fillDistinct(reflect.ValueOf(&fleetSnap).Elem(), &n)
	fleetSnap.GatherHist = metrics.NewHistogram()
	fleetSnap.GatherHist.Observe(3 * time.Millisecond)
	var stats []wire.Stats
	fillDistinct(reflect.ValueOf(&stats).Elem(), &n)
	for _, probe := range []error{nil, errors.New("probe failed")} {
		same("fleet",
			render(func(p *metrics.PromWriter) { writeFleetMetrics(p, fleetSnap, stats, probe) }),
			render(func(p *metrics.PromWriter) { oracleFleetMetrics(p, fleetSnap, stats, probe) }))
	}

	// The serving and transport families read live objects, so they are
	// compared on a front door that has answered a few queries and is now
	// idle; uptime is the one value that moves between two renders.
	env := newHTTPEnv(t, Config{})
	for _, q := range classQueries() {
		u, err := QueryURL(q)
		if err != nil {
			t.Fatal(err)
		}
		env.get(t, u)
	}
	uptime := regexp.MustCompile(`(?m)^sky_http_uptime_seconds .*$`)
	var got bytes.Buffer
	if err := env.front.WriteMetrics(&got); err != nil {
		t.Fatal(err)
	}
	want := render(func(p *metrics.PromWriter) {
		env.front.backend.writeMetrics(p)
		oracleServeMetrics(env.front, p)
	})
	same("front door", uptime.ReplaceAllString(got.String(), "sky_http_uptime_seconds X"),
		uptime.ReplaceAllString(want, "sky_http_uptime_seconds X"))
}
