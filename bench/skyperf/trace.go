package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// The traced run's recorder.  It lives in the benchmark: spans are recorded
// around calls into each layer's public functions, never inside the program
// (spans inside the program are a later change).  Spans are held in memory
// and written as JSON when the run ends.

// chunkRows is how many per-row calls share one span.
const chunkRows = 1000

// Span is one timed interval: a call into a layer (batch-level calls), or a
// chunk of at least chunkRows per-row calls.
type Span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder started
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // span id, 0 for a root
	// Req ties the spans of one unit of work together: workload/file for
	// ingest, workload/request index for queries.
	Req string `json:"req"`
}

type recorder struct {
	workload string
	t0       time.Time
	mu       sync.Mutex
	spans    []Span
	// layer holds the per-layer metric values the staged replay computed,
	// by declared name.
	layer map[string]float64
	notes map[string]string
}

func newRecorder(workload string) *recorder {
	return &recorder{workload: workload, t0: time.Now(), layer: map[string]float64{}, notes: map[string]string{}}
}

// begin opens a span and returns its id.
func (r *recorder) begin(name string, parent int, req string) int {
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	r.spans = append(r.spans, Span{ID: len(r.spans) + 1, Name: name, Start: now, Parent: parent, Req: r.workload + "/" + req})
	id := len(r.spans)
	r.mu.Unlock()
	return id
}

// end closes a span and returns its duration.
func (r *recorder) end(id int) time.Duration {
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	s := &r.spans[id-1]
	s.End = now
	d := time.Duration(s.End - s.Start)
	r.mu.Unlock()
	return d
}

// do records one span around fn.
func (r *recorder) do(name string, parent int, req string, fn func()) time.Duration {
	id := r.begin(name, parent, req)
	fn()
	return r.end(id)
}

// chunked calls fn(i) for i in [0, n), one span per chunkRows calls.
func (r *recorder) chunked(name string, parent int, req string, n int, fn func(i int)) time.Duration {
	var total time.Duration
	for lo := 0; lo < n; lo += chunkRows {
		hi := min(lo+chunkRows, n)
		total += r.do(name, parent, req, func() {
			for i := lo; i < hi; i++ {
				fn(i)
			}
		})
	}
	return total
}

// set records a per-layer metric value.
func (r *recorder) set(name string, v float64) { r.layer[name] = v }

// selfTimes returns, per span name, the total time of its spans not covered
// by their child spans, among the descendants of root (root included): a
// layer's self time is its span minus the part its children cover.
func (r *recorder) selfTimes(root int) map[string]time.Duration {
	children := map[int][]Span{}
	for _, s := range r.spans[root-1:] { // descendants are recorded after their root
		children[s.Parent] = append(children[s.Parent], s)
	}
	out := map[string]time.Duration{}
	var walk func(s Span)
	walk = func(s Span) {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		// Children may overlap (concurrent parts); count their union.
		var covered, edge int64
		edge = s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), k.End
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
			walk(k)
		}
		out[s.Name] += time.Duration(s.End - s.Start - covered)
	}
	walk(r.spans[root-1])
	return out
}

// write stores the spans as JSON.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []Span `json:"spans"`
	}{r.workload, r.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// layerMetrics is every per-layer metric BENCHMARK.json declares, with its
// unit, in reporting order.  A traced run reports all of them; a layer the
// workload does not exercise reports 0.
var layerMetrics = []struct{ name, unit string }{
	{"catalog.parse_ns_per_row", "ns"},
	{"catalog.transform_ns_per_row", "ns"},
	{"catalog.rejected_rows", "count"},
	{"htm.lookup_ns", "ns"},
	{"htm.cone_cover_ns", "ns"},
	{"htm.cover_ranges_per_cone", "count"},
	{"arrayset.add_ns_per_row", "ns"},
	{"arrayset.flush_cycles", "count"},
	{"arrayset.peak_bytes", "bytes"},
	{"core.load_file_ns_per_row", "ns"},
	{"core.self_ns_per_row", "ns"},
	{"core.batches", "count"},
	{"core.rows_skipped", "count"},
	{"parallel.speedup", "ratio"},
	{"parallel.node_imbalance", "ratio"},
	{"sqlbatch.execute_ns_per_row", "ns"},
	{"sqlbatch.self_ns_per_row", "ns"},
	{"sqlbatch.db_calls", "count"},
	{"sqlbatch.lock_waits", "count"},
	{"relstore.apply_ns_per_row", "ns"},
	{"relstore.index_maint_ns_per_row", "ns"},
	{"relstore.index_nodes_visited_per_row", "count"},
	{"relstore.index_splits", "count"},
	{"relstore.constraint_checks_per_row", "count"},
	{"relstore.fk_lookups_per_row", "count"},
	{"relstore.index_arena_bytes_per_key_byte", "ratio"},
	{"relstore.wal_append_ns_per_row", "ns"},
	{"relstore.commit_p50_ms", "ms"},
	{"relstore.commit_p99_ms", "ms"},
	{"relstore.commits", "count"},
	{"relstore.wal_syncs", "count"},
	{"relstore.wal_bytes_per_sync", "bytes"},
	{"relstore.wal_segments", "count"},
	{"relstore.group_mean_size", "count"},
	{"relstore.wal_bytes_per_user_byte", "ratio"},
	{"relstore.seal_s", "s"},
	{"relstore.seal_ns_per_key", "ns"},
	{"relstore.checkpoint_s", "s"},
	{"relstore.checkpoint_bytes_per_user_byte", "ratio"},
	{"relstore.recover_s", "s"},
	{"relstore.recover_replay_s", "s"},
	{"relstore.reindex_s", "s"},
	{"relstore.recover_replayed_rows", "count"},
	{"relstore.recover_discarded_txns", "count"},
	{"relstore.lookup_pk_ns", "ns"},
	{"relstore.range_indexed_ns_per_row", "ns"},
	{"queries.cone_ns", "ns"},
	{"queries.lookup_ns", "ns"},
	{"queries.frame_ns", "ns"},
	{"queries.maghist_ns", "ns"},
	{"queries.rows_examined_per_returned", "ratio"},
	{"queries.rows_returned_per_query", "count"},
	{"serve.execute_hit_ns", "ns"},
	{"serve.execute_miss_self_ns", "ns"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.cache_evictions", "count"},
	{"serve.cache_stale_hits", "count"},
	{"serve.shed", "count"},
	{"serve.expired", "count"},
	{"serve.queue_wait_p99_ms", "ms"},
	{"serve.closed_loop_qps", "1/s"},
	{"serve.max_rate_qps", "1/s"},
	{"exec.worker_utilization", "ratio"},
	{"httpserve.handler_self_ns", "ns"},
	{"httpserve.socket_self_ns", "ns"},
	{"httpserve.response_bytes_per_query", "bytes"},
	{"httpserve.allocs_per_query", "count"},
	{"metrics.scrape_ns", "ns"},
	{"metrics.scrape_bytes", "bytes"},
	{"shard.execute_cone_ns", "ns"},
	{"shard.execute_lookup_ns", "ns"},
	{"shard.execute_maghist_ns", "ns"},
	{"shard.fanout_per_query", "count"},
	{"shard.agent_handle_ns", "ns"},
	{"shard.gather_self_ns", "ns"},
	{"shard.wire_bytes_per_query", "bytes"},
	{"shard.load_tasks_per_file", "count"},
	{"shard.errors", "count"},
	{"wire.codec_ns_per_frame", "ns"},
	{"wire.bytes_per_frame", "bytes"},
	{"trace.coverage", "ratio"},
	{"trace.overhead", "ratio"},
}

// perLayerMetrics lists every declared per-layer metric with the value the
// traced run computed for it.
func perLayerMetrics(r *run) []Metric {
	out := make([]Metric, 0, len(layerMetrics))
	for _, m := range layerMetrics {
		v := r.rec.layer[m.name]
		out = append(out, Metric{Name: m.name, Unit: m.unit, Value: v, Q1: v, Q3: v, N: 1, Note: r.rec.notes[m.name]})
	}
	return out
}
