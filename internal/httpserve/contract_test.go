package httpserve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"skyloader/internal/metrics"
	"skyloader/internal/queries"
)

// The front door's contract, run against both things it can front.  Each
// case names what legitimately differs; every other assertion is shared.
var backends = []struct {
	name  string
	start func(testing.TB, Config) *httpEnv
	// repeat is the outcome of an identical query asked twice: the database
	// answers from its result cache, the fleet executes again.
	repeat string
	// families are the backend's own metric families; absent are families it
	// must not export; series are labelled samples a loaded backend has.
	families, absent, series []string
	// stage is a span every traced request of this backend carries beyond
	// the common admission/cache/execute/encode ones.
	stage string
}{
	{
		name: "database", start: newHTTPEnv, repeat: "cache_hit",
		families: []string{
			"sky_db_rows_inserted_total", "sky_db_commits_total", "sky_db_total_rows", "sky_db_batch_yields_total",
			"sky_wal_commits_total", "sky_wal_syncs_total",
			"sky_wal_durable_syncs_total", "sky_wal_commit_wait_seconds_total", "sky_wal_shared_flushes_total",
			"sky_index_key_bytes", "sky_index_ready",
			"sky_relstore_resident_bytes", "sky_relstore_keyindex_bytes", "sky_relstore_keyindex_runs",
			"sky_relstore_index_resident_bytes",
			"sky_relstore_rowdir_bytes", "sky_relstore_rowdir_runs", "sky_result_cache_hits_total",
		},
		// The data cache and lock waits are the simulated server's, priced
		// by sqlbatch; the served database has neither.
		absent: []string{"sky_shard_count",
			"sky_buffer_cache_capacity_pages", "sky_buffer_cache_resident_pages",
			"sky_buffer_cache_hits_total", "sky_buffer_cache_misses_total", "sky_buffer_cache_evicts_total",
			"sky_buffer_cache_flushes_total", "sky_buffer_cache_scan_work_total", "sky_db_lock_conflicts_total",
		},
		series: []string{
			`sky_relstore_resident_bytes{table="objects"} `,
			`sky_relstore_keyindex_bytes{table="objects"} `,
			`sky_relstore_keyindex_runs{table="objects"} `,
			`sky_relstore_rowdir_bytes{table="objects"} `,
			`sky_relstore_rowdir_runs{table="objects"} `,
			`sky_relstore_index_resident_bytes{table="objects",index="ix_objects_htmid"} `,
		},
	},
	{
		name: "fleet", start: newShardEnv, repeat: "served",
		families: []string{
			"sky_shard_count", "sky_shard_queries_total", "sky_shard_query_errors_total",
			"sky_shard_fanout_total", "sky_shard_requests_total", "sky_shard_load_tasks_total",
			"sky_shard_partial_failures_total",
			"sky_shard_gather_seconds", "sky_shard_wire_bytes_total",
			"sky_shard_directory_runs",
			"sky_shard_directory_bytes",
			"sky_shard_directory_misses_total",
			"sky_shard_ready", "sky_shard_rows", "sky_shard_queries_served_total",
		},
		absent: []string{"sky_db_rows_inserted_total", "sky_result_cache_hits_total"},
		series: []string{`sky_shard_rows{shard="0"} `},
		stage:  "scatter",
	},
}

func TestContractQueryEnvelope(t *testing.T) {
	for _, b := range backends {
		t.Run(b.name, func(t *testing.T) {
			env := b.start(t, Config{})
			ask := func(q queries.Query) QueryResponse {
				t.Helper()
				u, err := QueryURL(q)
				if err != nil {
					t.Fatal(err)
				}
				status, hdr, body := env.do(t, u)
				if status != http.StatusOK {
					t.Fatalf("%s: status %d, body %s", u, status, body)
				}
				var resp QueryResponse
				if err := json.Unmarshal(body, &resp); err != nil {
					t.Fatalf("%s: bad JSON %v in %s", u, err, body)
				}
				if resp.RequestID == 0 || resp.ElapsedNS <= 0 || resp.Error != "" {
					t.Fatalf("%s: envelope %+v", u, resp)
				}
				if got := hdr.Get("X-Request-ID"); got != strconv.FormatUint(resp.RequestID, 10) {
					t.Fatalf("%s: X-Request-ID %q, envelope request_id %d", u, got, resp.RequestID)
				}
				if ct := hdr.Get("Content-Type"); ct != "application/json" {
					t.Fatalf("%s: Content-Type %q", u, ct)
				}
				return resp
			}
			for _, q := range classQueries() {
				resp := ask(q)
				if resp.Outcome != "served" {
					t.Errorf("%s: first outcome %q, want served", q.Class(), resp.Outcome)
				}
				if len(resp.Objects)+len(resp.Bins) == 0 || resp.Stats.RowsReturned == 0 {
					t.Errorf("%s: no rows returned", q.Class())
				}
			}
			// The same lookup again: cached by a database, executed again by
			// a fleet; either way it round-trips the actual object row.
			resp := ask(queries.ObjectLookup{ObjectID: 100_000_010})
			if resp.Outcome != b.repeat {
				t.Errorf("repeat lookup outcome %q, want %s", resp.Outcome, b.repeat)
			}
			if len(resp.Objects) != 1 || resp.Objects[0].ObjectID != 100_000_010 {
				t.Errorf("lookup objects = %+v", resp.Objects)
			}
		})
	}
}

func TestContractBadRequests(t *testing.T) {
	for _, b := range backends {
		t.Run(b.name, func(t *testing.T) {
			env := b.start(t, Config{})
			for _, path := range []string{
				PathCone,                            // missing all params
				PathCone + "?ra=1&dec=2",            // missing radius
				PathCone + "?ra=1&dec=2&radius=200", // out of range
				PathCone + "?ra=x&dec=2&radius=1",
				PathCone + "?ra=1&dec=2&radius=NaN", // NaN passes a <= / > range test
				PathCone + "?ra=NaN&dec=2&radius=1",
				PathCone + "?ra=Inf&dec=2&radius=1",
				PathCone + "?ra=1&dec=NaN&radius=1",
				PathCone + "?ra=1&dec=91&radius=1",
				PathCone + "?ra=1&dec=-Inf&radius=1",
				PathObject,
				PathObject + "?id=abc",
				PathFrame + "?id=1.5",
				PathMagHist + "?bin=-1",
				PathMagHist + "?bin=wide",
				PathMagHist + "?bin=NaN",
				PathMagHist + "?bin=1e-300", // every mag/bin overflows the bin index
				PathMagHist + "?bin=0.0009",
				PathTraces + "?n=0",
				PathTraces + "?n=many",
			} {
				status, body := env.get(t, path)
				if status != http.StatusBadRequest {
					t.Errorf("%s: status %d, want 400", path, status)
				}
				var e map[string]string
				if err := json.Unmarshal(body, &e); err != nil || e["error"] == "" {
					t.Errorf("%s: error body %q", path, body)
				}
			}
			if status, _ := env.get(t, "/v1/nope"); status != http.StatusNotFound {
				t.Errorf("unknown path: status %d, want 404", status)
			}
		})
	}
}

// TestContractProbes: a loaded, idle backend is ready, and the profiler mux
// is registered whatever the backend.
func TestContractProbes(t *testing.T) {
	for _, b := range backends {
		t.Run(b.name, func(t *testing.T) {
			env := b.start(t, Config{})
			if status, body := env.get(t, PathHealthz); status != http.StatusOK || string(body) != "ok\n" {
				t.Errorf("healthz: %d %q", status, body)
			}
			if status, _ := env.get(t, "/debug/pprof/cmdline"); status != http.StatusOK {
				t.Errorf("/debug/pprof/cmdline: status %d", status)
			}
		})
	}
}

func TestContractTraces(t *testing.T) {
	for _, b := range backends {
		t.Run(b.name, func(t *testing.T) {
			env := b.start(t, Config{TraceEvery: 1}) // trace every request
			const n = 40
			for i := 0; i < n; i++ {
				u, _ := QueryURL(queries.ObjectLookup{ObjectID: int64(100_000_000 + i%10)})
				env.get(t, u)
			}
			traces := env.front.tracer.Snapshot()
			if len(traces) != n {
				t.Fatalf("published %d traces, want %d", len(traces), n)
			}
			for _, tr := range traces {
				total, attributed := tr.Total(), time.Duration(0)
				for _, d := range tr.Stages {
					attributed += d
				}
				if total <= 0 {
					t.Fatalf("trace %d: non-positive total %s", tr.ID, total)
				}
				// Acceptance: spans attribute >= 99% of request wall time.  The
				// marks are contiguous on one clock, so this holds exactly.
				if float64(attributed) < 0.99*float64(total) {
					t.Fatalf("trace %d: spans cover %s of %s", tr.ID, attributed, total)
				}
				if tr.Outcome == "" || tr.Class != queries.ClassLookup {
					t.Fatalf("trace %d class/outcome: %+v", tr.ID, tr)
				}
			}

			// The HTTP dump: the whole ring without ?n=, the K slowest with it,
			// per-stage spans summing to the total either way.
			for _, c := range []struct {
				path string
				want int
			}{{PathTraces, n}, {PathTraces + "?n=5", 5}} {
				status, body := env.get(t, c.path)
				if status != http.StatusOK {
					t.Fatalf("%s: status %d", c.path, status)
				}
				var dump []TraceDump
				if err := json.Unmarshal(body, &dump); err != nil {
					t.Fatalf("%s: JSON: %v", c.path, err)
				}
				if len(dump) != c.want {
					t.Fatalf("%s: %d traces, want %d", c.path, len(dump), c.want)
				}
				for _, d := range dump {
					var sum int64
					for _, ns := range d.Stages {
						sum += ns
					}
					if sum < d.TotalNS*99/100 {
						t.Fatalf("%s: trace %d: stages %d ns of %d ns", c.path, d.RequestID, sum, d.TotalNS)
					}
					if d.Stages["encode"] <= 0 {
						t.Fatalf("%s: trace %d has no encode span: %v", c.path, d.RequestID, d.Stages)
					}
					if b.stage != "" && d.Stages[b.stage] <= 0 {
						t.Fatalf("%s: trace %d has no %s span: %v", c.path, d.RequestID, b.stage, d.Stages)
					}
				}
			}
		})
	}
}

func TestContractMetricsScrape(t *testing.T) {
	for _, b := range backends {
		t.Run(b.name, func(t *testing.T) {
			env := b.start(t, Config{})
			// Put some traffic through first so serving series are non-trivial.
			const lookups = 20
			for i := 0; i < lookups; i++ {
				u, _ := QueryURL(queries.ObjectLookup{ObjectID: int64(100_000_000 + i)})
				env.get(t, u)
			}
			status, body := env.get(t, PathMetrics)
			if status != http.StatusOK {
				t.Fatalf("scrape status %d", status)
			}
			text := string(body)
			families, err := metrics.PromValid(text)
			if err != nil {
				t.Fatalf("invalid exposition: %v\n%s", err, body)
			}
			common := []string{
				"sky_serve_requests_total", "sky_serve_served_total", "sky_serve_shed_total",
				"sky_serve_expired_total", "sky_serve_class_requests_total",
				"sky_serve_latency_seconds", "sky_serve_queue_wait_seconds",
				"sky_workers_capacity", "sky_workers_queue_len",
				"sky_http_requests_total", "sky_http_errors_total", "sky_http_request_seconds",
				"sky_http_open_conns_limit",
				"sky_trace_published_total", "sky_trace_sample_interval",
			}
			for _, want := range append(common, b.families...) {
				if !families[want] {
					t.Errorf("scrape missing family %s", want)
				}
			}
			for _, not := range b.absent {
				if families[not] {
					t.Errorf("scrape carries family %s", not)
				}
			}
			for _, want := range append([]string{
				fmt.Sprintf("sky_serve_requests_total %d", lookups),
				fmt.Sprintf(`sky_serve_class_requests_total{class="lookup"} %d`, lookups),
				fmt.Sprintf(`sky_http_requests_total{path=%q} %d`, PathObject, lookups),
			}, b.series...) {
				if !containsLine(text, want) {
					t.Errorf("scrape has no line %q", want)
				}
			}
			// The per-class families must expose every class from the first
			// scrape, traffic or not.
			for _, cls := range []string{"cone", "lookup", "frame", "maghist"} {
				if !strings.Contains(text, fmt.Sprintf(`sky_serve_class_requests_total{class=%q}`, cls)) {
					t.Errorf("scrape missing class series for %q", cls)
				}
			}
		})
	}
}

func TestContractStatsEnvelope(t *testing.T) {
	for _, b := range backends {
		t.Run(b.name, func(t *testing.T) {
			env := b.start(t, Config{})
			u, _ := QueryURL(queries.Cone{RA: 30, Dec: -10, RadiusDeg: 2})
			env.get(t, u)
			status, body := env.get(t, PathStats)
			if status != http.StatusOK {
				t.Fatalf("stats status %d", status)
			}
			var resp StatsResponse
			if err := json.Unmarshal(body, &resp); err != nil {
				t.Fatalf("stats JSON: %v", err)
			}
			if resp.Server.Requests != 1 || resp.Server.Served != 1 || resp.Server.Workers == 0 {
				t.Errorf("server report after one query: %+v", resp.Server)
			}
			if resp.UptimeNS <= 0 {
				t.Error("no uptime")
			}
			// Exactly one of engine / fleet, and it is the backend's.
			switch {
			case env.db != nil:
				if resp.Engine == nil || resp.Fleet != nil {
					t.Fatalf("database envelope: engine %v fleet %v", resp.Engine, resp.Fleet)
				}
				if resp.Engine.DB.RowsInserted == 0 {
					t.Error("stats report zero rows inserted after load")
				}
			default:
				if resp.Fleet == nil || resp.Engine != nil {
					t.Fatalf("fleet envelope: engine %v fleet %v", resp.Engine, resp.Fleet)
				}
				fl := resp.Fleet
				if fl.Shards != 3 || fl.Queries != 1 || len(fl.ShardStats) != 3 || fl.ShardStatsError != "" ||
					fl.DirectoryRuns == 0 || fl.DirectoryBytes == 0 {
					t.Fatalf("fleet stats: %+v", fl)
				}
				var rows int64
				for _, st := range fl.ShardStats {
					rows += st.Rows
				}
				if rows == 0 {
					t.Error("fleet reports zero resident rows after load")
				}
			}
		})
	}
}
