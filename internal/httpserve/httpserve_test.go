package httpserve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"skyloader/internal/catalog"
	"skyloader/internal/core"
	"skyloader/internal/des"
	"skyloader/internal/exec"
	"skyloader/internal/metrics"
	"skyloader/internal/parallel"
	"skyloader/internal/queries"
	"skyloader/internal/relstore"
	"skyloader/internal/serve"
	"skyloader/internal/sqlbatch"
	"skyloader/internal/tuning"
)

// httpEnv is a loaded database + realtime query server + HTTP front door
// bound to a loopback port.
type httpEnv struct {
	db     *relstore.DB
	qs     *serve.Server
	front  *Server
	base   string
	client *http.Client
}

// newHTTPEnv builds the full serving stack on the realtime engine, loads a
// small night of data and starts the front door on a free loopback port.
func newHTTPEnv(t testing.TB, cfg Config) *httpEnv {
	t.Helper()
	sched := exec.NewRealtime(exec.RealtimeConfig{Seed: 5})
	db := relstore.MustOpen(catalog.NewSchema())
	txn, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := catalog.SeedReference(txn, 8); err != nil {
		t.Fatal(err)
	}
	if _, err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := tuning.ApplyIndexPolicy(db, tuning.HTMIDOnly); err != nil {
		t.Fatal(err)
	}
	load := sqlbatch.NewServerOn(sched, db, sqlbatch.DefaultServerConfig(), sqlbatch.DefaultCostModel())
	files := catalog.GenerateNight(catalog.NightSpec{
		TotalMB: 4, Files: 2, RowsPerMB: 100, Seed: 5, RunID: 1,
	})
	if _, err := parallel.Run(load, files, parallel.Config{
		Loaders: 2,
		Loader:  core.Config{BatchSize: 40, ArraySize: 1000},
	}); err != nil {
		t.Fatal(err)
	}
	qs := serve.NewServer(sched, db, serve.Config{Workers: 4, QueueDepth: 1000})
	front, err := New(qs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := front.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { front.Close() })
	return &httpEnv{
		db:     db,
		qs:     qs,
		front:  front,
		base:   "http://" + addr.String(),
		client: &http.Client{Timeout: 10 * time.Second},
	}
}

// get fetches a path and returns status + body.
func (e *httpEnv) get(t testing.TB, path string) (int, []byte) {
	t.Helper()
	resp, err := e.client.Get(e.base + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read body: %v", path, err)
	}
	return resp.StatusCode, body
}

func TestQueryEndpointsRoundTrip(t *testing.T) {
	env := newHTTPEnv(t, Config{})

	reqs := []queries.Query{
		queries.Cone{RA: 30, Dec: -10, RadiusDeg: 2},
		queries.ObjectLookup{ObjectID: 100_000_010},
		queries.FrameObjects{FrameID: 3},
		queries.MagHistogram{BinWidth: 0.5},
	}
	for _, q := range reqs {
		u, err := QueryURL(q)
		if err != nil {
			t.Fatal(err)
		}
		status, body := env.get(t, u)
		if status != http.StatusOK {
			t.Fatalf("%s: status %d, body %s", u, status, body)
		}
		var resp QueryResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatalf("%s: bad JSON %v in %s", u, err, body)
		}
		if resp.Outcome != "served" && resp.Outcome != "cache_hit" {
			t.Fatalf("%s: outcome %q", u, resp.Outcome)
		}
		if resp.RequestID == 0 {
			t.Fatalf("%s: no request id", u)
		}
	}

	// An identical repeat must come out of the result cache.
	u, _ := QueryURL(queries.ObjectLookup{ObjectID: 100_000_010})
	_, body := env.get(t, u)
	var resp QueryResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Outcome != "cache_hit" {
		t.Fatalf("repeat lookup outcome %q, want cache_hit", resp.Outcome)
	}

	// Lookup results must round-trip the actual object row.
	if len(resp.Objects) != 1 || resp.Objects[0].ObjectID != 100_000_010 {
		t.Fatalf("lookup objects = %+v", resp.Objects)
	}
}

func TestBadRequests(t *testing.T) {
	env := newHTTPEnv(t, Config{})
	for _, path := range []string{
		PathCone,                            // missing all params
		PathCone + "?ra=1&dec=2",            // missing radius
		PathCone + "?ra=1&dec=2&radius=200", // out of range
		PathObject + "?id=abc",
		PathMagHist + "?bin=-1",
	} {
		status, _ := env.get(t, path)
		if status != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", path, status)
		}
	}
	status, _ := env.get(t, "/v1/nope")
	if status != http.StatusNotFound {
		t.Errorf("unknown path: status %d, want 404", status)
	}
}

func TestHealthzGatedOnLoadPhase(t *testing.T) {
	env := newHTTPEnv(t, Config{})
	if status, body := env.get(t, PathHealthz); status != http.StatusOK {
		t.Fatalf("healthz before load: %d %s", status, body)
	}
	if err := env.db.BeginLoad(); err != nil {
		t.Fatal(err)
	}
	if status, _ := env.get(t, PathHealthz); status != http.StatusServiceUnavailable {
		t.Fatalf("healthz during load phase: %d, want 503", status)
	}
	if _, err := env.db.Seal(); err != nil {
		t.Fatal(err)
	}
	if status, _ := env.get(t, PathHealthz); status != http.StatusOK {
		t.Fatalf("healthz after Seal: %d, want 200", status)
	}
}

func TestMetricsScrape(t *testing.T) {
	env := newHTTPEnv(t, Config{})
	// Put some traffic through first so serving series are non-trivial.
	for i := 0; i < 20; i++ {
		u, _ := QueryURL(queries.ObjectLookup{ObjectID: int64(100_000_000 + i)})
		env.get(t, u)
	}
	status, body := env.get(t, PathMetrics)
	if status != http.StatusOK {
		t.Fatalf("scrape status %d", status)
	}
	families, err := metrics.PromValid(string(body))
	if err != nil {
		t.Fatalf("invalid exposition: %v\n%s", err, body)
	}
	for _, want := range []string{
		// engine
		"sky_db_rows_inserted_total", "sky_db_commits_total", "sky_db_total_rows",
		"sky_wal_records_total", "sky_wal_syncs_total", "sky_wal_auto_syncs_total",
		"sky_wal_group_commits_total",
		"sky_buffer_cache_hits_total", "sky_index_key_bytes", "sky_index_ready",
		"sky_relstore_resident_bytes",
		// serving
		"sky_serve_requests_total", "sky_serve_served_total", "sky_serve_shed_total",
		"sky_result_cache_hits_total", "sky_serve_class_requests_total",
		"sky_serve_latency_seconds", "sky_serve_queue_wait_seconds",
		"sky_workers_capacity",
		// transport + traces
		"sky_http_requests_total", "sky_http_request_seconds",
		"sky_trace_published_total",
	} {
		if !families[want] {
			t.Errorf("scrape missing family %s", want)
		}
	}
	// Spot-check a value: rows inserted must be positive after the load.
	if !strings.Contains(string(body), "sky_db_rows_inserted_total ") {
		t.Error("no sky_db_rows_inserted_total sample")
	}

	if !strings.Contains(string(body), `sky_relstore_resident_bytes{table="objects"} `) {
		t.Error("no sky_relstore_resident_bytes sample for the objects table")
	}

	// The per-class latency family must expose every class from the first
	// scrape, traffic or not.
	for _, cls := range []string{"cone", "lookup", "frame", "maghist"} {
		if !strings.Contains(string(body), fmt.Sprintf(`sky_serve_class_requests_total{class=%q}`, cls)) {
			t.Errorf("scrape missing class series for %q", cls)
		}
	}
}

func TestStatsEndpoint(t *testing.T) {
	env := newHTTPEnv(t, Config{})
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
	if resp.Server.Requests == 0 {
		t.Error("stats report zero requests after traffic")
	}
	if resp.Engine.DB.RowsInserted == 0 {
		t.Error("stats report zero rows inserted after load")
	}
}

func TestTraceCoverageAndDump(t *testing.T) {
	env := newHTTPEnv(t, Config{TraceEvery: 1}) // trace every request
	const n = 50
	for i := 0; i < n; i++ {
		u, _ := QueryURL(queries.ObjectLookup{ObjectID: int64(100_000_000 + i%10)})
		env.get(t, u)
	}
	traces := env.front.Tracer().Snapshot()
	if len(traces) < n {
		t.Fatalf("published %d traces, want >= %d", len(traces), n)
	}
	for _, tr := range traces {
		total, attributed := tr.Total(), tr.Attributed()
		if total <= 0 {
			t.Fatalf("trace %d: non-positive total %s", tr.ID, total)
		}
		// Acceptance: spans attribute >= 99% of request wall time.  The marks
		// are contiguous on one clock, so this holds exactly.
		if float64(attributed) < 0.99*float64(total) {
			t.Fatalf("trace %d: spans cover %s of %s", tr.ID, attributed, total)
		}
		if tr.Outcome == "" || tr.Class == "" {
			t.Fatalf("trace %d missing class/outcome: %+v", tr.ID, tr)
		}
	}

	// The HTTP dump must parse and carry per-stage spans.
	status, body := env.get(t, PathTraces+"?n=5")
	if status != http.StatusOK {
		t.Fatalf("traces status %d", status)
	}
	var dump []TraceDump
	if err := json.Unmarshal(body, &dump); err != nil {
		t.Fatalf("traces JSON: %v", err)
	}
	if len(dump) != 5 {
		t.Fatalf("asked for 5 slowest, got %d", len(dump))
	}
	for _, d := range dump {
		var sum int64
		for _, ns := range d.Stages {
			sum += ns
		}
		if sum < d.TotalNS*99/100 {
			t.Fatalf("dumped trace %d: stages %d ns of %d ns", d.RequestID, sum, d.TotalNS)
		}
	}
}

func TestDESSchedulerRejected(t *testing.T) {
	db := relstore.MustOpen(catalog.NewSchema())
	qs := serve.NewServer(exec.NewDES(des.NewKernel(5)), db, serve.DefaultConfig())
	if _, err := New(qs, Config{}); err == nil {
		t.Fatal("New accepted a DES scheduler; sockets need wall-clock workers")
	}
}
