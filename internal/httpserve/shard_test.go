package httpserve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"skyloader/internal/exec"
	"skyloader/internal/queries"
	"skyloader/internal/serve"
	"skyloader/internal/shard"
	"skyloader/internal/shard/wire"
)

// What only a fleet does.  Everything a fleet front shares with a database
// front — envelope, 400s, traces, the common metric families, /v1/stats — is
// in contract_test.go.

// TestShardHealthzAggregation is the lagging-agent contract: /healthz must
// stay 503 until EVERY shard reports Ready — two sealed shards and one still
// inside its load window keep the whole fleet unready.
func TestShardHealthzAggregation(t *testing.T) {
	sched := exec.NewRealtime(exec.RealtimeConfig{Seed: 7})
	inline := exec.InlineRunner(sched)
	const n = 3
	cfg := shard.DefaultAgentConfig()
	cfg.Profile.DeferredIndexBuild = true
	agents := make([]*shard.Agent, n)
	clients := make([]shard.Client, n)
	for i := range agents {
		a, err := shard.NewAgent(sched, cfg)
		if err != nil {
			t.Fatal(err)
		}
		agents[i] = a
		clients[i] = shard.NewMemClient(sched, a, shard.NetModel{})
	}
	pm, err := shard.NewUniformPartition(n)
	if err != nil {
		t.Fatal(err)
	}
	co, err := shard.New(sched, pm, clients, shard.Config{Deferred: true})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	front, err := NewShard(co, Config{})
	if err != nil {
		t.Fatal(err)
	}
	get := func(path string) int {
		rec := httptest.NewRecorder()
		front.Handler().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec.Code
	}
	seal := func(i int) {
		inline.RunInline("seal", func(w exec.Worker) {
			res := agents[i].Handle(w, wire.LoadTask{TaskID: uint64(1000 + i), Seal: true})
			if lr, ok := res.(wire.LoadResult); !ok || lr.Err != "" {
				t.Errorf("seal shard %d: %+v", i, res)
			}
		})
	}

	// Hello under the deferred policy opens every shard's load window.
	inline.RunInline("hello", func(w exec.Worker) {
		if err := co.Hello(w); err != nil {
			t.Error(err)
		}
	})
	if t.Failed() {
		t.FailNow()
	}
	if status := get(PathHealthz); status != http.StatusServiceUnavailable {
		t.Fatalf("healthz with all shards loading: %d, want 503", status)
	}

	// Seal shards 0 and 2; shard 1 lags mid-load.
	seal(0)
	seal(2)
	if status := get(PathHealthz); status != http.StatusServiceUnavailable {
		t.Fatalf("healthz with one lagging shard: %d, want 503", status)
	}

	// The laggard seals: the whole fleet flips ready.
	seal(1)
	if status := get(PathHealthz); status != http.StatusOK {
		t.Fatalf("healthz after final seal: %d, want 200", status)
	}

	// Kill a client mid-flight: an unreachable shard must read as unready,
	// not as healthy-by-omission.
	clients[1].Close()
	if status := get(PathHealthz); status != http.StatusServiceUnavailable {
		t.Fatalf("healthz with unreachable shard: %d, want 503", status)
	}
}

// TestShardMetricValues checks the values of the fleet's own families and
// that every /v1 request went through serve.Server: the serving layer and
// the coordinator count the same queries.
func TestShardMetricValues(t *testing.T) {
	env := newShardEnv(t, Config{})
	// Object ids count up from 100_000_001: nine lookups the directory sends
	// to one shard each, and one of an id nobody loaded, which broadcasts.
	const lookups = 10
	for i := 0; i < lookups; i++ {
		u, _ := QueryURL(queries.ObjectLookup{ObjectID: int64(100_000_000 + i)})
		env.get(t, u)
	}
	u, _ := QueryURL(queries.Cone{RA: 30, Dec: -10, RadiusDeg: 2})
	env.get(t, u)

	_, body := env.get(t, PathMetrics)
	text := string(body)
	want := []string{
		"sky_shard_count 3",
		fmt.Sprintf("sky_shard_queries_total %d", lookups+1),
		fmt.Sprintf("sky_serve_requests_total %d", lookups+1),
		fmt.Sprintf("sky_serve_served_total %d", lookups+1),
		"sky_shard_query_errors_total 0",
		"sky_shard_probe_failed 0",
		fmt.Sprintf(`sky_shard_fanout_total{class="lookup"} %d`, lookups-1+3),
		"sky_shard_directory_misses_total 1",
		// NewShard's serve.Server: DefaultConfig's pool.
		fmt.Sprintf("sky_workers_capacity %d", serve.DefaultConfig().Workers),
	}
	for s := 0; s < 3; s++ {
		want = append(want, fmt.Sprintf(`sky_shard_ready{shard="%d"} 1`, s))
	}
	for _, line := range want {
		if !containsLine(text, line) {
			t.Errorf("scrape has no line %q", line)
		}
	}
	for _, prefix := range []string{
		`sky_shard_wire_bytes_total{direction="sent"} `,
		`sky_shard_wire_bytes_total{direction="received"} `,
		`sky_shard_fanout_total{class="cone"} `,
		"sky_shard_directory_runs ",
		"sky_shard_directory_bytes ",
	} {
		if !containsLine(text, prefix) || strings.Contains(text, prefix+"0\n") {
			t.Errorf("scrape has no moving series %q", prefix)
		}
	}
	if cfg := env.front.qs.ServeConfig(); cfg.QueueDepth != serve.DefaultConfig().QueueDepth ||
		cfg.Deadline != serve.DefaultConfig().Deadline || env.front.qs.Cache() != nil {
		t.Errorf("NewShard's serve config %+v, cache %v: want DefaultConfig bounds and no cache", cfg, env.front.qs.Cache())
	}
}

// TestFleetMatchesOracleThroughFront: the rows a fleet returns through the
// unified front door are byte-identical to a single-node database's over the
// same catalog, for all four query classes.
func TestFleetMatchesOracleThroughFront(t *testing.T) {
	env := newShardEnv(t, Config{})
	oracle := loadDB(t, exec.NewRealtime(exec.RealtimeConfig{Seed: 5}), testNight())
	rows := func(objs []queries.Object, bins []queries.MagnitudeBin) []byte {
		js, err := json.Marshal(struct {
			Objects []queries.Object
			Bins    []queries.MagnitudeBin
		}{objs, bins})
		if err != nil {
			t.Fatal(err)
		}
		return js
	}
	qs := append([]queries.Query{
		queries.Cone{RA: 200, Dec: -75, RadiusDeg: 0.2}, // empty
		queries.ObjectLookup{ObjectID: 42},              // miss
	}, classQueries()...)
	for _, q := range qs {
		want, err := q.Run(oracle)
		if err != nil {
			t.Fatal(err)
		}
		u, _ := QueryURL(q)
		status, body := env.get(t, u)
		if status != http.StatusOK {
			t.Fatalf("%s: status %d: %s", u, status, body)
		}
		var got QueryResponse
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatal(err)
		}
		if g, w := rows(got.Objects, got.Bins), rows(want.Objects, want.Bins); !bytes.Equal(g, w) {
			t.Errorf("%s: fleet differs from oracle\n got %s\nwant %s", u, g, w)
		}
		if got.Stats.RowsReturned != want.Stats.RowsReturned {
			t.Errorf("%s: rows returned %d, oracle %d", u, got.Stats.RowsReturned, want.Stats.RowsReturned)
		}
	}
}

// gatedClient is a shard that answers a query only when released.
type gatedClient struct {
	entered chan struct{} // one send per query that reached the shard
	release chan struct{} // closed to let queries answer
}

func (c *gatedClient) Call(_ exec.Worker, req []byte) (wire.Msg, error) {
	switch wire.TypeOf(req) {
	case wire.TypeQuery:
		c.entered <- struct{}{}
		<-c.release
		return wire.QueryResult{}, nil
	case wire.TypeStats:
		return wire.Stats{Ready: true}, nil
	}
	return wire.Ready{Ready: true}, nil
}

func (c *gatedClient) Bytes() (int64, int64) { return 0, 0 }
func (c *gatedClient) Close() error          { return nil }

// TestFleetAdmission: a fleet front sheds and deadlines like a database
// front.  With every worker busy in a shard call and the admission queue
// full, the next request is shed with 503 + Retry-After; the queued requests
// out-wait the deadline and come back 504 without reaching the shard.
func TestFleetAdmission(t *testing.T) {
	const workers, queue = 2, 3
	sched := exec.NewRealtime(exec.RealtimeConfig{Seed: 13})
	pm, err := shard.NewUniformPartition(1)
	if err != nil {
		t.Fatal(err)
	}
	// entered is buffered to the number of queries that can reach the shard.
	gate := &gatedClient{entered: make(chan struct{}, workers), release: make(chan struct{})}
	co, err := shard.New(sched, pm, []shard.Client{gate}, shard.Config{})
	if err != nil {
		t.Fatal(err)
	}
	// NewShard with smaller bounds and a deadline the test can out-wait.
	deadline := 50 * time.Millisecond
	qs := serve.NewEngineServer(sched, co, serve.Config{Workers: workers, QueueDepth: queue, Deadline: deadline, CacheShards: -1})
	front, err := newServer(qs, fleetBackend{co}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	u, _ := QueryURL(queries.ObjectLookup{ObjectID: 7})
	codes := make(chan int, workers+queue)
	var wg sync.WaitGroup
	fire := func() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := httptest.NewRecorder()
			front.Handler().ServeHTTP(rec, httptest.NewRequest("GET", u, nil))
			codes <- rec.Code
		}()
	}
	for i := 0; i < workers; i++ {
		fire()
	}
	for i := 0; i < workers; i++ {
		<-gate.entered
	}
	for i := 0; i < queue; i++ {
		fire()
	}
	for waitUntil := time.Now().Add(10 * time.Second); qs.Workers().QueueLen() < queue; {
		if time.Now().After(waitUntil) {
			t.Fatalf("admission queue reached %d of %d", qs.Workers().QueueLen(), queue)
		}
		time.Sleep(time.Millisecond)
	}

	rec := httptest.NewRecorder()
	front.Handler().ServeHTTP(rec, httptest.NewRequest("GET", u, nil))
	if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") == "" {
		t.Fatalf("request over the queue bound: status %d, Retry-After %q", rec.Code, rec.Header().Get("Retry-After"))
	}
	var shed QueryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &shed); err != nil || shed.Outcome != "shed" {
		t.Fatalf("shed envelope %s (%v)", rec.Body, err)
	}

	time.Sleep(2 * deadline) // the queued requests have now out-waited it
	close(gate.release)
	wg.Wait()
	close(codes)
	got := map[int]int{}
	for code := range codes {
		got[code]++
	}
	if got[http.StatusOK] != workers || got[http.StatusGatewayTimeout] != queue {
		t.Fatalf("statuses %v, want %d×200 and %d×504", got, workers, queue)
	}

	var scrape strings.Builder
	if err := front.WriteMetrics(&scrape); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{
		"sky_serve_shed_total 1",
		"sky_serve_expired_total " + strconv.Itoa(queue),
		"sky_serve_served_total " + strconv.Itoa(workers),
		// Shed and expired requests never reached the coordinator.
		"sky_shard_queries_total " + strconv.Itoa(workers),
	} {
		if !containsLine(scrape.String(), line) {
			t.Errorf("scrape has no line %q", line)
		}
	}
}
