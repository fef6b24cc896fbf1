package httpserve

import (
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"skyloader/internal/catalog"
	"skyloader/internal/core"
	"skyloader/internal/exec"
	"skyloader/internal/parallel"
	"skyloader/internal/queries"
	"skyloader/internal/relstore"
	"skyloader/internal/serve"
	"skyloader/internal/shard"
	"skyloader/internal/sqlbatch"
	"skyloader/internal/tuning"
)

// httpEnv is a loaded backend behind a front door: a database served over a
// loopback socket (newHTTPEnv) or a 3-agent in-process fleet driven through
// the handler (newShardEnv).
type httpEnv struct {
	front *Server
	// base is the socket address; empty drives front.Handler() directly.
	base   string
	client *http.Client

	db *relstore.DB  // database backend only
	qs *serve.Server // database backend only

	co     *shard.Coordinator // fleet backend only
	inline exec.InlineRunner  // fleet backend only
}

// testNight is the catalog every environment loads, so one set of queries
// returns the same rows from a database and from a fleet.
func testNight() []*catalog.File {
	return catalog.GenerateNight(catalog.NightSpec{
		TotalMB: 4, Files: 3, RowsPerMB: 100, Seed: 5, RunID: 1,
	})
}

// classQueries is one query per class, each returning rows from testNight
// (ids count up from the first file's base, 100_000_000).
func classQueries() []queries.Query {
	f := testNight()[0]
	return []queries.Query{
		queries.Cone{RA: f.RABase + 1.0, Dec: f.DecBase + 0.4, RadiusDeg: 1.5},
		queries.ObjectLookup{ObjectID: 100_000_010},
		queries.FrameObjects{FrameID: 100_000_001},
		queries.MagHistogram{BinWidth: 0.5},
	}
}

// loadDB loads files into a fresh single-node database on sched.
func loadDB(t testing.TB, sched exec.Scheduler, files []*catalog.File) *relstore.DB {
	t.Helper()
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
	if _, err := parallel.Run(load, files, parallel.Config{
		Loaders: 2,
		Loader:  core.Config{BatchSize: 40, ArraySize: 1000},
	}); err != nil {
		t.Fatal(err)
	}
	return db
}

// newHTTPEnv builds the full serving stack on the realtime engine, loads a
// small night of data and starts the front door on a free loopback port.
func newHTTPEnv(t testing.TB, cfg Config) *httpEnv {
	t.Helper()
	sched := exec.NewRealtime(exec.RealtimeConfig{Seed: 5})
	db := loadDB(t, sched, testNight())
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

// newShardEnv loads testNight into a 3-agent in-process fleet and fronts its
// coordinator with NewShard.
func newShardEnv(t testing.TB, cfg Config) *httpEnv {
	t.Helper()
	const n = 3
	sched := exec.NewRealtime(exec.RealtimeConfig{Seed: 11})
	inline := exec.InlineRunner(sched)
	files := testNight()
	clients := make([]shard.Client, n)
	for i := range clients {
		a, err := shard.NewAgent(sched, shard.DefaultAgentConfig())
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = shard.NewMemClient(sched, a, shard.NetModel{})
	}
	pm, err := shard.PartitionFromFiles(files, n)
	if err != nil {
		t.Fatal(err)
	}
	co, err := shard.New(sched, pm, clients, shard.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { co.Close() })
	inline.RunInline("shard-env-setup", func(w exec.Worker) {
		if err := co.Hello(w); err != nil {
			t.Error(err)
			return
		}
		if _, err := co.LoadFiles(w, files); err != nil {
			t.Error(err)
		}
	})
	if t.Failed() {
		t.FailNow()
	}
	front, err := NewShard(co, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &httpEnv{co: co, inline: inline, front: front}
}

// do fetches a path and returns status, headers and body.
func (e *httpEnv) do(t testing.TB, path string) (int, http.Header, []byte) {
	t.Helper()
	if e.base == "" {
		rec := httptest.NewRecorder()
		e.front.Handler().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec.Code, rec.Header(), rec.Body.Bytes()
	}
	resp, err := e.client.Get(e.base + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read body: %v", path, err)
	}
	return resp.StatusCode, resp.Header, body
}

// get fetches a path and returns status + body.
func (e *httpEnv) get(t testing.TB, path string) (int, []byte) {
	t.Helper()
	status, _, body := e.do(t, path)
	return status, body
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

func TestDESSchedulerRejected(t *testing.T) {
	sched := exec.NewDES(5)
	db := relstore.MustOpen(catalog.NewSchema())
	if _, err := New(serve.NewServer(sched, db, serve.DefaultConfig()), Config{}); err == nil {
		t.Error("New accepted a DES scheduler; sockets need wall-clock workers")
	}

	a, err := shard.NewAgent(sched, shard.DefaultAgentConfig())
	if err != nil {
		t.Fatal(err)
	}
	pm, err := shard.NewUniformPartition(1)
	if err != nil {
		t.Fatal(err)
	}
	co, err := shard.New(sched, pm, []shard.Client{shard.NewMemClient(sched, a, shard.NetModel{})}, shard.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewShard(co, Config{}); err == nil {
		t.Error("NewShard accepted a DES scheduler; sockets need wall-clock workers")
	}
}
