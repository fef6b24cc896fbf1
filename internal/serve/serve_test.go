package serve

import (
	"bytes"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"skyloader/internal/catalog"
	"skyloader/internal/core"
	"skyloader/internal/exec"
	"skyloader/internal/parallel"
	"skyloader/internal/queries"
	"skyloader/internal/relstore"
	"skyloader/internal/sqlbatch"
	"skyloader/internal/tuning"
)

// serveEnv is one database + sqlbatch server + query server on a scheduler.
type serveEnv struct {
	sched  exec.Scheduler
	db     *relstore.DB
	load   *sqlbatch.Server
	server *Server
}

// newServeEnv builds a fresh environment on the given scheduler with the
// reference data seeded and the htmid index policy applied.
func newServeEnv(t testing.TB, sched exec.Scheduler, policy tuning.IndexPolicy, cfg Config) *serveEnv {
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
	if err := tuning.ApplyIndexPolicy(db, policy); err != nil {
		t.Fatal(err)
	}
	load := sqlbatch.NewServerOn(sched, db, sqlbatch.DefaultServerConfig(), sqlbatch.DefaultCostModel())
	return &serveEnv{sched: sched, db: db, load: load, server: NewServer(sched, db, cfg)}
}

// loadFiles bulk-loads files to completion on the environment's scheduler.
func (e *serveEnv) loadFiles(t testing.TB, files []*catalog.File, loaders int) {
	t.Helper()
	_, err := parallel.Run(e.load, files, parallel.Config{
		Loaders: loaders,
		Loader:  core.Config{BatchSize: 40, ArraySize: 1000},
	})
	if err != nil {
		t.Fatal(err)
	}
}

func testFiles(n int, totalMB float64, seed int64) []*catalog.File {
	return catalog.GenerateNight(catalog.NightSpec{
		TotalMB: totalMB, Files: n, RowsPerMB: 100, Seed: seed, RunID: 1,
	})
}

func testTrace(n int, seed int64) []Request {
	return GenTrace(TraceSpec{
		Queries:  n,
		Seed:     seed,
		ConeFrac: 0.4,
		Objects:  2000,
		IDBase:   100_000_000, // matches GenerateNight's first file
		Frames:   50,
		Fields:   8,
		RABase:   0, DecBase: -20, RASpread: 350, DecSpread: 40,
		RatePerSec: 2000,
	})
}

func TestServeOnDESIsDeterministic(t *testing.T) {
	run := func() Report {
		env := newServeEnv(t, exec.NewDES(5), tuning.HTMIDOnly, DefaultConfig())
		env.loadFiles(t, testFiles(4, 8, 5), 2)
		return env.server.Serve(testTrace(300, 7))
	}
	r1, r2 := run(), run()
	if !reflect.DeepEqual(r1, r2) {
		t.Fatalf("two DES runs with one seed diverged:\n%+v\n%+v", r1, r2)
	}
	if r1.Served == 0 {
		t.Fatal("nothing served")
	}
	if r1.Cache.Hits == 0 {
		t.Fatal("zipf-hot trace produced no cache hits")
	}
	if len(r1.Classes) == 0 {
		t.Fatal("no per-class reports")
	}
	for _, c := range r1.Classes {
		if c.Served > 0 && c.Latency.P50 <= 0 {
			t.Fatalf("class %s served %d queries with zero p50", c.Class, c.Served)
		}
		if c.Latency.P99 < c.Latency.P50 {
			t.Fatalf("class %s: p99 %s < p50 %s", c.Class, c.Latency.P99, c.Latency.P50)
		}
	}
}

func TestServeRealtime(t *testing.T) {
	env := newServeEnv(t, exec.NewRealtime(exec.RealtimeConfig{Seed: 5}), tuning.HTMIDOnly, Config{
		Workers:    4,
		QueueDepth: 10_000, // never shed in this test
	})
	env.loadFiles(t, testFiles(4, 8, 5), 2)
	rep := env.server.Serve(testTrace(300, 7))
	if rep.Engine != "realtime" {
		t.Fatalf("engine = %q", rep.Engine)
	}
	if rep.Served != rep.Requests {
		t.Fatalf("served %d of %d requests with an unbounded queue (shed=%d expired=%d errors=%d)",
			rep.Served, rep.Requests, rep.Shed, rep.Expired, rep.Errors)
	}
	if rep.Cache.Hits == 0 {
		t.Fatal("no cache hits on realtime engine")
	}
}

// TestRealtimeServePacesFromServe: on the realtime engine a trace's arrival
// offsets count from the Serve call, as they count from the current virtual
// time under DES, so the requests due while a load ran before Serve do not go
// out in one burst when it ends.
func TestRealtimeServePacesFromServe(t *testing.T) {
	const arrival = 40 * time.Millisecond
	env := newServeEnv(t, exec.NewRealtime(exec.RealtimeConfig{Seed: 5}), tuning.HTMIDOnly, Config{
		Workers:    1,
		QueueDepth: 16,
	})
	env.loadFiles(t, testFiles(2, 2, 5), 1)
	// The load must outlast the offset, or pacing from the scheduler's
	// creation would pass too.
	if d := arrival - env.sched.Now(); d > 0 {
		time.Sleep(d)
	}
	trace := testTrace(3, 7)
	for i := range trace {
		trace[i].Arrival = arrival + time.Duration(i)*time.Millisecond
	}
	// The ingest probe runs as each served request is recorded.
	var (
		mu          sync.Mutex
		began       time.Time
		firstServed time.Duration
	)
	env.server.ObserveIngest(func() bool {
		mu.Lock()
		defer mu.Unlock()
		if firstServed == 0 {
			firstServed = time.Since(began)
		}
		return false
	})
	began = time.Now()
	rep := env.server.Serve(trace)
	if rep.Served != rep.Requests {
		t.Fatalf("served %d of %d requests", rep.Served, rep.Requests)
	}
	if firstServed < arrival {
		t.Fatalf("first request served %s after Serve, before its %s arrival offset", firstServed, arrival)
	}
}

func TestBackpressureSheds(t *testing.T) {
	env := newServeEnv(t, exec.NewDES(3), tuning.HTMIDOnly, Config{
		Workers:    1,
		QueueDepth: 2,
		Cost: CostModel{
			PerQuery: 50 * time.Millisecond, // slow queries, fast arrivals
		},
	})
	env.loadFiles(t, testFiles(2, 4, 3), 1)
	// 100 requests all arriving within 10ms against a 50ms/query single
	// worker with a queue of 2: nearly everything sheds.
	trace := GenTrace(TraceSpec{Queries: 100, Seed: 9, ConeFrac: 0, Objects: 100,
		IDBase: 100_000_000, RatePerSec: 10_000})
	rep := env.server.Serve(trace)
	if rep.Shed == 0 {
		t.Fatalf("bounded queue never shed: %+v", rep)
	}
	if rep.Served+rep.Shed+rep.Expired+rep.Errors != rep.Requests {
		t.Fatalf("request accounting leaks: %+v", rep)
	}
}

func TestDeadlineExpiresQueuedQueries(t *testing.T) {
	env := newServeEnv(t, exec.NewDES(3), tuning.HTMIDOnly, Config{
		Workers:    1,
		QueueDepth: 1000, // do not shed: force queueing instead
		Deadline:   20 * time.Millisecond,
		Cost: CostModel{
			PerQuery: 10 * time.Millisecond,
		},
	})
	env.loadFiles(t, testFiles(2, 4, 3), 1)
	trace := GenTrace(TraceSpec{Queries: 100, Seed: 9, ConeFrac: 0, Objects: 100,
		IDBase: 100_000_000, RatePerSec: 10_000})
	rep := env.server.Serve(trace)
	if rep.Expired == 0 {
		t.Fatalf("no query expired despite a 2-service-time deadline: %+v", rep)
	}
}

func TestMixedLoadServeDES(t *testing.T) {
	env := newServeEnv(t, exec.NewDES(11), tuning.HTMIDOnly, DefaultConfig())
	files := testFiles(4, 10, 11)
	// Spread arrivals across the whole (virtual) load window.
	trace := testTrace(400, 13)
	res, err := RunMixed(env.load, files, parallel.Config{
		Loaders: 2,
		Loader:  core.Config{BatchSize: 40, ArraySize: 1000},
	}, env.server, trace)
	if err != nil {
		t.Fatal(err)
	}
	if res.Load.Total.RowsLoaded == 0 {
		t.Fatal("mixed run loaded nothing")
	}
	if res.Serve.Served == 0 {
		t.Fatal("mixed run served nothing")
	}
	// During loading, some reads must have overlapped uncommitted state and
	// stayed out of the cache.
	if res.Serve.Unstable == 0 {
		t.Log("note: no unstable reads observed (load finished before queries)")
	}
	var buf bytes.Buffer
	if err := res.Serve.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"per-class latency", "p50_ms", "p95_ms", "p99_ms", "cache:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

func TestMixedSchedulerMismatch(t *testing.T) {
	envA := newServeEnv(t, exec.NewDES(1), tuning.HTMIDOnly, DefaultConfig())
	envB := newServeEnv(t, exec.NewDES(1), tuning.HTMIDOnly, DefaultConfig())
	_, err := RunMixed(envA.load, testFiles(1, 2, 1), parallel.Config{Loaders: 1}, envB.server, nil)
	if err == nil {
		t.Fatal("mismatched schedulers accepted")
	}
}

func TestTraceCSVRoundTrip(t *testing.T) {
	trace := testTrace(200, 21)
	var buf bytes.Buffer
	if err := WriteTrace(&buf, trace); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(trace) {
		t.Fatalf("round trip lost requests: %d vs %d", len(back), len(trace))
	}
	if !reflect.DeepEqual(trace, back) {
		t.Fatal("trace did not survive the CSV round trip exactly")
	}
}

// TestWithFootprintConesHitLoadedSky pins the workload-realism property: a
// footprint-aimed trace's cone searches land on the catalog that was loaded,
// rather than probing empty sky (each generated file sits at a random base
// position, so an unaimed box almost never overlaps it).
func TestWithFootprintConesHitLoadedSky(t *testing.T) {
	env := newServeEnv(t, exec.NewDES(23), tuning.HTMIDOnly, DefaultConfig())
	files := testFiles(4, 10, 23)
	env.loadFiles(t, files, 2)
	trace := GenTrace(TraceSpec{
		Queries: 100, Seed: 3, ConeFrac: 1, Radii: []float64{0.8},
		Fields: 8,
	}.WithFootprint(files))
	nonEmpty := 0
	for _, r := range trace {
		res, err := r.Query.Run(env.db)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Objects) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty < len(trace)/4 {
		t.Fatalf("only %d of %d footprint-aimed cones found any objects", nonEmpty, len(trace))
	}

	// Frame queries must target loaded frame ids (IDBase-offset).
	frameTrace := GenTrace(TraceSpec{
		Queries: 200, Seed: 3, ConeFrac: 0, Objects: 500, Frames: 20,
		IDBase: 100_000_000,
	})
	frameHits := 0
	for _, r := range frameTrace {
		if fq, ok := r.Query.(queries.FrameObjects); ok {
			res, err := fq.Run(env.db)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Objects) > 0 {
				frameHits++
			}
		}
	}
	if frameHits == 0 {
		t.Fatal("no frame query found a loaded frame")
	}
}

func TestGenTraceDeterministic(t *testing.T) {
	a := GenTrace(TraceSpec{Queries: 100, Seed: 4, ConeFrac: 0.5})
	b := GenTrace(TraceSpec{Queries: 100, Seed: 4, ConeFrac: 0.5})
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different traces")
	}
	c := GenTrace(TraceSpec{Queries: 100, Seed: 5, ConeFrac: 0.5})
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical traces")
	}
	var cones int
	for _, r := range a {
		if _, ok := r.Query.(queries.Cone); ok {
			cones++
		}
	}
	if cones == 0 || cones == len(a) {
		t.Fatalf("cone mix degenerate: %d of %d", cones, len(a))
	}
}
