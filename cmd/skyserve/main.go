// Command skyserve loads a synthetic catalog into the repository and serves
// a query workload against it — the other half of the paper's dual-purpose
// system: "a query engine to support scientific research" (§4.5.1) running
// over the same tables the bulk loaders fill.
//
// Usage:
//
//	skyserve -size 20 -files 8 -queries 2000            # load, then serve
//	skyserve -mixed -size 20 -queries 2000              # serve WHILE loading
//	skyserve -mixed -engine both -queries 2000          # both engines
//	skyserve -trace trace.csv -size 20                  # replay a skygen trace
//	skyserve -fig8 -queries 2000                        # index policies, live
//	skyserve -smoke                                     # tiny end-to-end check
//	skyserve -http :8080 -size 20                       # load, then serve HTTP
//	skyserve -http 127.0.0.1:0 -smoke                   # HTTP self-scrape check
//
// -http loads the catalog and then serves the query API over HTTP (see
// internal/httpserve: /v1/cone, /v1/object, /v1/frame, /v1/maghist, plus
// /metrics in Prometheus text format, /healthz, /debug/traces and
// /debug/pprof) until interrupted.  The HTTP front door requires the
// realtime engine; cmd/skystorm is the matching load driver.  With -smoke
// the server starts, answers one query per class, validates its own
// /metrics scrape and exits.
//
// Execution engines: -engine des serves in deterministic virtual time (query
// latency modeled by a cost model — reproducible capacity planning); -engine
// realtime serves with real goroutines and wall-clock latency; -engine both
// (the default for -mixed and -smoke) runs DES first and realtime after,
// printing one report per engine.
//
// The mixed scenario is the paper-relevant one: queries execute while bulk
// loading continues, so the loading-phase index policy (-profile, Figure 8)
// is visible as query latency and cache hit rate, not just loading cost.
// -fig8 sweeps the index policies over the same mixed workload — which
// indices exist crossed with the engine's immediate|deferred build policy
// (deferred wraps the load in BeginLoad/Seal and bulk-builds at the end).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"skyloader/internal/catalog"
	"skyloader/internal/exec"
	"skyloader/internal/loadconfig"
	"skyloader/internal/metrics"
	"skyloader/internal/parallel"
	"skyloader/internal/queries"
	"skyloader/internal/relstore"
	"skyloader/internal/serve"
	"skyloader/internal/sqlbatch"
	"skyloader/internal/tuning"
)

func main() {
	var (
		size      = flag.Float64("size", 10, "nominal catalog MB to generate and load")
		nfiles    = flag.Int("files", 4, "number of catalog files")
		rowsPerMB = flag.Int("rows-per-mb", 100, "generated rows per nominal MB")
		seed      = flag.Int64("seed", 1, "random seed (catalog, workload and DES engine)")
		profile   = flag.String("profile", "production", "tuning profile: production|untuned|query")
		loaders   = flag.Int("loaders", 4, "loader nodes (mixed mode)")

		nQueries = flag.Int("queries", 1000, "number of queries to generate (ignored with -trace)")
		zipfS    = flag.Float64("zipf", 1.2, "Zipf skew of the generated workload")
		coneFrac = flag.Float64("cone-frac", 0.4, "cone-search fraction of the generated workload")
		rate     = flag.Float64("rate", 0, "arrival rate in qps (0 = auto: spread over the load window)")
		tracePth = flag.String("trace", "", "replay a CSV query trace written by skygen -queries")

		workers  = flag.Int("workers", 4, "query worker pool size")
		queue    = flag.Int("queue", 0, "admission queue depth (0 = 4x workers)")
		deadline = flag.Duration("deadline", 2*time.Second, "per-query queue-wait deadline (0 disables)")
		cacheSz  = flag.Int("cache", 128, "result-cache entries per shard (negative disables the cache)")
		shards   = flag.Int("cache-shards", 8, "result-cache shard count")

		httpAddr   = flag.String("http", "", "serve the query API over HTTP on this address (realtime engine)")
		traceEvery = flag.Int("trace-every", 16, "HTTP mode: sample one request in N into the trace ring")

		mixed  = flag.Bool("mixed", false, "serve queries WHILE bulk loading runs (default: load first)")
		engine = flag.String("engine", "", "des|realtime|both (default: des, or both with -mixed/-smoke)")
		fig8   = flag.Bool("fig8", false, "sweep index policies over the mixed workload (DES)")
		smoke  = flag.Bool("smoke", false, "tiny end-to-end run for CI; nonzero exit on failure")
	)
	flag.Parse()

	if *smoke {
		*size, *nfiles, *nQueries, *loaders, *workers = 4, 2, 400, 2, 2
		if *httpAddr == "" {
			*mixed = true
			if *engine == "" {
				*engine = "both"
			}
		}
	}
	if *engine == "" {
		if *mixed {
			*engine = "both"
		} else {
			*engine = "des"
		}
	}

	prof, err := tuning.ProfileByName(*profile)
	if err != nil {
		fatal(err)
	}
	files := catalog.GenerateNight(catalog.NightSpec{
		TotalMB: *size, Files: *nfiles, RowsPerMB: *rowsPerMB, Seed: *seed, RunID: 1,
	})

	serveCfg := serve.Config{
		Workers:              *workers,
		QueueDepth:           *queue,
		Deadline:             *deadline,
		CacheShards:          *shards,
		CacheEntriesPerShard: *cacheSz,
	}
	if *cacheSz < 0 {
		serveCfg.CacheShards = -1
	}

	if *httpAddr != "" {
		runHTTP(*httpAddr, *seed, prof, files, serveCfg, *loaders, *traceEvery, *smoke)
		return
	}

	// Only the DES/realtime serving modes replay a trace; -http serves what
	// its clients send.
	trace, err := buildTrace(*tracePth, *nQueries, *seed, *zipfS, *coneFrac, *rate, *size, *rowsPerMB, files)
	if err != nil {
		fatal(err)
	}

	if *fig8 {
		runFig8(files, trace, serveCfg, *loaders, *seed)
		return
	}

	engines, err := enginesFor(*engine)
	if err != nil {
		fatal(err)
	}
	failed := false
	for _, eng := range engines {
		rep, loadRes, ingestRPS, err := runOne(eng, *seed, prof, files, trace, serveCfg, *loaders, *mixed)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("=== engine: %s ===\n", eng)
		printLoad(loadRes, *mixed, ingestRPS)
		if err := rep.Render(os.Stdout); err != nil {
			fatal(err)
		}
		fmt.Println()
		if rep.Served == 0 || rep.Errors > 0 {
			failed = true
		}
	}
	if *smoke {
		if failed {
			fmt.Fprintln(os.Stderr, "skyserve: smoke run failed (nothing served or errors reported)")
			os.Exit(1)
		}
		fmt.Println("smoke: OK")
	}
}

// buildTrace reads a CSV trace or generates one matched to the files: the
// object-id universe follows the generated rows, and with -rate 0 arrivals
// are spread so the trace roughly spans the virtual load window.
func buildTrace(path string, n int, seed int64, zipfS, coneFrac, rate, sizeMB float64, rowsPerMB int, files []*catalog.File) ([]serve.Request, error) {
	if path != "" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return serve.ReadTrace(f)
	}
	if rate <= 0 {
		// The DES load of S nominal MB takes very roughly S/2 virtual
		// seconds at paper throughput; aim the whole trace at ~that window.
		window := sizeMB / 2
		if window < 1 {
			window = 1
		}
		rate = float64(n) / window
	}
	spec := serve.NightTraceSpec(sizeMB, rowsPerMB, files)
	spec.Queries, spec.Seed, spec.ZipfS, spec.ConeFrac, spec.RatePerSec = n, seed+1000, zipfS, coneFrac, rate
	return serve.GenTrace(spec), nil
}

func enginesFor(s string) ([]string, error) {
	switch s {
	case "des":
		return []string{"des"}, nil
	case "realtime", "rt", "wallclock":
		return []string{"realtime"}, nil
	case "both":
		return []string{"des", "realtime"}, nil
	}
	return nil, fmt.Errorf("unknown engine %q (want des|realtime|both)", s)
}

// buildEnv assembles a fresh database, load server and query server on a
// scheduler.
func buildEnv(sched exec.Scheduler, prof tuning.Profile, serveCfg serve.Config) (*sqlbatch.Server, *serve.Server, *relstore.DB) {
	db, err := prof.Open()
	if err != nil {
		fatal(err)
	}
	load := sqlbatch.NewServerOn(sched, db, prof.ServerConfig(), sqlbatch.DefaultCostModel())
	return load, serve.NewServer(sched, db, serveCfg), db
}

// loadConfig is the cluster load both engines and the HTTP mode run: the
// profile's campaign, as skyload -profile runs it, on the given loaders.
func loadConfig(prof tuning.Profile, loaders int) parallel.Config {
	cfg := loadconfig.FromProfile(prof).ClusterConfig()
	cfg.Loaders = loaders
	return cfg
}

// runOne executes one engine's run and returns the serve report and, in
// mixed mode, the load result and ingest throughput (rows/s over the load
// window).
func runOne(engine string, seed int64, prof tuning.Profile, files []*catalog.File, trace []serve.Request,
	serveCfg serve.Config, loaders int, mixed bool) (serve.Report, *parallel.Result, float64, error) {
	var sched exec.Scheduler
	if engine == "des" {
		sched = exec.NewDES(seed)
	} else {
		sched = exec.NewRealtime(exec.RealtimeConfig{Seed: seed})
	}
	load, qs, db := buildEnv(sched, prof, serveCfg)
	loadCfg := loadConfig(prof, loaders)

	if mixed {
		res, err := serve.RunMixed(load, files, loadCfg, qs, trace)
		if err != nil {
			return serve.Report{}, nil, 0, err
		}
		if orphans, _ := db.VerifyIntegrity(); orphans != 0 {
			return serve.Report{}, nil, 0, fmt.Errorf("%d orphaned rows after mixed run", orphans)
		}
		return res.Serve, &res.Load, res.IngestRowsPerSec, nil
	}
	loadRes, err := parallel.Run(load, files, loadCfg)
	if err != nil {
		return serve.Report{}, nil, 0, err
	}
	rep := qs.Serve(trace)
	return rep, &loadRes, 0, nil
}

func printLoad(res *parallel.Result, mixed bool, ingestRPS float64) {
	if res == nil {
		return
	}
	mode := "load-then-serve"
	if mixed {
		mode = "mixed load+serve"
	}
	fmt.Printf("%s: %d rows loaded across %d files in %s (%.3f MB/s) on %d CPUs\n",
		mode, res.Total.RowsLoaded, res.Total.Files, res.WallTime.Round(time.Microsecond),
		res.ThroughputMBps, runtime.NumCPU())
	if mixed && ingestRPS > 0 {
		fmt.Printf("ingest throughput: %.0f rows/s over the load window\n", ingestRPS)
	}
}

// runFig8 sweeps the loading-phase index policies over the same mixed
// workload on the DES engine: the Figure 8 trade-off (index maintenance cost
// during loading) observed from the query side as latency and hit rate.  On
// top of the paper's three which-indices policies, the sweep exercises the
// engine's real load-policy object: each indexed configuration runs once with
// immediate per-batch maintenance and once deferred (BeginLoad → load →
// Seal), with the bulk rebuild time reported as seal_s and included in
// load_time_s.
func runFig8(files []*catalog.File, trace []serve.Request, serveCfg serve.Config, loaders int, seed int64) {
	type sweepPoint struct {
		indexes  tuning.IndexPolicy
		deferred bool
	}
	points := []sweepPoint{
		{tuning.NoIndexes, false},
		{tuning.HTMIDOnly, false},
		{tuning.HTMIDOnly, true},
		{tuning.HTMIDPlusComposite, false},
		{tuning.HTMIDPlusComposite, true},
	}
	t := &metrics.Table{
		Title:   "Figure 8, live: loading-phase index policy vs mixed-workload serving",
		Columns: []string{"index_policy", "build", "load_time_s", "seal_s", "load_MBps", "served", "cone_p50_ms", "cone_p95_ms", "cone_p99_ms", "hit_rate"},
		Notes: []string{
			"DES engine: deterministic virtual time, one seed, identical workload per row",
			"cone latency includes queue wait; without a ready htmid index cones full-scan the objects table",
			"build=deferred suspends index maintenance during the load and bulk-builds at Seal; load_time_s includes seal_s",
		},
	}
	for _, pt := range points {
		prof := tuning.ProductionLoading()
		prof.Indexes = pt.indexes
		prof.DeferredIndexBuild = pt.deferred
		rep, loadRes, _, err := runOne("des", seed, prof, files, trace, serveCfg, loaders, true)
		if err != nil {
			fatal(err)
		}
		var cone serve.ClassReport
		for _, c := range rep.Classes {
			if c.Class == queries.ClassCone {
				cone = c
			}
		}
		t.AddRow(pt.indexes.String(), prof.BuildPolicy().String(),
			loadRes.WallTime.Seconds(), loadRes.SealTime.Seconds(), loadRes.ThroughputMBps, rep.Served,
			float64(cone.Latency.P50)/1e6, float64(cone.Latency.P95)/1e6, float64(cone.Latency.P99)/1e6,
			rep.Cache.HitRate())
	}
	if err := t.Render(os.Stdout); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "skyserve:", err)
	os.Exit(1)
}
