// Command skyshard runs the distributed shard layer: a coordinator that
// partitions the HTM sky across a fleet of agents (each owning one
// contiguous trixel range in its own private store) and serves the /v1
// query API by scattering to the owning shards and merging the sorted
// partial results.
//
// Usage:
//
//	skyshard -agent -listen 127.0.0.1:7101                 # one shard agent
//	skyshard -coordinator -agents host1:7101,host2:7101 \
//	         -http :8080 -size 20                          # front the fleet
//	skyshard -sim 100 -size 16 -queries 2000               # 100-node DES sim
//	skyshard -smoke                                        # CI end-to-end check
//
// Topology:
//
//	         ┌────────────┐   /v1/cone /v1/object /v1/frame /v1/maghist
//	HTTP ───►│ coordinator│   /healthz (fleet-wide)  /metrics (sky_shard_* + sky_serve_*)
//	         └─────┬──────┘
//	   framed TCP  │  scatter to trixel-overlapping shards only
//	     ┌─────────┼─────────┐
//	     ▼         ▼         ▼
//	┌────────┐ ┌────────┐ ┌────────┐
//	│agent 0 │ │agent 1 │ │agent 2 │   each: private relstore.DB owning
//	│[lo..a] │ │[a+1..b]│ │[b+1..hi]│  one contiguous HTM trixel range
//	└────────┘ └────────┘ └────────┘
//
// -sim N runs the same coordinator/agent code over the in-process simulated
// transport on the DES kernel: N shards with modeled network latency and
// bandwidth, deterministic across runs — topologies far larger than the
// host can run for real.  -smoke drives a real 3-agent TCP fleet against a
// single-node oracle, kills and restores an agent mid-run, checks the
// /metrics scrape and verifies sim determinism; CI runs it as `make
// smoke-shard`.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"reflect"
	"strings"
	"syscall"
	"time"

	"skyloader/internal/catalog"
	"skyloader/internal/core"
	"skyloader/internal/exec"
	"skyloader/internal/httpserve"
	"skyloader/internal/parallel"
	"skyloader/internal/queries"
	"skyloader/internal/relstore"
	"skyloader/internal/serve"
	"skyloader/internal/shard"
	"skyloader/internal/sqlbatch"
	"skyloader/internal/tuning"
)

func main() {
	var (
		agentMode = flag.Bool("agent", false, "run one shard agent")
		listen    = flag.String("listen", "127.0.0.1:7101", "agent: address to serve the framed protocol on")

		coordMode = flag.Bool("coordinator", false, "run the coordinator over a fleet of agents")
		agents    = flag.String("agents", "", "coordinator: comma-separated agent addresses")
		httpAddr  = flag.String("http", ":8080", "coordinator: HTTP front door address")

		simN  = flag.Int("sim", 0, "run an N-shard deterministic DES simulation")
		smoke = flag.Bool("smoke", false, "end-to-end CI check; nonzero exit on failure")

		size      = flag.Float64("size", 8, "nominal catalog MB to generate and load")
		nfiles    = flag.Int("files", 4, "number of catalog files")
		rowsPerMB = flag.Int("rows-per-mb", 150, "generated rows per nominal MB")
		seed      = flag.Int64("seed", 1, "random seed (catalog, workload, DES kernel)")
		nQueries  = flag.Int("queries", 400, "sim: number of queries to generate")
		coneFrac  = flag.Float64("cone-frac", 0.5, "sim: cone-search fraction of the workload")
		deferred  = flag.Bool("deferred", false, "wrap the fleet load in a BeginLoad/Seal window")
	)
	flag.Parse()

	switch {
	case *smoke:
		if err := runSmoke(); err != nil {
			fatal(err)
		}
		fmt.Println("smoke: OK")
	case *agentMode:
		if err := runAgent(*listen); err != nil {
			fatal(err)
		}
	case *coordMode:
		if err := runCoordinator(*agents, *httpAddr, *size, *nfiles, *rowsPerMB, *seed, *deferred); err != nil {
			fatal(err)
		}
	case *simN > 0:
		rep, err := shard.RunSim(shard.SimConfig{
			Shards:    *simN,
			Seed:      *seed,
			SizeMB:    *size,
			Files:     *nfiles,
			RowsPerMB: *rowsPerMB,
			Queries:   *nQueries,
			ConeFrac:  *coneFrac,
			Deferred:  *deferred,
		})
		if err != nil {
			fatal(err)
		}
		rep.Render(os.Stdout)
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// runAgent serves one shard on a socket until interrupted.  The agent has no
// identity until a coordinator sends Hello.
func runAgent(listen string) error {
	sched := exec.NewRealtime(exec.RealtimeConfig{Seed: 1})
	a, err := shard.NewAgent(sched, shard.DefaultAgentConfig())
	if err != nil {
		return err
	}
	srv, err := shard.ServeAgent(a, sched, listen)
	if err != nil {
		return err
	}
	fmt.Printf("skyshard agent: serving on %s\n", srv.Addr())
	waitForSignal()
	return srv.Close()
}

// runCoordinator dials the fleet, partitions the sky from the generated
// night's footprints, loads through the agents and fronts the /v1 API.
func runCoordinator(agentList, httpAddr string, size float64, nfiles, rowsPerMB int, seed int64, deferred bool) error {
	addrs := splitNonEmpty(agentList)
	if len(addrs) == 0 {
		return fmt.Errorf("coordinator mode needs -agents host:port,host:port,...")
	}
	sched := exec.NewRealtime(exec.RealtimeConfig{Seed: seed})
	inline := sched // realtime implements exec.InlineRunner
	files := catalog.GenerateNight(catalog.NightSpec{
		TotalMB: size, Files: nfiles, RowsPerMB: rowsPerMB, Seed: seed, RunID: 1,
	})
	pm, err := shard.PartitionFromFiles(files, len(addrs))
	if err != nil {
		return err
	}
	clients := make([]shard.Client, len(addrs))
	for i, addr := range addrs {
		cl, err := shard.DialShard(addr)
		if err != nil {
			return err
		}
		clients[i] = cl
	}
	co, err := shard.New(sched, pm, clients, shard.Config{Deferred: deferred})
	if err != nil {
		return err
	}
	defer co.Close()

	var loadErr error
	inline.RunInline("skyshard-load", func(w exec.Worker) {
		if err := co.Hello(w); err != nil {
			loadErr = err
			return
		}
		start := time.Now()
		rep, err := co.LoadFiles(w, files)
		if err != nil {
			loadErr = err
			return
		}
		fmt.Printf("fleet load: %d rows across %d files to %d shards in %s (%d tasks, %d rows skipped)\n",
			rep.RowsLoaded, rep.Files, len(addrs), time.Since(start).Round(time.Millisecond), rep.Tasks, rep.RowsSkipped)
	})
	if loadErr != nil {
		return loadErr
	}

	front, err := httpserve.NewShard(co, httpserve.Config{})
	if err != nil {
		return err
	}
	addr, err := front.Start(httpAddr)
	if err != nil {
		return err
	}
	fmt.Printf("skyshard coordinator: %d shards, serving /v1 on http://%s\n", len(addrs), addr)
	waitForSignal()
	return front.Close()
}

// runSmoke is the CI end-to-end check: a real 3-agent TCP fleet verified
// byte-for-byte against a single-node oracle, an agent killed and restored
// mid-run, the /metrics scrape validated, and the DES sim run twice for
// determinism.
func runSmoke() error {
	files := catalog.GenerateNight(catalog.NightSpec{TotalMB: 2, Files: 3, RowsPerMB: 150, Seed: 31})
	oracle, err := buildOracle(files)
	if err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	qs := smokeQueries(files)

	sched := exec.NewRealtime(exec.RealtimeConfig{Seed: 3})
	inline := exec.InlineRunner(sched)
	const n = 3
	servers := make([]*shard.AgentServer, n)
	clients := make([]shard.Client, n)
	for i := 0; i < n; i++ {
		a, err := shard.NewAgent(sched, shard.DefaultAgentConfig())
		if err != nil {
			return err
		}
		srv, err := shard.ServeAgent(a, sched, "127.0.0.1:0")
		if err != nil {
			return err
		}
		defer srv.Close()
		servers[i] = srv
		cl, err := shard.DialShard(srv.Addr().String())
		if err != nil {
			return err
		}
		clients[i] = cl
	}
	pm, err := shard.PartitionFromFiles(files, n)
	if err != nil {
		return err
	}
	co, err := shard.New(sched, pm, clients, shard.Config{})
	if err != nil {
		return err
	}
	defer co.Close()

	var setupErr error
	var loaded int64
	inline.RunInline("smoke-setup", func(w exec.Worker) {
		if setupErr = co.Hello(w); setupErr != nil {
			return
		}
		var rep shard.LoadReport
		if rep, setupErr = co.LoadFiles(w, files); setupErr == nil {
			loaded = rep.RowsLoaded
		}
	})
	if setupErr != nil {
		return setupErr
	}
	if loaded == 0 {
		return fmt.Errorf("fleet loaded zero rows")
	}
	fmt.Printf("smoke: loaded %d rows across %d TCP shards\n", loaded, n)

	if err := verifyAgainstOracle(co, inline, oracle, qs); err != nil {
		return fmt.Errorf("initial verify: %w", err)
	}
	fmt.Printf("smoke: %d queries byte-identical to single-node oracle\n", len(qs))

	// Kill shard 1 and confirm the fleet reads unready, then restore onto a
	// fresh agent from the files this run still holds (the coordinator kept
	// none of them) and re-verify.
	if err := servers[1].Close(); err != nil {
		return err
	}
	var ready bool
	inline.RunInline("smoke-probe", func(w exec.Worker) { ready = co.Ready(w) })
	if ready {
		return fmt.Errorf("fleet reported ready with a dead shard")
	}
	replacement, err := shard.NewAgent(sched, shard.DefaultAgentConfig())
	if err != nil {
		return err
	}
	srv, err := shard.ServeAgent(replacement, sched, "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer srv.Close()
	cl, err := shard.DialShard(srv.Addr().String())
	if err != nil {
		return err
	}
	var restoreErr error
	inline.RunInline("smoke-restore", func(w exec.Worker) { restoreErr = co.RestoreShard(w, 1, cl, files) })
	if restoreErr != nil {
		return fmt.Errorf("restore: %w", restoreErr)
	}
	if err := verifyAgainstOracle(co, inline, oracle, qs); err != nil {
		return fmt.Errorf("post-restore verify: %w", err)
	}
	fmt.Println("smoke: shard 1 killed, restored from the caller's files, re-verified")

	// The HTTP front door over the same fleet: one query per class and a
	// valid scrape carrying the fleet's families.
	front, err := httpserve.NewShard(co, httpserve.Config{})
	if err != nil {
		return err
	}
	addr, err := front.Start("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer front.Close()
	if err := httpserve.Smoke("http://"+addr.String(), httpserve.FleetFamilies...); err != nil {
		return fmt.Errorf("http front: %w", err)
	}
	fmt.Println("smoke: /v1 front door served all classes; /metrics scrape valid with sky_shard_* and sky_serve_* families")

	// Sim determinism: the same config twice must render byte-identically.
	var out [2]bytes.Buffer
	for i := range out {
		rep, err := shard.RunSim(shard.SimConfig{Shards: 5, Seed: 99, SizeMB: 1, Files: 4, RowsPerMB: 120, Queries: 60})
		if err != nil {
			return fmt.Errorf("sim run %d: %w", i, err)
		}
		rep.Render(&out[i])
	}
	if !bytes.Equal(out[0].Bytes(), out[1].Bytes()) {
		return fmt.Errorf("sim not deterministic:\n--- run 1 ---\n%s--- run 2 ---\n%s", out[0].String(), out[1].String())
	}
	fmt.Println("smoke: 5-shard DES sim deterministic across two runs")
	return nil
}

// buildOracle loads the files into a single-node database — the reference
// every scatter-gather answer must match byte for byte.
func buildOracle(files []*catalog.File) (*relstore.DB, error) {
	sched := exec.NewRealtime(exec.RealtimeConfig{Seed: 1})
	prof := tuning.ProductionLoading()
	db, err := prof.Open()
	if err != nil {
		return nil, err
	}
	srv := sqlbatch.NewServerOn(sched, db, prof.ServerConfig(), sqlbatch.DefaultCostModel())
	_, err = parallel.Run(srv, files, parallel.Config{
		Loaders:       1,
		Loader:        core.Config{BatchSize: 40, ArraySize: 1000, ChargeStaging: true},
		SealAfterLoad: prof.DeferredIndexBuild,
	})
	if err != nil {
		return nil, err
	}
	return db, nil
}

// smokeQueries is a small mixed workload aimed at the generated footprint.
func smokeQueries(files []*catalog.File) []queries.Query {
	trace := serve.GenTrace(serve.TraceSpec{
		Queries:    20,
		Seed:       909,
		ConeFrac:   0.5,
		Objects:    128,
		IDBase:     100_000_000,
		Frames:     12,
		RatePerSec: 100,
	}.WithFootprint(files))
	qs := make([]queries.Query, 0, len(trace)+4)
	for _, r := range trace {
		qs = append(qs, r.Query)
	}
	// Fixed cases: a hit cone, an empty cone, a miss lookup, a histogram.
	qs = append(qs,
		queries.Cone{RA: files[0].RABase + 1.0, Dec: files[0].DecBase + 0.4, RadiusDeg: 1.5},
		queries.Cone{RA: 200, Dec: -75, RadiusDeg: 0.2},
		queries.ObjectLookup{ObjectID: 42},
		queries.MagHistogram{BinWidth: 0.5},
	)
	return qs
}

// verifyAgainstOracle requires every fleet answer to JSON-match the oracle's
// and at least one query to return rows (an all-empty pass proves nothing).
func verifyAgainstOracle(co *shard.Coordinator, inline exec.InlineRunner, oracle *relstore.DB, qs []queries.Query) error {
	nonEmpty := 0
	for i, q := range qs {
		want, err := q.Run(oracle)
		if err != nil {
			return fmt.Errorf("query %d: oracle: %w", i, err)
		}
		var got queries.Result
		var execErr error
		inline.RunInline("smoke-query", func(w exec.Worker) {
			got, execErr = co.Execute(w, q, nil)
		})
		if execErr != nil {
			return fmt.Errorf("query %d (%s): fleet: %w", i, q.Class(), execErr)
		}
		wantJS, _ := json.Marshal(struct {
			Objects []queries.Object
			Bins    []queries.MagnitudeBin
		}{want.Objects, want.Bins})
		gotJS, _ := json.Marshal(struct {
			Objects []queries.Object
			Bins    []queries.MagnitudeBin
		}{got.Objects, got.Bins})
		if !bytes.Equal(wantJS, gotJS) {
			return fmt.Errorf("query %d (%s): fleet differs from oracle\n got %s\nwant %s", i, q.Class(), gotJS, wantJS)
		}
		if len(want.Objects)+len(want.Bins) > 0 {
			nonEmpty++
		}
		if !reflect.DeepEqual(want.Stats.RowsReturned, got.Stats.RowsReturned) {
			return fmt.Errorf("query %d (%s): rows returned %d != oracle %d", i, q.Class(), got.Stats.RowsReturned, want.Stats.RowsReturned)
		}
	}
	if nonEmpty == 0 {
		return fmt.Errorf("all %d queries returned empty results", len(qs))
	}
	return nil
}

func splitNonEmpty(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func waitForSignal() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	<-ch
	fmt.Println()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "skyshard:", err)
	os.Exit(1)
}
