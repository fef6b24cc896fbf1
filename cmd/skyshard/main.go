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
// host can run for real.  The package tests hold the fleet to one node:
// TestTCPFleetKillRestart (internal/shard) loads three agents over loopback
// TCP, kills one and restores it; httpserve's contract tests serve the /v1
// API and the scrape over a fleet.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"skyloader/internal/catalog"
	"skyloader/internal/exec"
	"skyloader/internal/httpserve"
	"skyloader/internal/shard"
)

func main() {
	var (
		agentMode = flag.Bool("agent", false, "run one shard agent")
		listen    = flag.String("listen", "127.0.0.1:7101", "agent: address to serve the framed protocol on")

		coordMode = flag.Bool("coordinator", false, "run the coordinator over a fleet of agents")
		agents    = flag.String("agents", "", "coordinator: comma-separated agent addresses")
		httpAddr  = flag.String("http", ":8080", "coordinator: HTTP front door address")

		simN = flag.Int("sim", 0, "run an N-shard deterministic DES simulation")

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
