// Wallclock load: run the SkyLoader cluster as real goroutines on the
// real-concurrency execution layer, and compare it against (a) the same
// cluster with a single loader, and (b) the deterministic virtual-time
// prediction of the discrete-event simulation.
//
// This is the demo of the execution abstraction introduced in internal/exec:
// the same parallel.Run coordinator, sqlbatch server and relstore engine run
// in both modes; only the scheduler differs.  On a multi-core host the
// N-loader wall-clock run should approach the §5.3 near-linear scaling for
// real — bounded by cores, per-table locks and the transaction-slot limit —
// while on a single core it measures the locking overhead of the concurrent
// engine.
//
// Run with:
//
//	go run ./examples/wallclock_load
package main

import (
	"fmt"
	"log"
	"runtime"
	"time"

	"skyloader/internal/catalog"
	"skyloader/internal/core"
	"skyloader/internal/des"
	"skyloader/internal/exec"
	"skyloader/internal/parallel"
	"skyloader/internal/sqlbatch"
	"skyloader/internal/tuning"
)

const (
	nightMB   = 120
	nightFile = 24
	loaders   = 4
	seed      = 2005
)

func main() {
	fmt.Printf("host: %d CPUs (GOMAXPROCS %d)\n\n", runtime.NumCPU(), runtime.GOMAXPROCS(0))

	// One synthetic observation night, split into files of varying size the
	// way the Palomar-Quest pipeline delivers them.
	files := catalog.GenerateNight(catalog.NightSpec{
		TotalMB: nightMB, Files: nightFile, Seed: seed, ErrorRate: 0.002, RunID: 1, Skew: 2,
	})
	fmt.Printf("generated night: %d files, %.0f nominal MB\n\n", len(files), float64(nightMB))

	// Baseline 1: the deterministic DES prediction of the N-loader cluster on
	// the paper's hardware.
	simRes := runCluster(exec.NewDES(des.NewKernel(seed)), files, loaders)
	fmt.Printf("virtual-time prediction (%d loaders, paper hardware): %s\n\n",
		loaders, simRes.WallTime.Round(time.Millisecond))

	// Baseline 2: one real loader goroutine (wall clock).
	oneRes := runCluster(exec.NewRealtime(exec.RealtimeConfig{Seed: seed}), files, 1)
	fmt.Printf("wall-clock, 1 loader:  %s (%.1f MB/s)\n",
		oneRes.WallTime.Round(time.Millisecond), oneRes.ThroughputMBps)

	// The real parallel run: N loader goroutines, dynamic file handoff over a
	// channel, per-table locks and blocking admission in the engine.
	parRes := runCluster(exec.NewRealtime(exec.RealtimeConfig{Seed: seed}), files, loaders)
	fmt.Printf("wall-clock, %d loaders: %s (%.1f MB/s)\n\n",
		loaders, parRes.WallTime.Round(time.Millisecond), parRes.ThroughputMBps)

	fmt.Println("per-node throughput (parallel run):")
	for _, n := range parRes.Nodes {
		el := n.FinishedAt - n.StartedAt
		mbps := 0.0
		if el > 0 {
			mbps = float64(n.Stats.NominalBytes) / 1e6 / el.Seconds()
		}
		fmt.Printf("  node %d: %2d files %6d rows in %8s  (%.1f MB/s)\n",
			n.Node, len(n.FilesDone), n.Stats.RowsLoaded, el.Round(time.Millisecond), mbps)
	}

	speedup := oneRes.WallTime.Seconds() / parRes.WallTime.Seconds()
	fmt.Printf("\nspeedup %d loaders vs 1 (wall clock):        %.2fx\n", loaders, speedup)
	fmt.Printf("speedup vs virtual-time prediction:          %.0fx faster than the simulated %s\n",
		simRes.WallTime.Seconds()/parRes.WallTime.Seconds(), simRes.WallTime.Round(time.Millisecond))

	if runtime.NumCPU() == 1 {
		fmt.Println("\n(single-CPU host: goroutines timeshare one core, so the parallel run")
		fmt.Println(" measures locking overhead rather than scaling; on an N-core host the")
		fmt.Println(" speedup approaches the paper's near-linear curve until the txn-slot")
		fmt.Println(" limit and lock contention flatten it)")
	}
}

// runCluster builds a fresh repository on sched and loads the night with n
// loaders.
func runCluster(sched exec.Scheduler, files []*catalog.File, n int) parallel.Result {
	db, err := tuning.OpenRepository(tuning.HTMIDOnly)
	if err != nil {
		log.Fatal(err)
	}
	server := sqlbatch.NewServerOn(sched, db, sqlbatch.DefaultServerConfig(), sqlbatch.DefaultCostModel())
	res, err := parallel.Run(server, files, parallel.Config{
		Loaders: n, Assignment: parallel.Dynamic, Loader: core.DefaultConfig(),
	})
	if err != nil {
		log.Fatal(err)
	}
	if orphans, _ := db.VerifyIntegrity(); orphans != 0 {
		log.Fatalf("orphaned rows after load: %d", orphans)
	}
	return res
}
