// Mixed load+serve walkthrough: the repository answering science queries
// WHILE a night's catalog files are being bulk-loaded into it — the paper's
// dual-purpose system (§4.5.1) end to end.
//
// The run is deterministic: everything is co-scheduled on the discrete-event
// kernel, so loading, queueing and query service interleave in virtual time
// and one seed reproduces the same latency report every time.
//
// Run with: go run ./examples/mixed_serving
package main

import (
	"fmt"
	"log"
	"os"

	"skyloader/internal/catalog"
	"skyloader/internal/core"
	"skyloader/internal/des"
	"skyloader/internal/exec"
	"skyloader/internal/parallel"
	"skyloader/internal/serve"
	"skyloader/internal/sqlbatch"
	"skyloader/internal/tuning"
)

func main() {
	const seed = 7

	// 1. A night of catalog files and a Zipf-hot query trace: a few popular
	//    sky fields and objects dominate, which is what makes the result
	//    cache effective.
	files := catalog.GenerateNight(catalog.NightSpec{
		TotalMB: 12, Files: 6, RowsPerMB: 100, Seed: seed, RunID: 1,
	})
	trace := serve.GenTrace(serve.TraceSpec{
		Queries:    800,
		Seed:       seed,
		ConeFrac:   0.4,
		Objects:    3000,
		IDBase:     100_000_000, // matches the first generated file
		Frames:     150,
		RatePerSec: 150,
	}.WithFootprint(files)) // cone fields on the files' actual sky footprints

	// 2. One database, one scheduler, two servers: the sqlbatch load server
	//    the cluster nodes connect to, and the query server with its worker
	//    pool, admission queue and epoch-invalidated result cache.
	sched := exec.NewDES(des.NewKernel(seed))
	prof := tuning.ProductionLoading() // htmid index only: the Figure 8 choice
	db, err := prof.Open()
	if err != nil {
		log.Fatal(err)
	}
	loadServer := sqlbatch.NewServerOn(sched, db, prof.ServerConfig(), sqlbatch.DefaultCostModel())
	queryServer := serve.NewServer(sched, db, serve.Config{
		Workers:    4,
		QueueDepth: 32,
	})

	// 3. Run the mixed scenario: 3 loader nodes race 800 queries.
	res, err := serve.RunMixed(loadServer, files, parallel.Config{
		Loaders: 3,
		Loader:  core.Config{BatchSize: 40, ArraySize: 1000, ChargeStaging: true},
	}, queryServer, trace)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("loaded %d rows from %d files in %s of virtual time (%.3f MB/s)\n",
		res.Load.Total.RowsLoaded, res.Load.Total.Files,
		res.Load.WallTime.Round(1e6), res.Load.ThroughputMBps)
	fmt.Printf("served %d queries meanwhile; uncacheable dirty-read answers: %d\n\n",
		res.Serve.Served, res.Serve.Unstable)
	if err := res.Serve.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}

	orphans, _ := db.VerifyIntegrity()
	fmt.Printf("\norphaned rows after the mixed run: %d\n", orphans)
}
