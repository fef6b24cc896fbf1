// Nightly ingest: reproduce the production workflow of §4.4 — one
// observation's 28 catalog files of varying size, loaded by five concurrent
// loader processes with dynamic ("on the fly") file assignment, and compare
// it against a single-process load of the same night.
//
// Run with:
//
//	go run ./examples/nightly_ingest
package main

import (
	"fmt"
	"log"

	"skyloader/internal/catalog"
	"skyloader/internal/core"
	"skyloader/internal/des"
	"skyloader/internal/parallel"
	"skyloader/internal/sqlbatch"
	"skyloader/internal/tuning"
)

// newRepository builds a fresh simulated repository and server.
func newRepository(seed int64) (*sqlbatch.Server, error) {
	kernel := des.NewKernel(seed)
	db, err := tuning.OpenRepository(tuning.HTMIDOnly)
	if err != nil {
		return nil, err
	}
	return sqlbatch.NewServer(kernel, db, sqlbatch.DefaultServerConfig(), sqlbatch.DefaultCostModel()), nil
}

func main() {
	// One observation: ~700 nominal MB of catalog data split over 28 files
	// whose sizes vary, exactly the property that motivates dynamic
	// assignment.
	night := catalog.NightSpec{
		TotalMB:   700,
		Seed:      20051112,
		ErrorRate: 0.002,
		RunID:     1,
	}

	for _, cfg := range []struct {
		name    string
		loaders int
	}{
		{"single loader", 1},
		{"5 parallel loaders (production)", 5},
	} {
		server, err := newRepository(night.Seed)
		if err != nil {
			log.Fatal(err)
		}
		files := catalog.GenerateNight(night)
		res, err := parallel.Run(server, files, parallel.Config{
			Loaders:    cfg.loaders,
			Assignment: parallel.Dynamic,
			Loader:     core.DefaultConfig(),
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-34s wall time %9s   throughput %5.2f MB/s   lock waits %4d   stalls %d\n",
			cfg.name, res.WallTime.Round(1e9), res.ThroughputMBps, res.Total.LockWaits, res.Total.LongStalls)

		if cfg.loaders > 1 {
			fmt.Println("\nper-node balance (dynamic assignment):")
			for _, n := range res.Nodes {
				fmt.Printf("  node %d: %2d files, %8d rows, busy %s\n",
					n.Node, len(n.FilesDone), n.Stats.RowsLoaded, (n.FinishedAt - n.StartedAt).Round(1e9))
			}
			objects, _ := server.DB().Count(catalog.TObjects)
			orphans, _ := server.DB().VerifyIntegrity()
			fmt.Printf("\nrepository after ingest: %d objects, %d orphans\n", objects, orphans)
		}
	}
}
