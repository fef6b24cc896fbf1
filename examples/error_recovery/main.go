// Error recovery: demonstrate the batch_row index-tracing recovery of §4.2
// and §4.3.  A catalog file is generated with a high rate of corrupted rows
// (duplicate keys, out-of-range values, missing values, orphaned references,
// malformed numbers); the loader must skip exactly the bad rows, keep every
// good row, and leave the repository referentially consistent — while the
// number of database calls grows as errors break batches apart.
//
// Run with:
//
//	go run ./examples/error_recovery
package main

import (
	"fmt"
	"log"

	"skyloader/internal/catalog"
	"skyloader/internal/core"
	"skyloader/internal/des"
	"skyloader/internal/exec"
	"skyloader/internal/relstore"
	"skyloader/internal/sqlbatch"
	"skyloader/internal/tuning"
)

func load(errorRate float64) (core.Stats, *relstore.DB) {
	db, err := tuning.OpenRepository(tuning.NoIndexes)
	if err != nil {
		log.Fatal(err)
	}
	sched := exec.NewDES(des.NewKernel(9))
	server := sqlbatch.NewServerOn(sched, db, sqlbatch.DefaultServerConfig(), sqlbatch.DefaultCostModel())

	file := catalog.Generate(catalog.GenSpec{
		SizeMB:    40,
		Seed:      77,
		ErrorRate: errorRate,
		RunID:     1,
		IDBase:    10_000_000,
	})

	var stats core.Stats
	sched.Spawn("loader", func(w exec.Worker) {
		conn := server.ConnectWorker(w)
		defer conn.Close()
		cfg := core.DefaultConfig()
		cfg.RecordProvenance = true
		loader, err := core.NewLoader(conn, cfg)
		if err != nil {
			log.Fatal(err)
		}
		stats, err = loader.LoadFiles([]*catalog.File{file})
		if err != nil {
			log.Fatal(err)
		}
	})
	sched.Run()
	return stats, db
}

func main() {
	fmt.Println("error rate   rows loaded   skipped(db)   rejected(client)   db calls   virtual time")
	fmt.Println("----------   -----------   -----------   ----------------   --------   ------------")
	for _, rate := range []float64{0, 0.02, 0.10, 0.30} {
		stats, db := load(rate)
		orphans, _ := db.VerifyIntegrity()
		if orphans != 0 {
			log.Fatalf("error rate %.2f left %d orphans", rate, orphans)
		}
		fmt.Printf("%10.2f   %11d   %11d   %16d   %8d   %12s\n",
			rate, stats.RowsLoaded, stats.RowsSkipped, stats.ParseErrors, stats.DBCalls, stats.Elapsed.Round(1e6))
	}

	// Show the provenance trail recorded for the dirtiest run.
	stats, db := load(0.30)
	errRows, _ := db.Count(catalog.TLoadErrors)
	fmt.Printf("\nwith a 30%% error rate the loader recorded %d load_errors rows; examples:\n", errRows)
	shown := 0
	for _, s := range stats.Skipped {
		fmt.Printf("  line %5d  %-22s %s\n", s.SourceLine, s.Table, truncate(s.Reason, 80))
		shown++
		if shown == 5 {
			break
		}
	}
	fmt.Printf("\nevery remaining row loaded exactly once; the repository stays consistent because\n")
	fmt.Printf("rows are skipped individually and batches are repacked after each failure (Fig. 3).\n")
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
}
