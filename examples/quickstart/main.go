// Quickstart: generate a small synthetic catalog file, stand up a simulated
// repository database, load the file with the SkyLoader bulk-loading engine
// (batch 40, array 1000 — the paper's production settings) and query the
// result.
//
// Run with:
//
//	go run ./examples/quickstart
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

func main() {
	// 1. A synthetic catalog file standing in for one slice of a night:
	//    nominal 50 MB, scaled to 100 rows per MB.
	file := catalog.Generate(catalog.GenSpec{
		SizeMB:    50,
		Seed:      2005,
		ErrorRate: 0.005,
		RunID:     1,
		IDBase:    10_000_000,
	})
	fmt.Printf("generated %s: %d interleaved rows for %d tables\n",
		file.Name, file.DataRows, len(file.RowsByTable))

	// 2. The repository: the 23-table Palomar-Quest data model hosted by the
	//    embedded engine, with reference data seeded and the production
	//    index policy (htmid only) applied.
	db, err := tuning.OpenRepository(tuning.HTMIDOnly)
	if err != nil {
		log.Fatal(err)
	}

	// 3. The simulated database server and one loader worker on the
	//    deterministic execution scheduler (swap exec.NewDES for
	//    exec.NewRealtime to run the same code on real goroutines — see
	//    examples/wallclock_load).
	sched := exec.NewDES(des.NewKernel(1))
	server := sqlbatch.NewServerOn(sched, db, sqlbatch.DefaultServerConfig(), sqlbatch.DefaultCostModel())

	var stats core.Stats
	sched.Spawn("loader", func(w exec.Worker) {
		conn := server.ConnectWorker(w)
		defer conn.Close()
		loader, err := core.NewLoader(conn, core.DefaultConfig())
		if err != nil {
			log.Fatal(err)
		}
		stats, err = loader.LoadFiles([]*catalog.File{file})
		if err != nil {
			log.Fatal(err)
		}
	})
	sched.Run()

	// 4. Results: loading statistics and a couple of queries.
	fmt.Printf("\nloaded %d rows (%d skipped, %d rejected client-side) in %s of virtual time\n",
		stats.RowsLoaded, stats.RowsSkipped, stats.ParseErrors, stats.Elapsed.Round(1e6))
	fmt.Printf("database calls: %d (batch size %d), commits: %d\n",
		stats.DBCalls, core.DefaultConfig().BatchSize, stats.Commits)

	objects, _ := db.Count(catalog.TObjects)
	fmt.Printf("\nobjects in the repository: %d\n", objects)

	agg, err := db.Aggregate(catalog.TObjects, "mag")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("magnitude range: %.2f .. %.2f (mean %.2f)\n", agg.Min, agg.Max, agg.Mean)

	// Query by position through the htmid index that was kept during loading.
	rows, visited, err := db.SelectEqualIndexed(catalog.TObjects, tuning.HTMIDIndexName, firstHTMID(db))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("objects sharing the first htmid: %d (B-tree nodes visited: %d)\n", len(rows), visited)

	orphans, _ := db.VerifyIntegrity()
	fmt.Printf("orphaned rows after load: %d\n", orphans)
}

// firstHTMID returns the htmid of the first object in heap order.
func firstHTMID(db *relstore.DB) []relstore.Value {
	var key []relstore.Value
	ts := db.Schema().Table(catalog.TObjects)
	idx := ts.ColumnIndex("htmid")
	_ = db.Scan(catalog.TObjects, func(r relstore.Row) bool {
		key = []relstore.Value{r[idx]}
		return false
	})
	return key
}
