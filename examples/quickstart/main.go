// Quickstart: generate a small synthetic catalog file, stand up a simulated
// repository database, load the file with the SkyLoader bulk-loading engine
// (batch 40, array 1000 — the paper's production settings) and query the
// result through internal/queries.
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
	"skyloader/internal/exec"
	"skyloader/internal/queries"
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
	//    exec.NewRealtime to run the same code on real goroutines, as
	//    skyload -wallclock does).
	sched := exec.NewDES(1)
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

	// 4. Loading statistics.
	fmt.Printf("\nloaded %d rows (%d skipped, %d rejected client-side) in %s of virtual time\n",
		stats.RowsLoaded, stats.RowsSkipped, stats.ParseErrors, stats.Elapsed.Round(1e6))
	fmt.Printf("database calls: %d (batch size %d), commits: %d\n",
		stats.DBCalls, core.DefaultConfig().BatchSize, stats.Commits)

	objects, _ := db.Count(catalog.TObjects)
	fmt.Printf("\nobjects in the repository: %d\n", objects)

	// 5. Queries through internal/queries: the Query values the serving
	//    layer and the /v1 HTTP API execute.  A histogram scans the table.
	hist, err := queries.MagHistogram{BinWidth: 1}.Run(db)
	if err != nil {
		log.Fatal(err)
	}
	bins := hist.Bins
	fmt.Printf("magnitude range: %.0f .. %.0f in %d one-mag bins\n", bins[0].Low, bins[len(bins)-1].High, len(bins))

	// A cone search on the file's sky footprint probes the htmid index that
	// was kept during loading.
	cone := queries.Cone{RA: file.RABase + 1, Dec: file.DecBase + 0.3, RadiusDeg: 0.2}
	res, err := cone.Run(db)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cone (%.2f, %.2f) r=%.1f deg: %d objects, %d rows examined (htmid index used: %v)\n",
		cone.RA, cone.Dec, cone.RadiusDeg, len(res.Objects), res.Stats.RowsExamined, res.Stats.UsedIndex)

	// A lookup by primary key of the first object the cone found.
	if len(res.Objects) > 0 {
		hit, err := queries.ObjectLookup{ObjectID: res.Objects[0].ObjectID}.Run(db)
		if err != nil {
			log.Fatal(err)
		}
		o := hit.Objects[0]
		fmt.Printf("object %d: frame %d, htmid %d, mag %.2f\n", o.ObjectID, o.FrameID, o.HTMID, o.Mag)
	}

	orphans, _ := db.VerifyIntegrity()
	fmt.Printf("orphaned rows after load: %d\n", orphans)
}
