// Tuning study: measure the effect of the §4.5 database and system tuning
// decisions on one 200 MB load — secondary-index policy, commit frequency and
// data-cache size — and print a small report comparing the untuned
// configuration with the production loading profile.
//
// Run with:
//
//	go run ./examples/tuning_study
package main

import (
	"fmt"
	"log"
	"os"

	"skyloader/internal/catalog"
	"skyloader/internal/core"
	"skyloader/internal/des"
	"skyloader/internal/exec"
	"skyloader/internal/metrics"
	"skyloader/internal/sqlbatch"
	"skyloader/internal/tuning"
)

// runOnce loads a 200 MB file under the given tuning profile and returns the
// loader statistics.
func runOnce(prof tuning.Profile) core.Stats {
	db, err := prof.Open()
	if err != nil {
		log.Fatal(err)
	}
	sched := exec.NewDES(des.NewKernel(4))
	server := sqlbatch.NewServerOn(sched, db, prof.ServerConfig(), sqlbatch.DefaultCostModel())

	file := catalog.Generate(catalog.GenSpec{
		SizeMB: 200, Seed: 31, ErrorRate: 0.002, RunID: 1, IDBase: 10_000_000,
	})

	var stats core.Stats
	sched.Spawn("loader", func(w exec.Worker) {
		conn := server.ConnectWorker(w)
		defer conn.Close()
		cfg := core.DefaultConfig()
		cfg.CommitEveryBatches = prof.CommitEveryBatches
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
	return stats
}

func main() {
	profiles := []tuning.Profile{
		tuning.Untuned(),
		tuning.QueryServing(),
		tuning.ProductionLoading(),
	}

	tbl := &metrics.Table{
		Title: "Effect of the §4.5 tuning decisions on a 200 MB load (virtual seconds)",
		Columns: []string{
			"profile", "indexes", "commit_every_batches", "cache_pages", "runtime_s", "commits",
		},
	}
	var runtimes []float64
	for _, prof := range profiles {
		stats := runOnce(prof)
		runtimes = append(runtimes, stats.Elapsed.Seconds())
		tbl.AddRow(prof.Name, prof.Indexes.String(), prof.CommitEveryBatches, prof.CachePages,
			stats.Elapsed.Seconds(), stats.Commits)
	}
	if err := tbl.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}

	best := metrics.ArgMin(runtimes)
	worst := metrics.ArgMax(runtimes)
	fmt.Printf("\n%s is %.1f%% faster than %s on this load, mirroring the paper's decision to\n",
		profiles[best].Name,
		metrics.PercentChange(runtimes[worst], runtimes[best]),
		profiles[worst].Name)
	fmt.Println("drop most secondary indices, commit rarely and keep the data cache small while in the")
	fmt.Println("intensive loading phase, then rebuild indices and enlarge the cache for query serving.")
}
