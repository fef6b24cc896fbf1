// Command skyload loads catalog files into a simulated Palomar-Quest
// repository with the SkyLoader framework and reports loading statistics:
// rows loaded per table, rows skipped and why, database calls, commits, and
// the virtual loading time the same run would have taken on the paper's
// hardware.
//
// Usage:
//
//	skyload night01/*.cat                      # parallel bulk load (defaults)
//	skyload -loaders 1 -batch 40 file.cat      # single-process bulk load
//	skyload -nonbulk file.cat                  # row-at-a-time baseline
//	skyload -profile untuned night01/*.cat     # eager indices, frequent commits
//	skyload -index-policy deferred night01/*.cat # suspend index maintenance, bulk-build at Seal
//	skyload -config campaign.json night01/*.cat # JSON campaign configuration
//	skyload -size 200                          # no files: generate 200 MB in memory
//	skyload -wallclock -loaders 4 -size 200    # real goroutines, wall-clock timing
//	skyload -crash -seed 7 -size 2             # kill/recover durability scenario
//
// When -config is given the campaign file (see internal/loadconfig) supplies
// the loader tunables, parallelism and database tuning, and the individual
// -loaders/-batch/-array/-commit-every/-profile/-static flags are ignored.
//
// Execution modes: by default the load runs on the deterministic
// discrete-event kernel and the reported load time is *virtual* — the time
// the same run would have taken on the paper's hardware.  With -wallclock
// the loaders are real goroutines against the concurrent engine, the
// reported time is real elapsed time on this host, and the deterministic
// simulation is run alongside so the report shows the real measurement next
// to the virtual-time prediction.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"

	"skyloader/internal/catalog"
	"skyloader/internal/core"
	"skyloader/internal/des"
	"skyloader/internal/exec"
	"skyloader/internal/loadconfig"
	"skyloader/internal/parallel"
	"skyloader/internal/relstore"
	"skyloader/internal/sqlbatch"
	"skyloader/internal/tuning"
)

func main() {
	var (
		loaders    = flag.Int("loaders", 5, "number of concurrent loader processes")
		batch      = flag.Int("batch", 40, "rows per database call (batch-size)")
		array      = flag.Int("array", 1000, "rows per buffer array (array-size)")
		commit     = flag.Int("commit-every", 0, "commit every N batches (0 = end of each file)")
		nonBulk    = flag.Bool("nonbulk", false, "use the row-at-a-time baseline loader")
		static     = flag.Bool("static", false, "use static file assignment instead of dynamic")
		profile    = flag.String("profile", "production", "tuning profile: production|untuned|query")
		idxBuild   = flag.String("index-policy", "immediate", "secondary-index maintenance: immediate (per batch) or deferred (bulk-build at end-of-load Seal)")
		configPath = flag.String("config", "", "JSON campaign configuration file (overrides the tuning flags)")
		size       = flag.Float64("size", 0, "generate a catalog of this nominal MB instead of reading files")
		nfiles     = flag.Int("files", 1, "number of files to split a generated -size catalog into (parallel loaders need >1)")
		rowsPerMB  = flag.Int("rows-per-mb", 100, "generated rows per nominal MB (for -size and provenance)")
		errRate    = flag.Float64("error-rate", 0.002, "error rate for generated input")
		seed       = flag.Int64("seed", 1, "random seed")
		provenance = flag.Bool("provenance", false, "record load_runs/load_errors provenance rows")
		verbose    = flag.Bool("v", false, "print per-table row counts and skipped-row details")
		wallclock  = flag.Bool("wallclock", false, "run loaders as real goroutines and report real elapsed time")

		crash = flag.Bool("crash", false, "run the kill/recover durability scenario: WAL-backed load killed at a random append (derived from -seed), recovered, resumed, and verified byte-identical to an uninterrupted run")
	)
	flag.Parse()

	if *crash {
		runCrash(*seed, *size, *batch, *verbose)
		return
	}

	// Resolve the campaign settings: either a JSON configuration file or the
	// individual flags plus a named tuning profile.
	var (
		srvCfg      sqlbatch.ServerConfig
		indexPolicy tuning.IndexPolicy
		buildPolicy relstore.IndexPolicy
		loaderCfg   core.Config
		clusterCfg  parallel.Config
	)
	if *configPath != "" {
		campaign, err := loadconfig.Load(*configPath)
		if err != nil {
			fatal(err)
		}
		srvCfg = campaign.ServerConfig()
		indexPolicy = campaign.IndexPolicyValue()
		buildPolicy = campaign.BuildPolicyValue()
		loaderCfg = campaign.LoaderConfig()
		loaderCfg.RecordProvenance = loaderCfg.RecordProvenance || *provenance
		clusterCfg = campaign.ClusterConfig()
		clusterCfg.Loader = loaderCfg
		if campaign.Seed != 0 {
			*seed = campaign.Seed
		}
		if campaign.RowsPerMB > 0 {
			*rowsPerMB = campaign.RowsPerMB
		}
	} else {
		prof, err := tuning.ProfileByName(*profile)
		if err != nil {
			fatal(err)
		}
		buildPolicy, err = relstore.ParseIndexPolicy(*idxBuild)
		if err != nil {
			fatal(err)
		}
		srvCfg = prof.ServerConfig()
		indexPolicy = prof.Indexes
		loaderCfg = core.Config{
			BatchSize:          *batch,
			ArraySize:          *array,
			CommitEveryBatches: *commit,
			RecordProvenance:   *provenance,
		}
		if loaderCfg.CommitEveryBatches == 0 {
			loaderCfg.CommitEveryBatches = prof.CommitEveryBatches
		}
		assignment := parallel.Dynamic
		if *static {
			assignment = parallel.Static
		}
		clusterCfg = parallel.Config{
			Loaders:       *loaders,
			Assignment:    assignment,
			Loader:        loaderCfg,
			SealAfterLoad: buildPolicy == relstore.IndexDeferred,
		}
	}
	clusterCfg.NonBulk = *nonBulk

	// Assemble the input files: either read from disk or generate in memory.
	var files []*catalog.File
	if *size > 0 {
		if *nfiles > 1 {
			files = append(files, catalog.GenerateNight(catalog.NightSpec{
				TotalMB: *size, Files: *nfiles, RowsPerMB: *rowsPerMB,
				Seed: *seed, ErrorRate: *errRate, RunID: 1,
			})...)
		} else {
			files = append(files, catalog.Generate(catalog.GenSpec{
				SizeMB: *size, RowsPerMB: *rowsPerMB, Seed: *seed, ErrorRate: *errRate,
				RunID: 1, IDBase: 10_000_000,
			}))
		}
	}
	for i, path := range flag.Args() {
		f, err := readCatalogFile(path, int64(i+1))
		if err != nil {
			fatal(err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		flag.Usage()
		os.Exit(2)
	}

	// Build a fresh environment (database + server) on the given scheduler.
	buildEnv := func(sched exec.Scheduler) (*sqlbatch.Server, *relstore.DB) {
		db, err := tuning.OpenRepository(indexPolicy, relstore.WithIndexPolicy(buildPolicy))
		if err != nil {
			fatal(err)
		}
		return sqlbatch.NewServerOn(sched, db, srvCfg, sqlbatch.DefaultCostModel()), db
	}

	// The deterministic run: the virtual-time prediction every mode reports.
	simServer, simDB := buildEnv(exec.NewDES(des.NewKernel(*seed)))
	simRes, err := parallel.Run(simServer, files, clusterCfg)
	if err != nil {
		fatal(err)
	}

	if !*wallclock {
		report(simRes, simDB, *verbose)
		return
	}

	// The real run: loader goroutines against the concurrent engine.
	rtServer, rtDB := buildEnv(exec.NewRealtime(exec.RealtimeConfig{Seed: *seed}))
	rtRes, err := parallel.Run(rtServer, files, clusterCfg)
	if err != nil {
		fatal(err)
	}
	reportWallclock(rtRes, simRes, rtDB, clusterCfg.Loaders, *verbose)
}

// reportWallclock prints the real measurement next to the virtual-time
// prediction of the same configuration.
func reportWallclock(rt, sim parallel.Result, db *relstore.DB, loaders int, verbose bool) {
	t := rt.Total
	fmt.Printf("execution mode:      wall-clock (%d loader goroutines on %d CPUs)\n", loaders, runtime.NumCPU())
	fmt.Printf("files loaded:        %d\n", t.Files)
	fmt.Printf("rows loaded:         %d\n", t.RowsLoaded)
	fmt.Printf("rows skipped (db):   %d\n", t.RowsSkipped)
	if rt.Seal.Sealed() {
		fmt.Printf("index seal:          %d indexes bulk-built (%d rows streamed) in %s\n",
			len(rt.Seal.Indexes), rt.Seal.RowsStreamed, rt.SealTime.Round(1e3))
	}
	fmt.Printf("real load time:      %s\n", rt.WallTime)
	fmt.Printf("real throughput:     %.3f MB/s (nominal)\n", rt.ThroughputMBps)
	if rt.WallTime > 0 {
		fmt.Printf("rows per second:     %.0f\n", float64(t.RowsLoaded)/rt.WallTime.Seconds())
	}
	fmt.Println("per-node throughput:")
	for _, n := range rt.Nodes {
		el := n.FinishedAt - n.StartedAt
		mbps := 0.0
		if el > 0 {
			mbps = float64(n.Stats.NominalBytes) / 1e6 / el.Seconds()
		}
		fmt.Printf("  node %d: files=%d rows=%d elapsed=%s (%.3f MB/s)\n",
			n.Node, len(n.FilesDone), n.Stats.RowsLoaded, el.Round(1e6), mbps)
	}
	fmt.Printf("virtual-time prediction (paper hardware): %s\n", sim.WallTime)
	if rt.WallTime > 0 {
		fmt.Printf("prediction / real:   %.1fx\n", sim.WallTime.Seconds()/rt.WallTime.Seconds())
	}

	if verbose {
		printTableCounts(t.RowsLoadedByTable)
	}
	checkIntegrity(db)
}

// printTableCounts prints the sorted per-table row counts.
func printTableCounts(byTable map[string]int) {
	fmt.Println("\nrows loaded by table:")
	tables := make([]string, 0, len(byTable))
	for name := range byTable {
		tables = append(tables, name)
	}
	sort.Strings(tables)
	for _, name := range tables {
		fmt.Printf("  %-22s %8d\n", name, byTable[name])
	}
}

// checkIntegrity verifies referential integrity and exits nonzero on orphans.
func checkIntegrity(db *relstore.DB) {
	orphans, _ := db.VerifyIntegrity()
	if orphans != 0 {
		fmt.Printf("\nWARNING: %d orphaned rows detected after load\n", orphans)
		os.Exit(1)
	}
	fmt.Println("referential integrity: OK")
}

func readCatalogFile(path string, idx int64) (*catalog.File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	recs, parseErrs := catalog.ReadRecords(f)
	info, err := f.Stat()
	if err != nil {
		return nil, err
	}
	for _, pe := range parseErrs {
		fmt.Fprintf(os.Stderr, "skyload: %s: %v\n", path, pe)
	}
	return &catalog.File{
		Name:         path,
		Records:      recs,
		NominalBytes: info.Size(),
		ActualBytes:  info.Size(),
		DataRows:     len(recs),
		Spec:         catalog.GenSpec{Name: path, SizeMB: float64(info.Size()) / 1e6, IDBase: idx * 100_000_000},
	}, nil
}

func report(res parallel.Result, db *relstore.DB, verbose bool) {
	t := res.Total
	fmt.Printf("files loaded:        %d\n", t.Files)
	fmt.Printf("rows read:           %d\n", t.RowsRead)
	fmt.Printf("rows loaded:         %d\n", t.RowsLoaded)
	fmt.Printf("rows skipped (db):   %d\n", t.RowsSkipped)
	fmt.Printf("rows rejected (client): %d\n", t.ParseErrors)
	fmt.Printf("database calls:      %d\n", t.DBCalls)
	fmt.Printf("commits:             %d\n", t.Commits)
	fmt.Printf("lock waits / stalls: %d / %d\n", t.LockWaits, t.LongStalls)
	if res.Seal.Sealed() {
		fmt.Printf("index seal:          %d indexes bulk-built (%d rows streamed) in %s\n",
			len(res.Seal.Indexes), res.Seal.RowsStreamed, res.SealTime)
	}
	fmt.Printf("virtual load time:   %s\n", res.WallTime)
	fmt.Printf("throughput:          %.3f MB/s (nominal)\n", res.ThroughputMBps)

	if verbose {
		printTableCounts(t.RowsLoadedByTable)
		if len(t.Skipped) > 0 {
			fmt.Println("\nskipped rows:")
			max := len(t.Skipped)
			if max > 20 {
				max = 20
			}
			for _, s := range t.Skipped[:max] {
				fmt.Printf("  %s line %d (%s): %s\n", s.File, s.SourceLine, s.Table, s.Reason)
			}
			if len(t.Skipped) > max {
				fmt.Printf("  ... and %d more\n", len(t.Skipped)-max)
			}
		}
	}

	checkIntegrity(db)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "skyload:", err)
	os.Exit(1)
}
