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
// The load runs one campaign (internal/loadconfig): the -config file if one
// is given, otherwise the -profile preset, with every campaign flag given on
// the command line (-loaders, -batch, -array, -commit-every, -static,
// -index-policy, -provenance, -rows-per-mb, -seed) set on top of it.  Flags
// the run would not read are errors, not ignored: -profile next to -config,
// -files, -rows-per-mb or -error-rate without -size, and anything but -seed,
// -size, -batch and -v next to -crash.
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
	"strings"

	"skyloader/internal/catalog"
	"skyloader/internal/exec"
	"skyloader/internal/loadconfig"
	"skyloader/internal/parallel"
	"skyloader/internal/relstore"
	"skyloader/internal/sqlbatch"
	"skyloader/internal/tuning"
)

// options are skyload's command-line flags.  The campaign flags but -static
// are bound to the fields of camp that they set.
type options struct {
	camp            loadconfig.FileConfig
	config, profile string
	static          bool

	nonBulk, verbose, wallclock, crash bool
	size, errRate                      float64
	files                              int
}

// newOptions defines skyload's flags on fs; the campaign flags default to
// loadconfig.Default(), the production campaign.
func newOptions(fs *flag.FlagSet) *options {
	o := &options{camp: loadconfig.Default()}
	c := &o.camp
	fs.StringVar(&o.config, "config", "", "JSON campaign configuration file (the base the campaign flags are set on, instead of -profile)")
	fs.StringVar(&o.profile, "profile", "production", "tuning profile the campaign starts from: production|untuned|query")
	fs.IntVar(&c.Loaders, "loaders", c.Loaders, "number of concurrent loader processes")
	fs.IntVar(&c.BatchSize, "batch", c.BatchSize, "rows per database call (batch-size)")
	fs.IntVar(&c.ArraySize, "array", c.ArraySize, "rows per buffer array (array-size)")
	fs.IntVar(&c.CommitEveryBatches, "commit-every", c.CommitEveryBatches, "commit every N batches (0 = end of each file; when not given, the profile's)")
	fs.BoolVar(&o.static, "static", false, "use static file assignment instead of dynamic")
	fs.StringVar(&c.IndexBuild, "index-policy", c.IndexBuild, "secondary-index maintenance: immediate (per batch) or deferred (bulk-build at end-of-load Seal)")
	fs.BoolVar(&c.RecordProvenance, "provenance", c.RecordProvenance, "record load_runs/load_errors provenance rows")
	fs.IntVar(&c.RowsPerMB, "rows-per-mb", c.RowsPerMB, "generated rows per nominal MB (for -size)")
	fs.Int64Var(&c.Seed, "seed", c.Seed, "random seed")

	fs.BoolVar(&o.nonBulk, "nonbulk", false, "use the row-at-a-time baseline loader")
	fs.Float64Var(&o.size, "size", 0, "generate a catalog of this nominal MB instead of reading files")
	fs.IntVar(&o.files, "files", 1, "number of files to split a generated -size catalog into (parallel loaders need >1)")
	fs.Float64Var(&o.errRate, "error-rate", 0.002, "error rate for generated input")
	fs.BoolVar(&o.verbose, "v", false, "print per-table row counts and skipped-row details")
	fs.BoolVar(&o.wallclock, "wallclock", false, "run loaders as real goroutines and report real elapsed time")
	fs.BoolVar(&o.crash, "crash", false, "run the kill/recover durability scenario: WAL-backed load killed at a random append (derived from -seed), recovered, resumed, and verified byte-identical to an uninterrupted run")
	return o
}

// crashFlags are the flags the -crash scenario reads.
var crashFlags = map[string]bool{"crash": true, "seed": true, "size": true, "batch": true, "v": true}

// campaign checks that every flag given on fs takes effect and returns the
// campaign the load runs: the -config file, or else the -profile preset, with
// the campaign flags that were given set on top.
func (o *options) campaign(fs *flag.FlagSet) (loadconfig.FileConfig, error) {
	given := map[string]string{}
	fs.Visit(func(f *flag.Flag) { given[f.Name] = f.Value.String() })
	var unread []string
	for name := range given {
		switch {
		case o.crash && !crashFlags[name],
			name == "profile" && o.config != "",
			(name == "files" || name == "rows-per-mb" || name == "error-rate") && o.size <= 0:
			unread = append(unread, "-"+name)
		}
	}
	if len(unread) > 0 {
		sort.Strings(unread)
		return o.camp, fmt.Errorf("%s would not take effect in this run", strings.Join(unread, ", "))
	}

	if o.config != "" {
		var err error
		if o.camp, err = loadconfig.Load(o.config); err != nil {
			return o.camp, err
		}
	} else {
		prof, err := tuning.ProfileByName(o.profile)
		if err != nil {
			return o.camp, err
		}
		o.camp = loadconfig.FromProfile(prof)
	}
	// Setting the given flags again writes their values over the base.
	for name, value := range given {
		if err := fs.Set(name, value); err != nil {
			return o.camp, err
		}
	}
	if _, ok := given["static"]; ok {
		o.camp.Assignment = map[bool]string{false: "dynamic", true: "static"}[o.static]
	}
	return o.camp, o.camp.Validate()
}

func main() {
	o := newOptions(flag.CommandLine)
	flag.Parse()
	campaign, err := o.campaign(flag.CommandLine)
	if err != nil {
		fatal(err)
	}
	if o.crash {
		runCrash(campaign.Seed, o.size, campaign.BatchSize, o.verbose)
		return
	}
	prof := campaign.Profile()
	clusterCfg := campaign.ClusterConfig()
	clusterCfg.NonBulk = o.nonBulk

	// Assemble the input files: either read from disk or generate in memory.
	var files []*catalog.File
	if o.size > 0 {
		if o.files > 1 {
			files = append(files, catalog.GenerateNight(catalog.NightSpec{
				TotalMB: o.size, Files: o.files, RowsPerMB: campaign.RowsPerMB,
				Seed: campaign.Seed, ErrorRate: o.errRate, RunID: 1,
			})...)
		} else {
			files = append(files, catalog.Generate(catalog.GenSpec{
				SizeMB: o.size, RowsPerMB: campaign.RowsPerMB, Seed: campaign.Seed, ErrorRate: o.errRate,
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
		db, err := prof.Open()
		if err != nil {
			fatal(err)
		}
		return sqlbatch.NewServerOn(sched, db, prof.ServerConfig(), sqlbatch.DefaultCostModel()), db
	}

	// The deterministic run: the virtual-time prediction every mode reports.
	simServer, simDB := buildEnv(exec.NewDES(campaign.Seed))
	simRes, err := parallel.Run(simServer, files, clusterCfg)
	if err != nil {
		fatal(err)
	}

	if !o.wallclock {
		report(simRes, simDB, o.verbose)
		return
	}

	// The real run: loader goroutines against the concurrent engine.
	rtServer, rtDB := buildEnv(exec.NewRealtime(exec.RealtimeConfig{Seed: campaign.Seed}))
	rtRes, err := parallel.Run(rtServer, files, clusterCfg)
	if err != nil {
		fatal(err)
	}
	reportWallclock(rtRes, simRes, rtDB, clusterCfg.Loaders, o.verbose)
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
