package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"skyloader/bench/gen"
	"skyloader/internal/catalog"
	"skyloader/internal/core"
	"skyloader/internal/exec"
	"skyloader/internal/parallel"
	"skyloader/internal/relstore"
	"skyloader/internal/sqlbatch"
	"skyloader/internal/tuning"
)

// The loader constants the paper found optimal; every workload uses them.
const (
	batchSize = 40
	arraySize = 1000
	// durableCommitEvery is ingest-durable's commit frequency in batches:
	// about one fsynced commit per thousand rows.
	durableCommitEvery = 25
	// errorRate is the share of detail rows the generator corrupts.
	errorRate = 0.002
)

// benchIndexes is the secondary-index set of every workload: the htmid index
// the cone search needs plus the composite three-float index of Figure 8.
const benchIndexes = tuning.HTMIDPlusComposite

// parallelism is the number of loaders and of client connections.
func parallelism() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

// openDB opens a database the way the bulk loader's tools do: production
// tuning, reference tables seeded, the benchmark's indexes created under the
// given maintenance policy.
func openDB(policy relstore.IndexPolicy, extra ...relstore.Option) (*relstore.DB, error) {
	return openDBIndexes(benchIndexes, policy, extra...)
}

// openDBIndexes is openDB with a chosen set of secondary indexes (the staged
// replay measures a database without any, to price index maintenance as a
// difference).
func openDBIndexes(indexes tuning.IndexPolicy, policy relstore.IndexPolicy, extra ...relstore.Option) (*relstore.DB, error) {
	prof := tuning.ProductionLoading()
	opts := append([]relstore.Option{relstore.WithConfig(prof.DBConfig()), relstore.WithIndexPolicy(policy)}, extra...)
	db, err := relstore.Open(catalog.NewSchema(), opts...)
	if err != nil {
		return nil, err
	}
	txn, err := db.Begin()
	if err != nil {
		return nil, err
	}
	if err := catalog.SeedReference(txn, 32); err != nil {
		return nil, err
	}
	if _, err := txn.Commit(); err != nil {
		return nil, err
	}
	if err := tuning.ApplyIndexPolicyWith(db, indexes, policy); err != nil {
		return nil, err
	}
	return db, nil
}

// newScheduler returns a fresh realtime scheduler: real goroutines, wall
// clock, simulated service costs skipped.
func newScheduler(seed int64) *exec.Realtime {
	return exec.NewRealtime(exec.RealtimeConfig{Seed: seed})
}

// loadServer puts the sqlbatch server in front of db on sched.
func loadServer(sched exec.Scheduler, db *relstore.DB) *sqlbatch.Server {
	return sqlbatch.NewServerOn(sched, db, tuning.ProductionLoading().ServerConfig(), sqlbatch.DefaultCostModel())
}

// loadConfig is the cluster configuration of every load; commitEvery 0
// commits at the end of each file.
func loadConfig(loaders, commitEvery int) parallel.Config {
	return parallel.Config{
		Loaders: loaders,
		Loader:  core.Config{BatchSize: batchSize, ArraySize: arraySize, CommitEveryBatches: commitEvery},
	}
}

// parsed is the outcome of parsing catalog text files.
type parsed struct {
	files []*catalog.File
	lines int // records read
}

// parseFiles reads each text file from the work directory through
// catalog.ReadRecords, the first step of every timed load.
func parseFiles(facts []gen.FileFacts) (parsed, error) {
	var out parsed
	for _, ff := range facts {
		in, err := os.Open(ff.Path)
		if err != nil {
			return out, err
		}
		// Malformed lines are skipped by the parser; row conservation
		// counts from the records it returns.
		recs, _ := catalog.ReadRecords(in)
		_ = in.Close()
		out.lines += len(recs)
		out.files = append(out.files, &catalog.File{
			Name: ff.Name, Records: recs, NominalBytes: ff.Bytes, ActualBytes: ff.Bytes, DataRows: len(recs),
			RABase: ff.RABase, DecBase: ff.DecBase, // the fleet places files by footprint
		})
	}
	return out, nil
}

// loadOutcome is what one parse + load of a set of files did.
type loadOutcome struct {
	stats  core.Stats
	parseS float64
	loadS  float64
	lines  int
}

func (o loadOutcome) seconds() float64 { return o.parseS + o.loadS }

// parseAndLoad is the timed region every ingest measurement shares: catalog
// text to committed rows, through catalog.ReadRecords and parallel.Run.
func parseAndLoad(db *relstore.DB, facts []gen.FileFacts, cfg parallel.Config, seed int64) (loadOutcome, error) {
	var out loadOutcome
	t0 := time.Now()
	p, err := parseFiles(facts)
	if err != nil {
		return out, err
	}
	t1 := time.Now()
	res, err := parallel.Run(loadServer(newScheduler(seed), db), p.files, cfg)
	if err != nil {
		return out, err
	}
	out.parseS, out.loadS = t1.Sub(t0).Seconds(), time.Since(t1).Seconds()
	out.stats = res.Total
	out.lines = p.lines
	return out, nil
}

// merge adds a later load of the same database (ingest-durable loads in two
// parts around its checkpoint).
func (o *loadOutcome) merge(b loadOutcome) {
	o.stats.Merge(b.stats)
	o.parseS += b.parseS
	o.loadS += b.loadS
	o.lines += b.lines
}

// liveHeap forces a collection and returns the bytes still reachable.  Taken
// before a database is opened and again after its load, the difference is
// the memory the loaded database holds; the first call doubles as the
// runtime.GC() that precedes every timed region.
func liveHeap() uint64 {
	// Twice: the engine pools per-transaction scratch in sync.Pools, and a
	// pool's contents (with whatever they still reference) survive one
	// collection in the victim cache.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// tableCounts renders per-table live row counts in a fixed order, the form
// in which repetitions and workloads are compared.
func tableCounts(db *relstore.DB) string {
	counts := db.RowCounts()
	names := make([]string, 0, len(counts))
	for n := range counts {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, "%s=%d ", n, counts[n])
	}
	return strings.TrimSpace(b.String())
}

// verifyDB runs the engine's own post-load verifications.
func verifyDB(db *relstore.DB) error {
	orphans, err := db.VerifyIntegrity()
	if err != nil {
		return fmt.Errorf("VerifyIntegrity: %w", err)
	}
	if orphans != 0 {
		return fmt.Errorf("VerifyIntegrity: %d orphaned rows", orphans)
	}
	if err := db.VerifyPrimaryKeys(); err != nil {
		return fmt.Errorf("VerifyPrimaryKeys: %w", err)
	}
	return nil
}

// conserved checks row conservation: every record read was loaded, skipped by
// the database, or rejected by the client-side transform.
func conserved(o loadOutcome) error {
	s := o.stats
	if s.RowsRead != o.lines || s.RowsRead != s.RowsLoaded+s.RowsSkipped+s.ParseErrors {
		return fmt.Errorf("row conservation: parsed %d, read %d, loaded %d + skipped %d + rejected %d",
			o.lines, s.RowsRead, s.RowsLoaded, s.RowsSkipped, s.ParseErrors)
	}
	return nil
}
