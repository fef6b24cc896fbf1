// Package experiments regenerates every table and figure of the paper's
// evaluation (§5) plus the headline claim and a set of ablations, using the
// simulated Palomar-Quest loading environment: synthetic catalog files, the
// relstore repository engine, the sqlbatch client/server layer and the
// discrete-event simulation kernel.
//
// Runtimes are virtual (simulated) seconds.  Data volumes are nominal
// catalog megabytes scaled down to RowsPerMB generated rows per megabyte;
// EXPERIMENTS.md documents the calibration and the scaling.
package experiments

import (
	"skyloader/internal/baseline"
	"skyloader/internal/catalog"
	"skyloader/internal/core"
	"skyloader/internal/des"
	"skyloader/internal/exec"
	"skyloader/internal/relstore"
	"skyloader/internal/sqlbatch"
	"skyloader/internal/tuning"
)

// Config holds the experiment-wide knobs.
type Config struct {
	// Seed drives every random choice (generation, contention draws).
	Seed int64
	// RowsPerMB scales nominal catalog megabytes to generated rows
	// (default 100; the paper's 200 MB file becomes 20,000 rows).
	RowsPerMB int
	// ErrorRate is the fraction of corrupted detail rows in generated
	// files (default 0.2%, matching "errors are detected during bulk loads
	// fairly often" without dominating the workload).
	ErrorRate float64
	// Cost is the calibrated cost model; zero value means DefaultCostModel.
	Cost sqlbatch.CostModel
	// Quick shrinks the parameter sweeps (used by unit tests).
	Quick bool
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 20051112 // SC'05 conference dates
	}
	if c.RowsPerMB <= 0 {
		c.RowsPerMB = 100
	}
	if c.ErrorRate == 0 {
		c.ErrorRate = 0.002
	}
	if c.Cost == (sqlbatch.CostModel{}) {
		c.Cost = sqlbatch.DefaultCostModel()
	}
	return c
}

// Env is one simulated loading environment: a fresh repository database with
// reference data seeded, hosted by a simulated server on a dedicated DES
// kernel.  Each experimental point gets its own Env so measurements are
// independent, as the paper's "tests were performed on an empty database
// unless otherwise noted".
type Env struct {
	Kernel *des.Kernel
	// Sched is the DES kernel behind the execution abstraction; every
	// experiment runs deterministically on it (wall-clock mode exists for
	// real loads, not for figure regeneration).
	Sched  exec.Scheduler
	DB     *relstore.DB
	Server *sqlbatch.Server
}

// EnvOptions configures environment construction.
type EnvOptions struct {
	Seed          int64
	Cost          sqlbatch.CostModel
	ServerConfig  sqlbatch.ServerConfig
	IndexPolicy   tuning.IndexPolicy
	PrePopulateGB float64
}

// NewEnv builds a fresh environment.
func NewEnv(opt EnvOptions) (*Env, error) {
	if opt.Cost == (sqlbatch.CostModel{}) {
		opt.Cost = sqlbatch.DefaultCostModel()
	}
	if opt.ServerConfig == (sqlbatch.ServerConfig{}) {
		opt.ServerConfig = sqlbatch.DefaultServerConfig()
	}
	kernel := des.NewKernel(opt.Seed)
	db, err := tuning.OpenRepository(opt.IndexPolicy, relstore.WithConfig(relstore.DefaultConfig()))
	if err != nil {
		return nil, err
	}
	if opt.PrePopulateGB > 0 {
		db.PrePopulateEvenly(int64(opt.PrePopulateGB * 1e9))
	}
	sched := exec.NewDES(kernel)
	server := sqlbatch.NewServerOn(sched, db, opt.ServerConfig, opt.Cost)
	return &Env{Kernel: kernel, Sched: sched, DB: db, Server: server}, nil
}

// SingleLoadSpec describes one single-process load measurement.
type SingleLoadSpec struct {
	SizeMB    float64
	RowsPerMB int
	Seed      int64
	ErrorRate float64
	Loader    core.Config
	// NonBulk uses the singleton-insert baseline loader instead of the
	// SkyLoader bulk loader.
	NonBulk bool
	// CommitEveryRows applies to the non-bulk loader only.
	CommitEveryRows int
}

// RunSingleLoad generates one catalog file and loads it with a single loader
// process, returning the loader statistics (Elapsed is virtual time).
func (e *Env) RunSingleLoad(spec SingleLoadSpec) (core.Stats, error) {
	file := catalog.Generate(catalog.GenSpec{
		SizeMB:    spec.SizeMB,
		RowsPerMB: spec.RowsPerMB,
		Seed:      spec.Seed,
		ErrorRate: spec.ErrorRate,
		RunID:     1,
		IDBase:    10_000_000,
	})
	var stats core.Stats
	var runErr error
	e.Sched.Spawn("single-loader", func(w exec.Worker) {
		conn := e.Server.ConnectWorker(w)
		defer conn.Close()
		if spec.NonBulk {
			nb := baseline.NewNonBulkLoader(conn, baseline.NonBulkConfig{
				CommitEveryRows: spec.CommitEveryRows,
				ChargeStaging:   spec.Loader.ChargeStaging,
			})
			stats, runErr = nb.LoadFiles([]*catalog.File{file})
			return
		}
		loader, err := core.NewLoader(conn, spec.Loader)
		if err != nil {
			runErr = err
			return
		}
		stats, runErr = loader.LoadFiles([]*catalog.File{file})
	})
	e.Sched.Run()
	return stats, runErr
}
