package experiments

import (
	"fmt"

	"skyloader/internal/baseline"
	"skyloader/internal/catalog"
	"skyloader/internal/core"
	"skyloader/internal/exec"
	"skyloader/internal/metrics"
	"skyloader/internal/parallel"
	"skyloader/internal/sqlbatch"
	"skyloader/internal/tuning"
)

// AblationAssignment (A1) compares dynamic ("on the fly") file assignment
// against even static partitioning on a deliberately skewed night, the design
// choice argued for in §4.4.
func AblationAssignment(cfg Config) (*metrics.Table, error) {
	cfg = cfg.withDefaults()
	nightMB := 900.0
	if cfg.Quick {
		nightMB = 300
	}
	t := &metrics.Table{
		Title:   "Ablation A1: dynamic vs. static file assignment (5 loaders, skewed night)",
		Columns: []string{"assignment", "wall_time_s", "throughput_mb_s", "max_node_idle_pct"},
		Notes:   []string{"paper §4.4: files vary in size, so unloaded files are assigned on the fly rather than divided evenly"},
	}
	for _, policy := range []parallel.Assignment{parallel.Dynamic, parallel.Static} {
		env, err := NewEnv(EnvOptions{Seed: cfg.Seed, IndexPolicy: tuning.NoIndexes})
		if err != nil {
			return nil, err
		}
		files := catalog.GenerateNight(catalog.NightSpec{
			TotalMB:   nightMB,
			RowsPerMB: cfg.RowsPerMB,
			Seed:      cfg.Seed,
			ErrorRate: cfg.ErrorRate,
			RunID:     1,
			Skew:      2.5,
		})
		res, err := parallel.Run(env.Server, files, parallel.Config{
			Loaders:    5,
			Assignment: policy,
			Loader:     defaultLoader(),
		})
		if err != nil {
			return nil, fmt.Errorf("ablation assignment %s: %w", policy, err)
		}
		// Idle fraction of the node that finished earliest relative to the
		// makespan: large values mean poor balance.
		maxIdle := 0.0
		for _, n := range res.Nodes {
			idle := res.WallTime.Seconds() - (n.FinishedAt - n.StartedAt).Seconds()
			if res.WallTime > 0 {
				pct := idle / res.WallTime.Seconds() * 100
				if pct > maxIdle {
					maxIdle = pct
				}
			}
		}
		t.AddRow(policy.String(), res.WallTime.Seconds(), res.ThroughputMBps, maxIdle)
	}
	return t, nil
}

// AblationCommitFrequency (A2) measures the §4.5.2 tuning: committing after
// every batch, every 100 batches, and only at the end of the file.
func AblationCommitFrequency(cfg Config) (*metrics.Table, error) {
	cfg = cfg.withDefaults()
	t := &metrics.Table{
		Title:   "Ablation A2: commit frequency (200 MB, single bulk loader)",
		Columns: []string{"commit_every_batches", "runtime_s", "commits"},
		Notes:   []string{"paper §4.5.2: very infrequent commits gave a significant performance increase"},
	}
	sweeps := []int{1, 10, 100, 0}
	if cfg.Quick {
		sweeps = []int{1, 0}
	}
	for _, every := range sweeps {
		env, err := NewEnv(EnvOptions{Seed: cfg.Seed, IndexPolicy: tuning.NoIndexes})
		if err != nil {
			return nil, err
		}
		loader := defaultLoader()
		loader.CommitEveryBatches = every
		stats, err := env.RunSingleLoad(SingleLoadSpec{
			SizeMB: 200, RowsPerMB: cfg.RowsPerMB, Seed: cfg.Seed, ErrorRate: cfg.ErrorRate, Loader: loader,
		})
		if err != nil {
			return nil, fmt.Errorf("ablation commit every %d: %w", every, err)
		}
		label := fmt.Sprintf("%d", every)
		if every == 0 {
			label = "end-of-file"
		}
		t.AddRow(label, stats.Elapsed.Seconds(), stats.Commits)
	}
	return t, nil
}

// AblationCacheSize (A3) measures the §4.5.5 tuning: a smaller data cache
// loads faster because the database writer scans the whole cache per flush.
func AblationCacheSize(cfg Config) (*metrics.Table, error) {
	cfg = cfg.withDefaults()
	t := &metrics.Table{
		Title:   "Ablation A3: server data-cache size (200 MB, single bulk loader, commit every 50 batches)",
		Columns: []string{"cache_pages", "runtime_s"},
		Notes:   []string{"paper §4.5.5: allocating a smaller database data cache improves loading performance"},
	}
	sweeps := []int{512, 2048, 8192, 32768}
	if cfg.Quick {
		sweeps = []int{512, 32768}
	}
	for _, pages := range sweeps {
		srvCfg := sqlbatch.DefaultServerConfig()
		srvCfg.CachePages = pages
		env, err := NewEnv(EnvOptions{Seed: cfg.Seed, IndexPolicy: tuning.NoIndexes, ServerConfig: srvCfg})
		if err != nil {
			return nil, err
		}
		loader := defaultLoader()
		loader.CommitEveryBatches = 50
		stats, err := env.RunSingleLoad(SingleLoadSpec{
			SizeMB: 200, RowsPerMB: cfg.RowsPerMB, Seed: cfg.Seed, ErrorRate: cfg.ErrorRate, Loader: loader,
		})
		if err != nil {
			return nil, fmt.Errorf("ablation cache %d pages: %w", pages, err)
		}
		t.AddRow(pages, stats.Elapsed.Seconds())
	}
	return t, nil
}

// AblationErrorRate (A4) exercises the worst-case analysis of §4.2: as the
// fraction of bad rows grows, bulk loading degrades toward singleton-insert
// behaviour because every error breaks up a batch.
func AblationErrorRate(cfg Config) (*metrics.Table, error) {
	cfg = cfg.withDefaults()
	t := &metrics.Table{
		Title:   "Ablation A4: error rate (200 MB, single bulk loader, batch 40)",
		Columns: []string{"error_rate", "runtime_s", "db_calls", "rows_skipped"},
		Notes:   []string{"paper §4.2: with errors on every row bulk loading deteriorates to one call per row"},
	}
	rates := []float64{0, 0.01, 0.05, 0.20}
	if cfg.Quick {
		rates = []float64{0, 0.05}
	}
	for _, rate := range rates {
		env, err := NewEnv(EnvOptions{Seed: cfg.Seed, IndexPolicy: tuning.NoIndexes})
		if err != nil {
			return nil, err
		}
		stats, err := env.RunSingleLoad(SingleLoadSpec{
			SizeMB: 200, RowsPerMB: cfg.RowsPerMB, Seed: cfg.Seed, ErrorRate: rate, Loader: defaultLoader(),
		})
		if err != nil {
			return nil, fmt.Errorf("ablation error rate %v: %w", rate, err)
		}
		t.AddRow(rate, stats.Elapsed.Seconds(), stats.DBCalls, stats.RowsSkipped)
	}
	return t, nil
}

// AblationTwoPhase (A5) compares the single-pass SkyLoader against the
// SDSS-style two-phase (task database, validate, publish) loader discussed in
// §6.
func AblationTwoPhase(cfg Config) (*metrics.Table, error) {
	cfg = cfg.withDefaults()
	sizes := []float64{200, 400, 800}
	if cfg.Quick {
		sizes = []float64{200}
	}
	t := &metrics.Table{
		Title:   "Ablation A5: single-pass SkyLoader vs. SDSS-style two-phase loading",
		Columns: []string{"size_mb", "skyloader_s", "two_phase_s", "two_phase_penalty_pct"},
		Notes:   []string{"paper §6: the single-pass approach avoids the intermediate task database and the separate validation pass"},
	}
	for i, size := range sizes {
		seed := cfg.Seed + int64(i)

		envA, err := NewEnv(EnvOptions{Seed: seed, IndexPolicy: tuning.NoIndexes})
		if err != nil {
			return nil, err
		}
		sky, err := envA.RunSingleLoad(SingleLoadSpec{
			SizeMB: size, RowsPerMB: cfg.RowsPerMB, Seed: seed, ErrorRate: cfg.ErrorRate, Loader: defaultLoader(),
		})
		if err != nil {
			return nil, fmt.Errorf("ablation two-phase skyloader %v: %w", size, err)
		}

		envB, err := NewEnv(EnvOptions{Seed: seed, IndexPolicy: tuning.NoIndexes})
		if err != nil {
			return nil, err
		}
		two, err := runTwoPhase(envB, size, cfg, seed)
		if err != nil {
			return nil, fmt.Errorf("ablation two-phase %v: %w", size, err)
		}
		t.AddRow(size, sky.Elapsed.Seconds(), two.Elapsed.Seconds(),
			metrics.PercentChange(two.Elapsed.Seconds(), sky.Elapsed.Seconds()))
	}
	return t, nil
}

// runTwoPhase loads one generated file with the SDSS-style loader.
func runTwoPhase(env *Env, sizeMB float64, cfg Config, seed int64) (core.Stats, error) {
	file := catalog.Generate(catalog.GenSpec{
		SizeMB:    sizeMB,
		RowsPerMB: cfg.RowsPerMB,
		Seed:      seed,
		ErrorRate: cfg.ErrorRate,
		RunID:     1,
		IDBase:    10_000_000,
	})
	var stats core.Stats
	var runErr error
	env.Sched.Spawn("two-phase-loader", func(w exec.Worker) {
		conn := env.Server.ConnectWorker(w)
		defer conn.Close()
		tp, err := baseline.NewTwoPhaseLoader(conn)
		if err != nil {
			runErr = err
			return
		}
		stats, runErr = tp.LoadFiles([]*catalog.File{file})
	})
	env.Sched.Run()
	return stats, runErr
}

// RunAll runs every figure, the headline and every ablation, returning the
// tables in presentation order.  It is what cmd/skybench and the benchmark
// harness drive.
func RunAll(cfg Config) ([]*metrics.Table, error) {
	type step struct {
		name string
		fn   func(Config) (*metrics.Table, error)
	}
	steps := []step{
		{"figure4", Figure4},
		{"figure5", Figure5},
		{"figure6", Figure6},
		{"figure7", Figure7},
		{"figure8", Figure8},
		{"figure9", Figure9},
		{"headline", Headline},
		{"ablation-assignment", AblationAssignment},
		{"ablation-commit", AblationCommitFrequency},
		{"ablation-cache", AblationCacheSize},
		{"ablation-errors", AblationErrorRate},
		{"ablation-two-phase", AblationTwoPhase},
	}
	var out []*metrics.Table
	for _, s := range steps {
		tbl, err := s.fn(cfg)
		if err != nil {
			return out, fmt.Errorf("experiments: %s: %w", s.name, err)
		}
		out = append(out, tbl)
	}
	return out, nil
}

// Verify loads a small night and checks referential integrity end-to-end; it
// is used by `skybench -verify` and the integration tests.
func Verify(cfg Config) error {
	cfg = cfg.withDefaults()
	env, err := NewEnv(EnvOptions{Seed: cfg.Seed, IndexPolicy: tuning.HTMIDOnly})
	if err != nil {
		return err
	}
	files := catalog.GenerateNight(catalog.NightSpec{
		TotalMB: 60, RowsPerMB: cfg.RowsPerMB, Seed: cfg.Seed, ErrorRate: 0.01, RunID: 1, Files: 6,
	})
	res, err := parallel.Run(env.Server, files, parallel.Config{
		Loaders: 3, Assignment: parallel.Dynamic, Loader: defaultLoader(),
	})
	if err != nil {
		return err
	}
	orphans, err := env.DB.VerifyIntegrity()
	if err != nil {
		return err
	}
	if orphans != 0 {
		return fmt.Errorf("experiments: verification found %d orphaned rows", orphans)
	}
	if err := env.DB.VerifyPrimaryKeys(); err != nil {
		return err
	}
	if res.Total.RowsLoaded == 0 {
		return fmt.Errorf("experiments: verification loaded no rows")
	}
	var _ sqlbatch.ServerStats = res.Server
	return nil
}
