package experiments

import (
	"fmt"

	"skyloader/internal/catalog"
	"skyloader/internal/core"
	"skyloader/internal/metrics"
	"skyloader/internal/parallel"
	"skyloader/internal/tuning"
)

// defaultLoader returns the loader configuration used by the single-process
// figures: batch 40, array 1000, commit at end of file.
func defaultLoader() core.Config {
	cfg := core.DefaultConfig()
	return cfg
}

// figureSizesMB are the data sizes of Figures 4 and 8.
func figureSizesMB(quick bool) []float64 {
	if quick {
		return []float64{200, 400}
	}
	return []float64{200, 400, 600, 800, 1000, 1200}
}

// Figure4 regenerates "Runtime of Bulk and Non-Bulk Loading": a single
// loading process, data sizes 200-1200 MB, batch-size 40 for the bulk case
// versus individual SQL inserts.  The paper reports a 7-9x speedup.
func Figure4(cfg Config) (*metrics.Table, error) {
	cfg = cfg.withDefaults()
	t := &metrics.Table{
		Title:   "Figure 4: Bulk vs. Non-Bulk Loading (single process)",
		Columns: []string{"size_mb", "bulk_runtime_s", "nonbulk_runtime_s", "speedup"},
		Notes: []string{
			"paper: bulk loading is 7-9x faster than singleton inserts at batch-size 40",
			fmt.Sprintf("scaling: %d generated rows per nominal MB; runtimes are virtual seconds", cfg.RowsPerMB),
		},
	}
	for i, size := range figureSizesMB(cfg.Quick) {
		seed := cfg.Seed + int64(i)

		envB, err := NewEnv(EnvOptions{Seed: seed, IndexPolicy: tuning.NoIndexes})
		if err != nil {
			return nil, err
		}
		bulk, err := envB.RunSingleLoad(SingleLoadSpec{
			SizeMB: size, RowsPerMB: cfg.RowsPerMB, Seed: seed, ErrorRate: cfg.ErrorRate,
			Loader: defaultLoader(),
		})
		if err != nil {
			return nil, fmt.Errorf("figure4 bulk %v MB: %w", size, err)
		}

		envN, err := NewEnv(EnvOptions{Seed: seed, IndexPolicy: tuning.NoIndexes})
		if err != nil {
			return nil, err
		}
		nonbulk, err := envN.RunSingleLoad(SingleLoadSpec{
			SizeMB: size, RowsPerMB: cfg.RowsPerMB, Seed: seed, ErrorRate: cfg.ErrorRate,
			Loader: defaultLoader(), NonBulk: true,
		})
		if err != nil {
			return nil, fmt.Errorf("figure4 non-bulk %v MB: %w", size, err)
		}

		bs := bulk.Elapsed.Seconds()
		ns := nonbulk.Elapsed.Seconds()
		t.AddRow(size, bs, ns, metrics.Ratio(ns, bs))
	}
	return t, nil
}

// batchSizes are the Figure 5 sweep values.
func batchSizes(quick bool) []int {
	if quick {
		return []int{10, 40, 60}
	}
	return []int{10, 20, 30, 40, 50, 60}
}

// Figure5 regenerates "Effect of Batch Size on Runtime" for a 200 MB data
// set; the paper finds the optimum between 40 and 50.
func Figure5(cfg Config) (*metrics.Table, error) {
	cfg = cfg.withDefaults()
	t := &metrics.Table{
		Title:   "Figure 5: Effect of Batch Size (200 MB data set)",
		Columns: []string{"batch_size", "runtime_s"},
		Notes:   []string{"paper: runtime falls steeply up to ~40 and flattens; optimum in the 40-50 range"},
	}
	for _, b := range batchSizes(cfg.Quick) {
		env, err := NewEnv(EnvOptions{Seed: cfg.Seed, IndexPolicy: tuning.NoIndexes})
		if err != nil {
			return nil, err
		}
		loader := defaultLoader()
		loader.BatchSize = b
		stats, err := env.RunSingleLoad(SingleLoadSpec{
			SizeMB: 200, RowsPerMB: cfg.RowsPerMB, Seed: cfg.Seed, ErrorRate: cfg.ErrorRate, Loader: loader,
		})
		if err != nil {
			return nil, fmt.Errorf("figure5 batch %d: %w", b, err)
		}
		t.AddRow(b, stats.Elapsed.Seconds())
	}
	return t, nil
}

// arraySizes are the Figure 6 sweep values.
func arraySizes(quick bool) []int {
	if quick {
		return []int{250, 1000, 1500}
	}
	return []int{250, 500, 750, 1000, 1250, 1500}
}

// Figure6 regenerates "Effect of Array Size on Runtime" for a 200 MB data
// set; the paper finds the benefit of larger arrays is lost beyond ~1000 rows
// because of client paging.
func Figure6(cfg Config) (*metrics.Table, error) {
	cfg = cfg.withDefaults()
	t := &metrics.Table{
		Title:   "Figure 6: Effect of Array Size (200 MB data set)",
		Columns: []string{"array_size", "runtime_s", "flush_cycles"},
		Notes:   []string{"paper: runtime decreases up to array-size ~1000, then rises as client paging sets in"},
	}
	for _, a := range arraySizes(cfg.Quick) {
		env, err := NewEnv(EnvOptions{Seed: cfg.Seed, IndexPolicy: tuning.NoIndexes})
		if err != nil {
			return nil, err
		}
		loader := defaultLoader()
		loader.ArraySize = a
		stats, err := env.RunSingleLoad(SingleLoadSpec{
			SizeMB: 200, RowsPerMB: cfg.RowsPerMB, Seed: cfg.Seed, ErrorRate: cfg.ErrorRate, Loader: loader,
		})
		if err != nil {
			return nil, fmt.Errorf("figure6 array %d: %w", a, err)
		}
		t.AddRow(a, stats.Elapsed.Seconds(), stats.FlushCycles)
	}
	return t, nil
}

// parallelDegrees are the Figure 7 sweep values.
func parallelDegrees(quick bool) []int {
	if quick {
		return []int{1, 4, 8}
	}
	return []int{1, 2, 3, 4, 5, 6, 7, 8}
}

// Figure7 regenerates "Effect of Parallelism": loading one observation's
// catalog files (28 files of varying size) with 1-8 concurrent loader
// processes and dynamic file assignment.  The paper sees near-linear scaling
// to 6, a peak at 6-7 and degradation (with occasional stalls) beyond.
func Figure7(cfg Config) (*metrics.Table, error) {
	cfg = cfg.withDefaults()
	nightMB := 1400.0
	if cfg.Quick {
		nightMB = 400
	}
	t := &metrics.Table{
		Title:   "Figure 7: Effect of Parallelism (one observation, dynamic file assignment)",
		Columns: []string{"loaders", "throughput_mb_s", "wall_time_s", "lock_waits", "long_stalls"},
		Notes: []string{
			"paper: throughput climbs almost linearly to 6 loaders, peaks at 6-7, and degrades at 8",
			fmt.Sprintf("workload: %0.f nominal MB split over %d files of varying size", nightMB, catalog.FilesPerObservation),
		},
	}
	for _, p := range parallelDegrees(cfg.Quick) {
		// The same observation (same seed) is loaded at every degree of
		// parallelism, as in the paper's tests on identical catalog data.
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
		})
		res, err := parallel.Run(env.Server, files, parallel.Config{
			Loaders:    p,
			Assignment: parallel.Dynamic,
			Loader:     defaultLoader(),
		})
		if err != nil {
			return nil, fmt.Errorf("figure7 parallelism %d: %w", p, err)
		}
		t.AddRow(p, res.ThroughputMBps, res.WallTime.Seconds(), res.Server.LockWaits, res.Server.LongStalls)
	}
	return t, nil
}

// Figure8 regenerates "Effect of Indices on Runtime": bulk loading 200-1200
// MB with (a) no indices, (b) one single-integer index (htmid), (c) one
// composite index on three float attributes.  The paper reports average
// slowdowns of ~1.5% and ~8.5% respectively, growing with data size.
func Figure8(cfg Config) (*metrics.Table, error) {
	cfg = cfg.withDefaults()
	t := &metrics.Table{
		Title:   "Figure 8: Effect of Indices (single loader, batch 40)",
		Columns: []string{"size_mb", "no_index_s", "int_index_s", "composite_index_s", "int_overhead_pct", "composite_overhead_pct"},
		Notes:   []string{"paper: single-integer index ~1.5% average overhead, composite 3-float index ~8.5%, growing with size"},
	}
	policies := []tuning.IndexPolicy{tuning.NoIndexes, tuning.HTMIDOnly, tuning.HTMIDPlusComposite}
	for i, size := range figureSizesMB(cfg.Quick) {
		seed := cfg.Seed + int64(i)
		runtimes := make([]float64, len(policies))
		for j, pol := range policies {
			env, err := NewEnv(EnvOptions{Seed: seed, IndexPolicy: pol})
			if err != nil {
				return nil, err
			}
			stats, err := env.RunSingleLoad(SingleLoadSpec{
				SizeMB: size, RowsPerMB: cfg.RowsPerMB, Seed: seed, ErrorRate: cfg.ErrorRate, Loader: defaultLoader(),
			})
			if err != nil {
				return nil, fmt.Errorf("figure8 %v MB %s: %w", size, pol, err)
			}
			runtimes[j] = stats.Elapsed.Seconds()
		}
		t.AddRow(size, runtimes[0], runtimes[1], runtimes[2],
			metrics.PercentChange(runtimes[1], runtimes[0]),
			metrics.PercentChange(runtimes[2], runtimes[0]))
	}
	return t, nil
}

// databaseSizesGB are the Figure 9 sweep values.
func databaseSizesGB(quick bool) []float64 {
	if quick {
		return []float64{50, 300}
	}
	return []float64{50, 100, 150, 200, 250, 300}
}

// Figure9 regenerates "Effect of Database Size": loading a 200 MB data set
// into repositories already holding 50-300 GB, with secondary indices
// disabled.  The paper finds no significant effect.  The cost model has no
// database-size term (with no secondary index, nothing a load is charged for
// grows with the rows already resident), so every point is the same load
// into an empty repository and the curve is flat by construction.
func Figure9(cfg Config) (*metrics.Table, error) {
	cfg = cfg.withDefaults()
	t := &metrics.Table{
		Title:   "Figure 9: Effect of Database Size (200 MB load, no secondary indices)",
		Columns: []string{"database_gb", "runtime_s"},
		Notes:   []string{"paper: loading time stays constant as the database grows from 50 to 300 GB"},
	}
	for _, gb := range databaseSizesGB(cfg.Quick) {
		env, err := NewEnv(EnvOptions{
			Seed: cfg.Seed, IndexPolicy: tuning.NoIndexes,
		})
		if err != nil {
			return nil, err
		}
		stats, err := env.RunSingleLoad(SingleLoadSpec{
			SizeMB: 200, RowsPerMB: cfg.RowsPerMB, Seed: cfg.Seed, ErrorRate: cfg.ErrorRate, Loader: defaultLoader(),
		})
		if err != nil {
			return nil, fmt.Errorf("figure9 %v GB: %w", gb, err)
		}
		t.AddRow(gb, stats.Elapsed.Seconds())
	}
	return t, nil
}
