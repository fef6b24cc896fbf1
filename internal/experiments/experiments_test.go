package experiments

import (
	"slices"
	"testing"

	"skyloader/internal/catalog"
	"skyloader/internal/core"
	"skyloader/internal/metrics"
	"skyloader/internal/tuning"
)

// quickCfg keeps the experiment sweeps small and the row scaling low so the
// whole package tests in a few seconds.
func quickCfg() Config {
	return Config{Quick: true, RowsPerMB: 40, Seed: 123}
}

func colAt(t *testing.T, tbl *metrics.Table, name string) []float64 {
	t.Helper()
	col := tbl.Column(name)
	if len(col) == 0 {
		t.Fatalf("table %q has no numeric column %q:\n%s", tbl.Title, name, tbl)
	}
	return col
}

func TestNewEnvSeedsReferenceData(t *testing.T) {
	env, err := NewEnv(EnvOptions{Seed: 1, IndexPolicy: tuning.HTMIDOnly})
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := env.DB.Count("ccds"); n == 0 {
		t.Fatal("reference data not seeded")
	}
	if len(env.DB.Table(catalog.TObjects).Indexes()) != 1 {
		t.Fatal("index policy not applied")
	}
	if env.Server == nil || env.Sched == nil {
		t.Fatal("environment incomplete")
	}
}

func TestRunSingleLoad(t *testing.T) {
	env, err := NewEnv(EnvOptions{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := env.RunSingleLoad(SingleLoadSpec{
		SizeMB: 3, RowsPerMB: 40, Seed: 2, Loader: core.DefaultConfig(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.RowsLoaded == 0 || stats.Elapsed <= 0 {
		t.Fatalf("stats: %+v", stats)
	}
}

func TestFigure4BulkWins(t *testing.T) {
	tbl, err := Figure4(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	bulk := colAt(t, tbl, "bulk_runtime_s")
	nonbulk := colAt(t, tbl, "nonbulk_runtime_s")
	speedup := colAt(t, tbl, "speedup")
	for i := range bulk {
		if nonbulk[i] <= bulk[i] {
			t.Fatalf("row %d: non-bulk (%v) should be slower than bulk (%v)", i, nonbulk[i], bulk[i])
		}
		if speedup[i] < 4 || speedup[i] > 15 {
			t.Fatalf("row %d: speedup %v outside the plausible band (paper: 7-9x)", i, speedup[i])
		}
	}
	// Runtime grows with data size.
	if bulk[len(bulk)-1] <= bulk[0] {
		t.Fatal("bulk runtime should grow with data size")
	}
}

func TestFigure5BatchSweep(t *testing.T) {
	tbl, err := Figure5(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	runtimes := colAt(t, tbl, "runtime_s")
	batches := colAt(t, tbl, "batch_size")
	// The smallest batch size must be the slowest point of the sweep.
	if slices.Max(runtimes) != runtimes[0] {
		t.Fatalf("batch %v should be the slowest, got runtimes %v", batches[0], runtimes)
	}
}

func TestFigure6ArraySweep(t *testing.T) {
	tbl, err := Figure6(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	runtimes := colAt(t, tbl, "runtime_s")
	arrays := colAt(t, tbl, "array_size")
	// The optimum must be an interior value (neither the smallest nor the
	// largest array size), which is the paper's core finding.
	best := slices.Index(runtimes, slices.Min(runtimes))
	if best == 0 || best == len(runtimes)-1 {
		t.Fatalf("optimum at array size %v (runtimes %v); expected an interior optimum", arrays[best], runtimes)
	}
}

func TestFigure7ParallelismShape(t *testing.T) {
	cfg := quickCfg()
	tbl, err := Figure7(cfg)
	if err != nil {
		t.Fatal(err)
	}
	thr := colAt(t, tbl, "throughput_mb_s")
	loaders := colAt(t, tbl, "loaders")
	if len(thr) < 3 {
		t.Fatalf("expected at least 3 parallelism points, got %d", len(thr))
	}
	if thr[1] < thr[0]*1.5 {
		t.Fatalf("throughput at %v loaders (%v) should clearly exceed 1 loader (%v)", loaders[1], thr[1], thr[0])
	}
	// The last point (8 loaders) must not continue scaling linearly.
	perLoaderFirst := thr[0] / loaders[0]
	perLoaderLast := thr[len(thr)-1] / loaders[len(loaders)-1]
	if perLoaderLast > perLoaderFirst*0.95 {
		t.Fatalf("no saturation visible: per-loader throughput %v -> %v", perLoaderFirst, perLoaderLast)
	}
}

func TestFigure8IndexOverheads(t *testing.T) {
	tbl, err := Figure8(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	intOv := colAt(t, tbl, "int_overhead_pct")
	compOv := colAt(t, tbl, "composite_overhead_pct")
	for i := range intOv {
		if intOv[i] < 0 {
			t.Fatalf("integer index overhead negative: %v", intOv[i])
		}
		if compOv[i] <= intOv[i] {
			t.Fatalf("composite overhead (%v) should exceed integer overhead (%v)", compOv[i], intOv[i])
		}
	}
}

// TestFigure9FlatRuntime: the curve is flat by construction, since the DES
// model has no database-size term and every point loads the same night into
// an empty repository; the test pins that the sweep stays a sweep of
// identical loads.
func TestFigure9FlatRuntime(t *testing.T) {
	tbl, err := Figure9(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	runtimes := colAt(t, tbl, "runtime_s")
	var sum float64
	for _, r := range runtimes {
		sum += r
	}
	if slices.Max(runtimes)-slices.Min(runtimes) > sum/float64(len(runtimes))*0.05 {
		t.Fatalf("runtime varies by more than 5%% across database sizes: %v", runtimes)
	}
}

func TestHeadlineReduction(t *testing.T) {
	tbl, err := Headline(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	hours := colAt(t, tbl, "runtime_h_40gb")
	if len(hours) != 2 {
		t.Fatalf("expected 2 configurations, got %d", len(hours))
	}
	original, sky := hours[0], hours[1]
	if original/sky < 4 {
		t.Fatalf("reduction factor %.1f, expected the SkyLoader configuration to win by a wide margin", original/sky)
	}
	// The absolute >20 h / <3 h comparison only holds at the full row
	// scaling (RowsPerMB=100); the quick configuration used here scales the
	// absolute hours down proportionally, so only the ordering is asserted.
	if original <= sky {
		t.Fatalf("original pipeline (%.1f h) should be slower than SkyLoader (%.1f h)", original, sky)
	}
}

func TestAblations(t *testing.T) {
	cfg := quickCfg()

	t.Run("assignment", func(t *testing.T) {
		tbl, err := AblationAssignment(cfg)
		if err != nil {
			t.Fatal(err)
		}
		wall := colAt(t, tbl, "wall_time_s")
		if len(wall) != 2 || wall[0] >= wall[1] {
			t.Fatalf("dynamic (%v) should beat static (%v)", wall[0], wall[1])
		}
	})
	t.Run("commit", func(t *testing.T) {
		tbl, err := AblationCommitFrequency(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rt := colAt(t, tbl, "runtime_s")
		if rt[0] <= rt[len(rt)-1] {
			t.Fatalf("committing every batch (%v) should be slower than end-of-file (%v)", rt[0], rt[len(rt)-1])
		}
	})
	t.Run("cache", func(t *testing.T) {
		tbl, err := AblationCacheSize(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rt := colAt(t, tbl, "runtime_s")
		if rt[0] >= rt[len(rt)-1] {
			t.Fatalf("small cache (%v) should load faster than large cache (%v)", rt[0], rt[len(rt)-1])
		}
	})
	t.Run("errors", func(t *testing.T) {
		tbl, err := AblationErrorRate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rt := colAt(t, tbl, "runtime_s")
		calls := colAt(t, tbl, "db_calls")
		if rt[len(rt)-1] <= rt[0] || calls[len(calls)-1] <= calls[0] {
			t.Fatalf("higher error rates should cost more time and calls: %v / %v", rt, calls)
		}
	})
	t.Run("twophase", func(t *testing.T) {
		tbl, err := AblationTwoPhase(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sky := colAt(t, tbl, "skyloader_s")
		two := colAt(t, tbl, "two_phase_s")
		for i := range sky {
			if two[i] <= sky[i] {
				t.Fatalf("two-phase (%v) should be slower than single-pass (%v)", two[i], sky[i])
			}
		}
	})
}

func TestVerify(t *testing.T) {
	if err := Verify(quickCfg()); err != nil {
		t.Fatal(err)
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.Seed == 0 || cfg.RowsPerMB != 100 || cfg.ErrorRate == 0 {
		t.Fatalf("defaults: %+v", cfg)
	}
}
