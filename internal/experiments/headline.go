package experiments

import (
	"fmt"

	"skyloader/internal/catalog"
	"skyloader/internal/core"
	"skyloader/internal/metrics"
	"skyloader/internal/parallel"
	"skyloader/internal/tuning"
)

// Headline regenerates the paper's headline claim: loading a 40-gigabyte
// data set took more than 20 hours with the original loading pipeline and
// less than 3 hours with the SkyLoader framework on the same hardware.
//
// The "original pipeline" configuration is the pre-SkyLoader state: the same
// Condor nodes issuing row-at-a-time inserts with frequent commits while all
// secondary indices are maintained eagerly.  The "SkyLoader production"
// configuration is parallel bulk loading with 5 concurrent loaders (the
// paper's production choice), batch 40, array 1000, delayed secondary indices
// (htmid only) and commits only at file boundaries.
//
// To keep the simulation tractable the measured night is a few nominal
// gigabytes; both configurations scale linearly with volume (Figures 4 and
// 9), so the 40 GB figures are reported by linear extrapolation and the
// scaling is recorded in the table notes.
func Headline(cfg Config) (*metrics.Table, error) {
	cfg = cfg.withDefaults()
	measuredGB := 4.0
	if cfg.Quick {
		measuredGB = 0.4
	}
	const targetGB = 40.0
	scale := targetGB / measuredGB

	type config struct {
		name       string
		loaders    int
		nonBulk    bool
		indexes    tuning.IndexPolicy
		commitEach int
	}
	configs := []config{
		{"original pipeline (5 loaders, row-at-a-time, eager indices)",
			5, true, tuning.HTMIDPlusComposite, 0},
		{"SkyLoader production (5 parallel bulk loaders, batch 40, array 1000, htmid index only, commit per file)",
			5, false, tuning.HTMIDOnly, 0},
	}

	t := &metrics.Table{
		Title:   "Headline: 40 GB night, original pipeline vs. SkyLoader framework",
		Columns: []string{"configuration", "measured_gb", "runtime_h_measured", "runtime_h_40gb", "throughput_mb_s"},
		Notes: []string{
			"paper: loading a 40 GB data set went from more than 20 hours to less than 3 hours",
			fmt.Sprintf("measured on a %.1f GB night and extrapolated linearly (x%.0f); loading scales linearly with size (Figures 4, 9)", measuredGB, scale),
		},
	}

	var runtimes []float64
	for i, c := range configs {
		env, err := NewEnv(EnvOptions{Seed: cfg.Seed + int64(i), IndexPolicy: c.indexes})
		if err != nil {
			return nil, err
		}
		files := catalog.GenerateNight(catalog.NightSpec{
			TotalMB:   measuredGB * 1000,
			RowsPerMB: cfg.RowsPerMB,
			Seed:      cfg.Seed,
			ErrorRate: cfg.ErrorRate,
			RunID:     1,
		})
		loaderCfg := core.DefaultConfig()
		loaderCfg.CommitEveryBatches = c.commitEach
		res, err := parallel.Run(env.Server, files, parallel.Config{
			Loaders:    c.loaders,
			Assignment: parallel.Dynamic,
			Loader:     loaderCfg,
			NonBulk:    c.nonBulk,
		})
		if err != nil {
			return nil, fmt.Errorf("headline %q: %w", c.name, err)
		}
		hours := res.WallTime.Hours()
		runtimes = append(runtimes, hours*scale)
		t.AddRow(c.name, measuredGB, hours, hours*scale, res.ThroughputMBps)
	}
	if len(runtimes) == 2 && runtimes[1] > 0 {
		t.Notes = append(t.Notes,
			fmt.Sprintf("reduction factor: %.1fx (paper: >20 h vs <3 h, i.e. >6.7x)", runtimes[0]/runtimes[1]))
	}
	return t, nil
}
