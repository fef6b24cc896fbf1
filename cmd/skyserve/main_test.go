package main

import (
	"testing"

	"skyloader/internal/core"
	"skyloader/internal/parallel"
	"skyloader/internal/tuning"
)

// TestLoadConfigFollowsProfile checks that skyserve loads with its profile's
// commit policy and seal phase, as skyload -profile does: untuned commits
// every 5 batches, production and query at the end of each file (the
// loader's defaults, so their serving outputs are those of core.DefaultConfig).
func TestLoadConfigFollowsProfile(t *testing.T) {
	for _, name := range []string{"production", "untuned", "query"} {
		prof, err := tuning.ProfileByName(name)
		if err != nil {
			t.Fatal(err)
		}
		got := loadConfig(prof, 3)
		wantLoader := core.DefaultConfig()
		wantLoader.CommitEveryBatches = prof.CommitEveryBatches
		if got.Loaders != 3 || got.Assignment != parallel.Dynamic || got.NonBulk ||
			got.Loader != wantLoader || got.SealAfterLoad != prof.DeferredIndexBuild {
			t.Errorf("%s: load config %+v, want 3 dynamic loaders, loader %+v, seal %v",
				name, got, wantLoader, prof.DeferredIndexBuild)
		}
	}
	if untuned := tuning.Untuned(); untuned.CommitEveryBatches == 0 {
		t.Fatal("the untuned profile no longer commits per batch; this test checks nothing")
	}
}
