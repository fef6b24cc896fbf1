package main

import (
	"flag"
	"io"
	"strings"
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

// TestFlagsThatWouldNotTakeEffect: a flag its mode overwrites (-smoke) or
// never reads (-trace, -fig8) is an error, and the flags each mode reads are
// accepted.
func TestFlagsThatWouldNotTakeEffect(t *testing.T) {
	check := func(args ...string) error {
		fs := flag.NewFlagSet("skyserve", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		o := newOptions(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		return o.check(fs)
	}
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-smoke", "-size", "20"}, "-size with -smoke"},
		{[]string{"-smoke", "-files", "8", "-queries", "50"}, "-files with -smoke, -queries with -smoke"},
		{[]string{"-http", "127.0.0.1:0", "-smoke", "-loaders", "3", "-workers", "8"}, "-loaders with -smoke, -workers with -smoke"},
		{[]string{"-trace", "t.csv", "-queries", "50"}, "-queries with -trace"},
		{[]string{"-trace", "t.csv", "-zipf", "0.9", "-cone-frac", "0.5", "-rate", "100"}, "-cone-frac with -trace, -rate with -trace, -zipf with -trace"},
		{[]string{"-fig8", "-engine", "realtime"}, "-engine with -fig8"},
		{[]string{"-fig8", "-mixed", "-profile", "untuned"}, "-mixed with -fig8, -profile with -fig8"},
	} {
		err := check(c.args...)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%q: error %v, want one naming %q", c.args, err, c.want)
		}
	}
	for _, args := range [][]string{
		{},
		{"-smoke"},
		{"-http", "127.0.0.1:0", "-smoke"},
		{"-smoke", "-engine", "des", "-seed", "3"},
		{"-trace", "t.csv", "-size", "20", "-mixed", "-engine", "both"},
		{"-fig8", "-queries", "2000", "-size", "20", "-loaders", "2"},
		{"-mixed", "-engine", "both", "-queries", "2000", "-zipf", "1.1"},
		{"-trace", "", "-queries", "50"},
	} {
		if err := check(args...); err != nil {
			t.Errorf("%q: %v", args, err)
		}
	}
}
