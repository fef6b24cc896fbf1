package main

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"skyloader/internal/loadconfig"
	"skyloader/internal/parallel"
	"skyloader/internal/relstore"
	"skyloader/internal/tuning"
)

// resolve parses args into a fresh flag set and resolves the campaign, as
// main does.
func resolve(t *testing.T, args ...string) (loadconfig.FileConfig, error) {
	t.Helper()
	fs := flag.NewFlagSet("skyload", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	o := newOptions(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return o.campaign(fs)
}

// writeCampaign writes a campaign file and returns its path.
func writeCampaign(t *testing.T, doc string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "campaign.json")
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCampaignFlagsOverConfigFile(t *testing.T) {
	path := writeCampaign(t, `{"batch_size": 25, "array_size": 500, "loaders": 3, "assignment": "static",
		"index_policy": "none", "cache_pages": 4096, "rows_per_mb": 60}`)

	// A file without a seed takes the one given on the command line.
	c, err := resolve(t, "-config", path, "-seed", "9")
	if err != nil {
		t.Fatal(err)
	}
	if c.Seed != 9 {
		t.Fatalf("-seed 9 over a file without a seed gave %d", c.Seed)
	}

	// Flags that were not given leave the file's values.
	if c.BatchSize != 25 || c.ArraySize != 500 || c.Loaders != 3 || c.RowsPerMB != 60 ||
		c.ClusterConfig().Assignment != parallel.Static || c.IndexPolicyValue() != tuning.NoIndexes ||
		c.Profile().ServerConfig().CachePages != 4096 || c.BuildPolicyValue() != relstore.IndexImmediate {
		t.Fatalf("the file's values did not survive: %+v", c)
	}

	// Each campaign flag that is given takes effect over the file.
	c, err = resolve(t, "-config", path, "-index-policy", "deferred", "-loaders", "2", "-batch", "30",
		"-array", "800", "-commit-every", "4", "-static=false", "-provenance", "-size", "2", "-rows-per-mb", "80")
	if err != nil {
		t.Fatal(err)
	}
	if c.BuildPolicyValue() != relstore.IndexDeferred || !c.ClusterConfig().SealAfterLoad {
		t.Fatalf("-index-policy deferred over a file gave %v", c.BuildPolicyValue())
	}
	if c.Loaders != 2 || c.BatchSize != 30 || c.ArraySize != 800 || c.CommitEveryBatches != 4 ||
		c.ClusterConfig().Assignment != parallel.Dynamic || !c.RecordProvenance || c.RowsPerMB != 80 {
		t.Fatalf("given flags lost: %+v", c)
	}
	if c.Seed != 1 {
		t.Fatalf("seed %d, want the default 1 from a file without one", c.Seed)
	}
}

func TestCampaignFromProfile(t *testing.T) {
	c, err := resolve(t)
	if err != nil {
		t.Fatal(err)
	}
	if want := loadconfig.Default(); c.BatchSize != want.BatchSize || c.Loaders != want.Loaders ||
		c.Seed != 1 || c.Profile().ServerConfig() != tuning.ProductionLoading().ServerConfig() {
		t.Fatalf("no flags: %+v, want the production campaign", c)
	}

	// The preset supplies the commit frequency unless -commit-every is given,
	// 0 included.
	c, err = resolve(t, "-profile", "untuned")
	if err != nil {
		t.Fatal(err)
	}
	unt := tuning.Untuned()
	if c.CommitEveryBatches != unt.CommitEveryBatches || c.IndexPolicyValue() != unt.Indexes ||
		c.Profile().ServerConfig() != unt.ServerConfig() {
		t.Fatalf("-profile untuned gave %+v", c)
	}
	if c, err = resolve(t, "-profile", "untuned", "-commit-every", "0"); err != nil || c.CommitEveryBatches != 0 {
		t.Fatalf("-commit-every 0 over the untuned preset gave %d (err %v)", c.CommitEveryBatches, err)
	}
}

func TestCampaignFlagsThatWouldNotTakeEffect(t *testing.T) {
	path := writeCampaign(t, `{"loaders": 2}`)
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-config", path, "-profile", "untuned"}, "-profile"},
		{[]string{"-files", "4"}, "-files"},
		{[]string{"-rows-per-mb", "50", "-error-rate", "0.1"}, "-error-rate, -rows-per-mb"},
		{[]string{"-crash", "-loaders", "2"}, "-loaders"},
		{[]string{"-crash", "-config", path}, "-config"},
		{[]string{"-profile", "fastest"}, "unknown profile"},
		{[]string{"-index-policy", "sometimes"}, "index_build"},
		{[]string{"-batch", "0"}, "batch_size must be positive"},
	} {
		_, err := resolve(t, c.args...)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%q: error %v, want one naming %q", c.args, err, c.want)
		}
	}
	// The flags a generated or crash run reads are accepted.
	for _, args := range [][]string{
		{"-size", "2", "-files", "4", "-rows-per-mb", "50", "-error-rate", "0.1"},
		{"-crash", "-seed", "7", "-size", "2", "-batch", "20", "-v"},
	} {
		if _, err := resolve(t, args...); err != nil {
			t.Errorf("%q: %v", args, err)
		}
	}
}
