package skyloader_test

import (
	"reflect"
	"slices"
	"testing"

	"skyloader/internal/arrayset"
	"skyloader/internal/baseline"
	"skyloader/internal/catalog"
	"skyloader/internal/core"
	"skyloader/internal/exec"
	"skyloader/internal/experiments"
	"skyloader/internal/httpserve"
	"skyloader/internal/loadconfig"
	"skyloader/internal/parallel"
	"skyloader/internal/serve"
	"skyloader/internal/shard"
	"skyloader/internal/sqlbatch"
	"skyloader/internal/tuning"
)

// TestConfigSurfaces pins the settable fields of the configuration structs
// outside relstore (relstore.TestConfigSurface pins the engine's): the ten
// left of the eleven the knob audit went through, 40 fields, then
// serve.Config, shard.Config, arrayset.Config, the experiment harness's two
// and the campaign file, 68 fields in all.  Adding,
// removing or renaming a field fails it until PERFORMANCE.md's knob audit has
// a row for the field: who sets it, and why it is not a constant.
func TestConfigSurfaces(t *testing.T) {
	for _, c := range []struct {
		cfg  any
		want []string
	}{
		{parallel.Config{}, []string{"Loaders", "Assignment", "Loader", "NonBulk", "SealAfterLoad"}},
		{httpserve.Config{}, []string{"TraceEvery"}},
		{shard.AgentConfig{}, []string{"Profile", "Loader"}},
		{shard.SimConfig{}, []string{"Shards", "Seed", "SizeMB", "Files", "RowsPerMB", "Queries", "ConeFrac", "Deferred"}},
		{catalog.GenSpec{}, []string{"Name", "SizeMB", "RowsPerMB", "Seed", "ErrorRate", "IDBase", "RunID", "Unsorted"}},
		{tuning.Profile{}, []string{"Name", "Indexes", "CommitEveryBatches", "CachePages", "SeparateRAID", "DeferredIndexBuild"}},
		{core.Config{}, []string{"BatchSize", "ArraySize", "CommitEveryBatches", "RecordProvenance", "LoaderNode"}},
		{baseline.NonBulkConfig{}, []string{"CommitEveryRows"}},
		{exec.RealtimeConfig{}, []string{"Seed"}},
		{sqlbatch.ServerConfig{}, []string{"TxnSlots", "SeparateRAID", "CachePages"}},
		{serve.Config{}, []string{"Workers", "QueueDepth", "Deadline", "CacheShards", "CacheEntriesPerShard", "Cost"}},
		{shard.Config{}, []string{"Deferred"}},
		{arrayset.Config{}, []string{"ArraySize", "RowOverheadBytes"}},
		{experiments.Config{}, []string{"Seed", "RowsPerMB", "ErrorRate", "Quick"}},
		{experiments.EnvOptions{}, []string{"Seed", "ServerConfig", "IndexPolicy"}},
		{loadconfig.FileConfig{}, []string{"BatchSize", "ArraySize", "CommitEveryBatches", "RecordProvenance",
			"Loaders", "Assignment", "IndexPolicy", "IndexBuild", "CachePages", "SeparateRAID", "RowsPerMB", "Seed"}},
	} {
		typ := reflect.TypeOf(c.cfg)
		var got []string
		for _, f := range reflect.VisibleFields(typ) {
			got = append(got, f.Name)
		}
		if !slices.Equal(got, c.want) {
			t.Errorf("%s fields changed:\n got  %q\n want %q\n"+
				"update the Knob audit table in PERFORMANCE.md (who sets the field, and its verdict), then this list",
				typ, got, c.want)
		}
	}
}
