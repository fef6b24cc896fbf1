package loadconfig

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"skyloader/internal/catalog"
	"skyloader/internal/parallel"
	"skyloader/internal/relstore"
	"skyloader/internal/tuning"
)

func TestDefaultIsValid(t *testing.T) {
	cfg := Default()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("default configuration invalid: %v", err)
	}
	if cfg.BatchSize != 40 || cfg.ArraySize != 1000 || cfg.Loaders != 5 {
		t.Fatalf("defaults do not match the paper's production settings: %+v", cfg)
	}
	if cfg.IndexPolicyValue() != tuning.HTMIDOnly {
		t.Fatalf("default index policy = %v", cfg.IndexPolicyValue())
	}
}

func TestParseOverridesAndDefaults(t *testing.T) {
	doc := `{
		"batch_size": 50,
		"per_table_array_size": {"objects": 2000, "object_fingers": 4000},
		"loaders": 7,
		"assignment": "static",
		"index_policy": "htmid+composite",
		"cache_pages": 4096
	}`
	cfg, err := Parse(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.BatchSize != 50 || cfg.ArraySize != 1000 {
		t.Fatalf("override/default mix wrong: %+v", cfg)
	}
	if cfg.PerTableArraySize[catalog.TObjects] != 2000 {
		t.Fatalf("per-table sizes missing: %+v", cfg.PerTableArraySize)
	}
	if cfg.Loaders != 7 {
		t.Fatalf("loaders = %d", cfg.Loaders)
	}
	cc := cfg.ClusterConfig()
	if cc.Assignment != parallel.Static || cc.Loaders != 7 {
		t.Fatalf("cluster config: %+v", cc)
	}
	lc := cfg.LoaderConfig()
	if lc.BatchSize != 50 || lc.PerTableArraySize[catalog.TObjectFingers] != 4000 || !lc.ChargeStaging {
		t.Fatalf("loader config: %+v", lc)
	}
	if cfg.IndexPolicyValue() != tuning.HTMIDPlusComposite {
		t.Fatalf("index policy = %v", cfg.IndexPolicyValue())
	}
	if cfg.ServerConfig().CachePages != 4096 {
		t.Fatalf("server config cache = %d", cfg.ServerConfig().CachePages)
	}
	if !cfg.ServerConfig().SeparateRAID {
		t.Fatal("default RAID separation lost")
	}
}

func TestParseRejectsUnknownFieldsAndBadValues(t *testing.T) {
	// want, when set, is a substring the error must carry.
	cases := []struct{ doc, want string }{
		{doc: `{"no_such_field": 1}`},
		{doc: `{"batch_size": 0}`},
		{doc: `{"batch_size": -3}`},
		{doc: `{"array_size": 0}`},
		{doc: `{"batch_size": 5000, "array_size": 1000}`},
		{doc: `{"loaders": 0}`},
		{doc: `{"assignment": "round-robin"}`},
		{doc: `{"index_policy": "everything"}`},
		{doc: `{"per_table_array_size": {"objects": -1}}`},
		{doc: `{"commit_every_batches": -1}`},
		{doc: `{"cache_pages": -5}`},
		{doc: `not json at all`},
		// Anything after the first value is rejected, not ignored.
		{doc: `{"loaders":2}{"loaders":99}`, want: "trailing data"},
		{doc: `{"loaders":2} garbage`, want: "trailing data"},
		// A campaign that still names a removed knob fails closed.
		{doc: `{"group_commit_window_ms": 0.2}`, want: `unknown field "group_commit_window_ms"`},
	}
	for i, c := range cases {
		_, err := Parse(strings.NewReader(c.doc))
		if err == nil {
			t.Errorf("case %d (%s): expected an error", i, c.doc)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("case %d (%s): error %q does not mention %q", i, c.doc, err, c.want)
		}
	}
}

func TestWriteParseRoundTrip(t *testing.T) {
	orig := Default()
	orig.BatchSize = 45
	orig.Loaders = 6
	orig.PerTableArraySize = map[string]int{catalog.TObjects: 1500}
	var buf bytes.Buffer
	if err := orig.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.BatchSize != 45 || back.Loaders != 6 || back.PerTableArraySize[catalog.TObjects] != 1500 {
		t.Fatalf("round trip lost data: %+v", back)
	}
}

func TestLoadFromDisk(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "campaign.json")
	doc := `{"batch_size": 30, "loaders": 3, "separate_raid": false}`
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.BatchSize != 30 || cfg.Loaders != 3 {
		t.Fatalf("loaded config: %+v", cfg)
	}
	if cfg.ServerConfig().SeparateRAID {
		t.Fatal("separate_raid=false not honoured")
	}
	if _, err := Load(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing file should error")
	}
}

func TestAssignmentAndPolicyAliases(t *testing.T) {
	aliases := map[string]tuning.IndexPolicy{
		"none": tuning.NoIndexes, "no-indexes": tuning.NoIndexes,
		"htmid": tuning.HTMIDOnly, "htmid-only": tuning.HTMIDOnly, "int": tuning.HTMIDOnly,
		"htmid+composite": tuning.HTMIDPlusComposite, "all": tuning.HTMIDPlusComposite,
	}
	for alias, want := range aliases {
		cfg := Default()
		cfg.IndexPolicy = alias
		if err := cfg.Validate(); err != nil {
			t.Errorf("alias %q rejected: %v", alias, err)
		}
		if got := cfg.IndexPolicyValue(); got != want {
			t.Errorf("alias %q -> %v, want %v", alias, got, want)
		}
	}
	cfg := Default()
	cfg.Assignment = "DYNAMIC"
	if cc := cfg.ClusterConfig(); cc.Assignment != parallel.Dynamic {
		t.Fatal("case-insensitive assignment broken")
	}
}

func TestIndexBuildField(t *testing.T) {
	cfg := Default()
	if cfg.BuildPolicyValue() != relstore.IndexImmediate {
		t.Fatalf("default index_build = %v, want immediate", cfg.BuildPolicyValue())
	}
	if cfg.ClusterConfig().SealAfterLoad {
		t.Fatal("default campaign must not seal")
	}
	parsed, err := Parse(strings.NewReader(`{"index_build": "deferred"}`))
	if err != nil {
		t.Fatal(err)
	}
	if parsed.BuildPolicyValue() != relstore.IndexDeferred {
		t.Fatalf("index_build = %v, want deferred", parsed.BuildPolicyValue())
	}
	if !parsed.ClusterConfig().SealAfterLoad {
		t.Fatal("deferred campaign must enable the seal phase")
	}
	if _, err := Parse(strings.NewReader(`{"index_build": "sometimes"}`)); err == nil {
		t.Fatal("bad index_build accepted")
	}
}
