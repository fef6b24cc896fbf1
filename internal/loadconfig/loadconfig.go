// Package loadconfig implements the configuration-file support the paper
// lists as future work (§4.3, §7): "The use of configuration files to control
// array-set initialization will not only lower client memory requirements,
// but also make the framework more adaptable for use with data sets other
// than the Palomar-Quest sky survey."
//
// A load configuration is a JSON document that fully describes one loading
// campaign: the loader tunables (batch size, default and per-table array
// sizes, memory high-water mark, commit policy), the degree of parallelism
// and assignment policy, and the database tuning profile (index policy, cache
// size, RAID separation).  cmd/skyload accepts it through the -config flag.
package loadconfig

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"

	"skyloader/internal/core"
	"skyloader/internal/parallel"
	"skyloader/internal/relstore"
	"skyloader/internal/sqlbatch"
	"skyloader/internal/tuning"
)

// FileConfig is the on-disk (JSON) representation of a loading campaign.
type FileConfig struct {
	// Loader tunables (§4.2, §4.3).
	BatchSize            int            `json:"batch_size"`
	ArraySize            int            `json:"array_size"`
	PerTableArraySize    map[string]int `json:"per_table_array_size,omitempty"`
	MemoryHighWaterBytes int64          `json:"memory_high_water_bytes,omitempty"`
	CommitEveryBatches   int            `json:"commit_every_batches"`
	RecordProvenance     bool           `json:"record_provenance"`

	// Parallelism (§4.4).
	Loaders    int    `json:"loaders"`
	Assignment string `json:"assignment"` // "dynamic" or "static"

	// Database tuning (§4.5).
	IndexPolicy string `json:"index_policy"` // "none", "htmid", "htmid+composite"
	// IndexBuild selects the engine maintenance policy for those indices:
	// "immediate" (default, per-batch maintenance) or "deferred" (suspend
	// during the load, bulk-build at the end-of-load Seal — Figure 8's
	// drop-and-rebuild lever).
	IndexBuild   string `json:"index_build,omitempty"`
	CachePages   int    `json:"cache_pages"`
	SeparateRAID *bool  `json:"separate_raid,omitempty"`

	// Simulation scale.
	RowsPerMB int   `json:"rows_per_mb,omitempty"`
	Seed      int64 `json:"seed,omitempty"`
}

// Default returns the production SkyLoader campaign configuration: batch 40,
// array 1000, 5 loaders with dynamic assignment, htmid index only, small
// cache, separated RAID devices, commits at file boundaries.
func Default() FileConfig {
	sep := true
	return FileConfig{
		BatchSize:          40,
		ArraySize:          1000,
		CommitEveryBatches: 0,
		Loaders:            5,
		Assignment:         "dynamic",
		IndexPolicy:        "htmid",
		CachePages:         1024,
		SeparateRAID:       &sep,
		RowsPerMB:          100,
		Seed:               1,
	}
}

// Parse reads a JSON configuration, filling unset fields from Default and
// validating the result.
func Parse(r io.Reader) (FileConfig, error) {
	cfg := Default()
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		return FileConfig{}, fmt.Errorf("loadconfig: %w", err)
	}
	// One JSON value is the whole campaign: a second object or stray bytes
	// after it would otherwise be ignored silently.
	if _, err := dec.Token(); err != io.EOF {
		return FileConfig{}, fmt.Errorf("loadconfig: trailing data after the configuration object")
	}
	if err := cfg.Validate(); err != nil {
		return FileConfig{}, err
	}
	return cfg, nil
}

// Load reads and parses a configuration file from disk.
func Load(path string) (FileConfig, error) {
	f, err := os.Open(path)
	if err != nil {
		return FileConfig{}, fmt.Errorf("loadconfig: %w", err)
	}
	defer f.Close()
	return Parse(f)
}

// Write serializes the configuration as indented JSON.
func (c FileConfig) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(c)
}

// Validate checks ranges and enumerations.
func (c FileConfig) Validate() error {
	var problems []string
	if c.BatchSize <= 0 {
		problems = append(problems, "batch_size must be positive")
	}
	if c.ArraySize <= 0 {
		problems = append(problems, "array_size must be positive")
	}
	if c.BatchSize > c.ArraySize {
		problems = append(problems, "batch_size is typically much smaller than array_size (paper §4.2)")
	}
	for table, n := range c.PerTableArraySize {
		if n <= 0 {
			problems = append(problems, fmt.Sprintf("per_table_array_size[%s] must be positive", table))
		}
	}
	if c.MemoryHighWaterBytes < 0 {
		problems = append(problems, "memory_high_water_bytes must not be negative")
	}
	if c.CommitEveryBatches < 0 {
		problems = append(problems, "commit_every_batches must not be negative")
	}
	if c.Loaders <= 0 {
		problems = append(problems, "loaders must be positive")
	}
	if _, err := c.assignment(); err != nil {
		problems = append(problems, err.Error())
	}
	if _, err := c.indexPolicy(); err != nil {
		problems = append(problems, err.Error())
	}
	if _, err := c.buildPolicy(); err != nil {
		problems = append(problems, err.Error())
	}
	if c.CachePages < 0 {
		problems = append(problems, "cache_pages must not be negative")
	}
	if c.RowsPerMB < 0 {
		problems = append(problems, "rows_per_mb must not be negative")
	}
	if len(problems) > 0 {
		return fmt.Errorf("loadconfig: invalid configuration: %s", strings.Join(problems, "; "))
	}
	return nil
}

func (c FileConfig) assignment() (parallel.Assignment, error) {
	switch strings.ToLower(strings.TrimSpace(c.Assignment)) {
	case "", "dynamic":
		return parallel.Dynamic, nil
	case "static":
		return parallel.Static, nil
	default:
		return parallel.Dynamic, fmt.Errorf("assignment must be \"dynamic\" or \"static\", got %q", c.Assignment)
	}
}

func (c FileConfig) indexPolicy() (tuning.IndexPolicy, error) {
	switch strings.ToLower(strings.TrimSpace(c.IndexPolicy)) {
	case "", "none", "no-indexes":
		return tuning.NoIndexes, nil
	case "htmid", "htmid-only", "int":
		return tuning.HTMIDOnly, nil
	case "htmid+composite", "all", "composite":
		return tuning.HTMIDPlusComposite, nil
	default:
		return tuning.NoIndexes, fmt.Errorf("index_policy must be none|htmid|htmid+composite, got %q", c.IndexPolicy)
	}
}

// LoaderConfig converts the campaign configuration into the core loader
// configuration.
func (c FileConfig) LoaderConfig() core.Config {
	return core.Config{
		BatchSize:            c.BatchSize,
		ArraySize:            c.ArraySize,
		PerTableArraySize:    c.PerTableArraySize,
		MemoryHighWaterBytes: c.MemoryHighWaterBytes,
		CommitEveryBatches:   c.CommitEveryBatches,
		RecordProvenance:     c.RecordProvenance,
		ChargeStaging:        true,
	}
}

// ClusterConfig converts the campaign configuration into the parallel
// coordinator configuration.  A deferred index_build turns on the cluster's
// end-of-load Seal phase.
func (c FileConfig) ClusterConfig() parallel.Config {
	assignment, _ := c.assignment()
	return parallel.Config{
		Loaders:       c.Loaders,
		Assignment:    assignment,
		Loader:        c.LoaderConfig(),
		SealAfterLoad: c.BuildPolicyValue() == relstore.IndexDeferred,
	}
}

func (c FileConfig) buildPolicy() (relstore.IndexPolicy, error) {
	p, err := relstore.ParseIndexPolicy(strings.ToLower(strings.TrimSpace(c.IndexBuild)))
	if err != nil {
		return relstore.IndexImmediate, fmt.Errorf("index_build must be immediate|deferred, got %q", c.IndexBuild)
	}
	return p, nil
}

// IndexPolicyValue returns the parsed index policy.
func (c FileConfig) IndexPolicyValue() tuning.IndexPolicy {
	p, _ := c.indexPolicy()
	return p
}

// BuildPolicyValue returns the parsed engine index maintenance policy.
func (c FileConfig) BuildPolicyValue() relstore.IndexPolicy {
	p, _ := c.buildPolicy()
	return p
}

// ServerConfig converts the campaign configuration into the simulated server
// configuration.
func (c FileConfig) ServerConfig() sqlbatch.ServerConfig {
	cfg := sqlbatch.DefaultServerConfig()
	if c.SeparateRAID != nil {
		cfg.SeparateRAID = *c.SeparateRAID
	}
	if c.CachePages > 0 {
		cfg.CachePages = c.CachePages
	}
	return cfg
}
