// Package tuning captures the database and system tuning knobs of §4.5 of the
// paper as named profiles that experiments and tools can apply to a
// repository database and server configuration: secondary-index policy,
// commit frequency, data-cache size, presorted input and RAID separation.
package tuning

import (
	"fmt"

	"skyloader/internal/catalog"
	"skyloader/internal/relstore"
	"skyloader/internal/sqlbatch"
)

// IndexPolicy selects which secondary indices are maintained while loading
// (§4.5.1, Figure 8).
type IndexPolicy int

const (
	// NoIndexes drops every secondary index during loading.
	NoIndexes IndexPolicy = iota
	// HTMIDOnly keeps the single-integer htmid index on objects (the one
	// index the production system maintained during intensive loading).
	HTMIDOnly
	// HTMIDPlusComposite also maintains the composite three-float
	// (ra, dec, mag) index — the configuration Figure 8 shows costing ~8.5%.
	HTMIDPlusComposite
)

// String names the index policy.
func (p IndexPolicy) String() string {
	switch p {
	case NoIndexes:
		return "no-indexes"
	case HTMIDOnly:
		return "htmid-only"
	case HTMIDPlusComposite:
		return "htmid+composite"
	default:
		return fmt.Sprintf("IndexPolicy(%d)", int(p))
	}
}

// Names of the indices created by ApplyIndexPolicy.
const (
	HTMIDIndexName     = "ix_objects_htmid"
	CompositeIndexName = "ix_objects_radecmag"
)

// ApplyIndexPolicy creates (or drops) the secondary indices on the objects
// table according to the policy, with immediate (per-row) maintenance — the
// engine's historical behaviour.
func ApplyIndexPolicy(db *relstore.DB, policy IndexPolicy) error {
	return ApplyIndexPolicyWith(db, policy, relstore.IndexImmediate)
}

// ApplyIndexPolicyWith creates the secondary indices the policy requires
// under the given engine maintenance policy.  With relstore.IndexDeferred the
// indices exist but are bulk-built at DB.Seal instead of being maintained per
// batch — the paper's "drop indexes while loading, rebuild afterwards" lever
// expressed through the engine's load-policy API.
func ApplyIndexPolicyWith(db *relstore.DB, policy IndexPolicy, build relstore.IndexPolicy) error {
	// Drop both indices if present, then create what the policy requires.
	// The existence check matters: DropIndex records every error in
	// DBStats.IndexDDLFailures, and a blind drop-if-present on a fresh
	// database would pollute that counter on every environment build.
	if t := db.Table(catalog.TObjects); t != nil {
		if t.Index(HTMIDIndexName) != nil {
			_ = db.DropIndex(catalog.TObjects, HTMIDIndexName)
		}
		if t.Index(CompositeIndexName) != nil {
			_ = db.DropIndex(catalog.TObjects, CompositeIndexName)
		}
	}
	switch policy {
	case NoIndexes:
		return nil
	case HTMIDOnly:
		_, err := db.CreateIndexWith(catalog.TObjects, HTMIDIndexName, []string{"htmid"}, false, build)
		return err
	case HTMIDPlusComposite:
		if _, err := db.CreateIndexWith(catalog.TObjects, HTMIDIndexName, []string{"htmid"}, false, build); err != nil {
			return err
		}
		_, err := db.CreateIndexWith(catalog.TObjects, CompositeIndexName, []string{"ra", "dec", "mag"}, false, build)
		return err
	default:
		return fmt.Errorf("tuning: unknown index policy %d", int(policy))
	}
}

// OpenRepository opens a fresh repository database the way every tool does:
// the catalog schema under opts, the reference tables seeded in one
// transaction (32 observing runs), then the secondary indices the policy
// requires, maintained under the database's default index policy (immediate
// unless opts carry relstore.WithIndexPolicy).
func OpenRepository(indexes IndexPolicy, opts ...relstore.Option) (*relstore.DB, error) {
	db, err := relstore.Open(catalog.NewSchema(), opts...)
	if err != nil {
		return nil, err
	}
	txn, err := db.Begin()
	if err != nil {
		return nil, err
	}
	if err := catalog.SeedReference(txn, 32); err != nil {
		return nil, fmt.Errorf("tuning: seed reference data: %w", err)
	}
	if _, err := txn.Commit(); err != nil {
		return nil, err
	}
	if err := ApplyIndexPolicyWith(db, indexes, db.IndexPolicyDefault()); err != nil {
		return nil, err
	}
	return db, nil
}

// Profile bundles the tuning decisions of §4.5 into one named configuration.
type Profile struct {
	Name string
	// Indexes is the secondary-index policy during loading.
	Indexes IndexPolicy
	// CommitEveryBatches is the loader commit frequency (0 = end of file).
	CommitEveryBatches int
	// CachePages is the server data-cache size in pages.
	CachePages int
	// SeparateRAID spreads data/index/log over three devices.
	SeparateRAID bool
	// Presorted indicates the catalog files are sorted parent-before-child
	// (the §4.5.4 byproduct of extraction); the generator honours it.
	Presorted bool
	// DeferredIndexBuild selects relstore.IndexDeferred maintenance for the
	// profile's indices: the load runs inside DB.BeginLoad/DB.Seal and the
	// indices are bulk-built at Seal instead of per batch (Figure 8's
	// drop-and-rebuild lever).  False keeps immediate maintenance.
	DeferredIndexBuild bool
}

// ProfileByName resolves the -profile flag value the tools share.
func ProfileByName(name string) (Profile, error) {
	switch name {
	case "production", "prod":
		return ProductionLoading(), nil
	case "untuned":
		return Untuned(), nil
	case "query", "query-serving":
		return QueryServing(), nil
	default:
		return Profile{}, fmt.Errorf("unknown profile %q (want production|untuned|query)", name)
	}
}

// ProductionLoading is the configuration the paper converged on for the
// catch-up loading phase: only the htmid index, very infrequent commits, a
// small data cache, separated RAID devices, presorted input.
func ProductionLoading() Profile {
	return Profile{
		Name:               "production-loading",
		Indexes:            HTMIDOnly,
		CommitEveryBatches: 0,
		CachePages:         1024,
		SeparateRAID:       true,
		Presorted:          true,
	}
}

// Untuned is the starting point the paper improved on: all indices maintained
// eagerly, frequent commits, a large data cache, a single I/O device.
func Untuned() Profile {
	return Profile{
		Name:               "untuned",
		Indexes:            HTMIDPlusComposite,
		CommitEveryBatches: 5,
		CachePages:         16384,
		SeparateRAID:       false,
		Presorted:          true,
	}
}

// QueryServing is the post-load configuration: all indices rebuilt and a
// large cache for query workloads.  Loading under it is slow by design.
func QueryServing() Profile {
	return Profile{
		Name:               "query-serving",
		Indexes:            HTMIDPlusComposite,
		CommitEveryBatches: 0,
		CachePages:         16384,
		SeparateRAID:       true,
		Presorted:          true,
	}
}

// DBConfig returns the relstore configuration implied by the profile: the
// engine defaults, since the profile's data cache belongs to the simulated
// server (ServerConfig).
func (p Profile) DBConfig() relstore.Config {
	return relstore.DefaultConfig()
}

// BuildPolicy returns the engine index maintenance policy the profile
// implies.
func (p Profile) BuildPolicy() relstore.IndexPolicy {
	if p.DeferredIndexBuild {
		return relstore.IndexDeferred
	}
	return relstore.IndexImmediate
}

// Options returns the relstore.Open options implied by the profile; it is
// the functional-options form of DBConfig plus the index build policy.
func (p Profile) Options() []relstore.Option {
	return []relstore.Option{
		relstore.WithConfig(p.DBConfig()),
		relstore.WithIndexPolicy(p.BuildPolicy()),
	}
}

// Open is OpenRepository under the profile: its database configuration, index
// set and build policy; extra options are applied after the profile's, so
// they win on conflict.
func (p Profile) Open(extra ...relstore.Option) (*relstore.DB, error) {
	return OpenRepository(p.Indexes, append(p.Options(), extra...)...)
}

// ServerConfig returns the sqlbatch server configuration implied by the
// profile.
func (p Profile) ServerConfig() sqlbatch.ServerConfig {
	cfg := sqlbatch.DefaultServerConfig()
	cfg.SeparateRAID = p.SeparateRAID
	cfg.CachePages = p.CachePages
	return cfg
}

// Apply applies the profile's index policy (which indices exist, and under
// which maintenance policy) to an existing database.
func (p Profile) Apply(db *relstore.DB) error {
	return ApplyIndexPolicyWith(db, p.Indexes, p.BuildPolicy())
}
