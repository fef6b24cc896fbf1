package relstore

import "fmt"

// IndexPolicy selects when a secondary index is maintained relative to a bulk
// load.  It is the engine-level expression of the paper's biggest loading
// lever (§4.5.1, Figure 8): dropping secondary indexes during loading and
// rebuilding them afterwards beats maintaining them row by row, because a
// bulk rebuild streams presorted keys into freshly packed B-tree leaves
// instead of paying a root-to-leaf descent per row.
type IndexPolicy int

const (
	// IndexImmediate maintains the index on every insert (the default, and
	// the only behaviour the engine had before load policies existed).
	IndexImmediate IndexPolicy = iota
	// IndexDeferred suspends maintenance of the index between DB.BeginLoad
	// and DB.Seal: inserts during the load phase skip it entirely, and Seal
	// rebuilds it from the surviving heap rows in one presorted bulk pass
	// (BTree.BuildFromSorted).  Outside a load phase a deferred-policy index
	// behaves exactly like an immediate one.
	IndexDeferred
)

// String names the policy.
func (p IndexPolicy) String() string {
	switch p {
	case IndexImmediate:
		return "immediate"
	case IndexDeferred:
		return "deferred"
	default:
		return fmt.Sprintf("IndexPolicy(%d)", int(p))
	}
}

// ParseIndexPolicy parses the CLI/JSON spelling of an index policy.
func ParseIndexPolicy(s string) (IndexPolicy, error) {
	switch s {
	case "", "immediate", "eager":
		return IndexImmediate, nil
	case "deferred", "bulk", "rebuild":
		return IndexDeferred, nil
	default:
		return IndexImmediate, fmt.Errorf("relstore: unknown index policy %q (want immediate|deferred)", s)
	}
}

// Option configures a database opened with Open.  Options subsume the fields
// of the Config struct and add the load-lifecycle policies that have no
// Config equivalent.
type Option func(*openConfig)

// openConfig is the resolved option set.
type openConfig struct {
	cfg         Config
	indexPolicy IndexPolicy
	// faultHook is the test-only fault-injection hook (see WithFaultHook).
	faultHook FaultHook
	// recovering marks an open performed by Recover: the durable device is not
	// created up front — Recover replays existing state first and resumes the
	// device itself.
	recovering bool
}

// WithConfig adopts a Config wholesale, for callers that build one in place
// (tuning profiles, the benchmark); new code should prefer the individual
// options.
func WithConfig(cfg Config) Option {
	return func(o *openConfig) { o.cfg = cfg }
}

// WithMaxConcurrentTxns sets the concurrent-transaction limit; 0 means
// unlimited.  Exceeding it produces lock waits at high parallelism (§5.4).
func WithMaxConcurrentTxns(n int) Option {
	return func(o *openConfig) { o.cfg.MaxConcurrentTxns = n }
}

// WithBTreeDegree sets the minimum degree of secondary-index B-trees.
func WithBTreeDegree(degree int) Option {
	return func(o *openConfig) { o.cfg.BTreeDegree = degree }
}

// WithIndexPolicy sets the default maintenance policy for indexes created by
// CreateIndex.  Individual indexes can override it via CreateIndexWith.
func WithIndexPolicy(p IndexPolicy) Option {
	return func(o *openConfig) { o.indexPolicy = p }
}

// WithWALDir makes the WAL durable: append paths write self-describing,
// CRC-checksummed records into segmented log files under path, commit syncs
// map to real fsyncs, and relstore.Recover can replay the directory into a
// fresh database after a crash.  Unset (the default), the WAL remains
// in-memory cost accounting only and nothing touches the filesystem — every
// DES figure and benchmark is byte-identical with and without this feature
// compiled in.
//
// Open refuses a directory that already holds log state; reopen existing
// state with Recover.
func WithWALDir(path string) Option {
	return func(o *openConfig) { o.cfg.WALDir = path }
}

// WithCheckpointEvery enables automatic checkpoints: after roughly every
// `bytes` of durable log appended, a commit triggers DB.Checkpoint, bounding
// replay time by the checkpoint interval rather than the full history.  0
// (the default) disables automatic checkpoints; explicit DB.Checkpoint calls
// still work.  Requires WithWALDir.
func WithCheckpointEvery(bytes int64) Option {
	return func(o *openConfig) { o.cfg.CheckpointEveryBytes = bytes }
}

// WithWALSegmentBytes sets the durable log's segment size; a segment that
// would exceed it rotates (flush, fsync, close) and appends continue in a
// fresh file.  0 (the default) uses 4 MiB.  Requires WithWALDir.
func WithWALSegmentBytes(n int64) Option {
	return func(o *openConfig) { o.cfg.WALSegmentBytes = n }
}

// Open creates a database for the given schema, configured by functional
// options.  Zero-valued knobs fall back to DefaultConfig values.  Open is the
// engine's constructor.
func Open(schema *Schema, opts ...Option) (*DB, error) {
	oc := openConfig{indexPolicy: IndexImmediate}
	for _, opt := range opts {
		opt(&oc)
	}
	return open(schema, oc)
}

// MustOpen is Open that panics on error.
func MustOpen(schema *Schema, opts ...Option) *DB {
	db, err := Open(schema, opts...)
	if err != nil {
		panic(err)
	}
	return db
}
