// Package parallel implements the cluster loading coordinator of §4.4: a set
// of loader processes on separate cluster nodes feeding one database server,
// with catalog files handed out either dynamically ("on the fly", as soon as
// a node finishes a file it takes the next unloaded one) or statically
// (pre-partitioned).  Dynamic assignment is the paper's choice because the 28
// files of an observation vary in size and error density.
//
// The coordinator is execution-agnostic: it spawns loader workers on
// whichever exec.Scheduler the server was built with.  On the DES scheduler
// the loaders are simulation processes sharing one virtual clock (the mode
// every §5 figure uses); on the realtime scheduler each loader is a real
// goroutine, so the load genuinely runs in parallel and WallTime is real
// elapsed time.
package parallel

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"skyloader/internal/baseline"
	"skyloader/internal/catalog"
	"skyloader/internal/core"
	"skyloader/internal/exec"
	"skyloader/internal/relstore"
	"skyloader/internal/sqlbatch"
)

// Assignment selects how catalog files are distributed to loader nodes.
type Assignment int

const (
	// Dynamic hands each node the next unloaded file as soon as it becomes
	// idle (the paper's load-balancing strategy).
	Dynamic Assignment = iota
	// Static divides the files evenly among the nodes up front.
	Static
)

// String names the assignment policy.
func (a Assignment) String() string {
	if a == Dynamic {
		return "dynamic"
	}
	return "static"
}

// Config controls a cluster load.
type Config struct {
	// Loaders is the number of concurrent loader processes (degree of
	// parallelism).
	Loaders int
	// Assignment is the file-distribution policy.
	Assignment Assignment
	// Loader is the per-node SkyLoader configuration.
	Loader core.Config
	// NonBulk switches every node to the singleton-insert baseline loader
	// (used by the headline experiment's "original pipeline" configuration).
	NonBulk bool
	// SealAfterLoad runs an end-of-load Seal phase once every node has
	// finished: deferred-policy indexes are bulk-rebuilt by a single
	// coordinator worker and the build time is folded into Result.WallTime
	// (and reported separately as Result.SealTime).  Exactly one seal happens
	// per cluster load, regardless of the loader count.
	SealAfterLoad bool
}

// NodeResult reports one loader node's outcome.
type NodeResult struct {
	Node       int
	FilesDone  []string
	Stats      core.Stats
	StartedAt  time.Duration
	FinishedAt time.Duration
	Err        error
}

// Result reports a whole cluster load.
type Result struct {
	Nodes []NodeResult
	// Total aggregates all node statistics.
	Total core.Stats
	// WallTime is the makespan: from the first node starting to the last
	// node finishing.  It is virtual time under the DES scheduler and real
	// elapsed time under the realtime scheduler.
	WallTime time.Duration
	// ThroughputMBps is nominal megabytes loaded per second of makespan.
	ThroughputMBps float64
	// SealTime is the duration of the end-of-load Seal phase (zero unless
	// Config.SealAfterLoad ran one); it is included in WallTime.  Seal is
	// the engine's report of what the phase rebuilt.
	SealTime time.Duration
	Seal     relstore.SealReport
	// Server is the database server's counter snapshot after the run.
	Server sqlbatch.ServerStats
}

// fileQueue is the dynamic-assignment work queue: a mutex-guarded cursor.
// It needs no fork by engine — under the deterministic scheduler only one
// process runs at a time, so the take order replays identically, and between
// real loader goroutines the lock makes it first come, first served.
type fileQueue struct {
	mu   sync.Mutex
	list []*catalog.File
	next int
}

// take returns the next unloaded file, or nil when the queue is drained.
func (q *fileQueue) take() *catalog.File {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.next >= len(q.list) {
		return nil
	}
	f := q.list[q.next]
	q.next++
	return f
}

// Cluster is a set of spawned loader nodes.  Spawn registers the workers on
// the server's scheduler without running it, so callers can co-schedule other
// workloads (e.g. a query-serving trace in internal/serve's mixed scenario)
// on the same clock before driving everything with a single scheduler Run.
type Cluster struct {
	server  *sqlbatch.Server
	results []NodeResult

	// active is the number of loader workers currently between start and
	// finish — the cluster's "ingest in progress" gauge.  Co-scheduled
	// workloads read it through Busy to classify their own measurements by
	// load phase (serve.RunMixed samples read latency against it for the
	// during-ingest p99 headline).
	active atomic.Int64
}

// Busy reports whether any loader node is still running.  It is exact on the
// DES engine (single runner) and a momentary gauge under real concurrency —
// either way, the window between the first node starting and the last node
// finishing is the ingest window.
func (c *Cluster) Busy() bool { return c.active.Load() > 0 }

// Run performs a cluster load of files against server using cfg.Loaders
// concurrent loader workers, driving the server's scheduler until every node
// finishes.  It must be called before the scheduler has been run for other
// purposes in the same time window.  With cfg.SealAfterLoad the load is
// followed by a single coordinator-driven Seal phase.
func Run(server *sqlbatch.Server, files []*catalog.File, cfg Config) (Result, error) {
	cl, err := Spawn(server, files, cfg)
	if err != nil {
		return Result{}, err
	}
	server.Scheduler().Run()
	res, err := cl.Collect()
	if err != nil {
		return res, err
	}
	if cfg.SealAfterLoad {
		if err := SealPhase(server, &res); err != nil {
			return res, err
		}
	}
	return res, nil
}

// SealPhase closes the engine's load phase after a cluster load: one
// coordinator worker calls Server.Seal, so the bulk index rebuild happens
// exactly once and after every loader has finished.  The phase's duration is
// added to res.WallTime (the load is not done until its indexes are) and the
// throughput and server snapshot are refreshed.  It runs the scheduler for a
// second phase, so it must only be called once the first Run has returned —
// parallel.Run and serve.RunMixed do this; direct Spawn/Collect callers may
// call it themselves.
func SealPhase(server *sqlbatch.Server, res *Result) error {
	sched := server.Scheduler()
	var (
		rep     relstore.SealReport
		sealErr error
		dur     time.Duration
	)
	sched.Spawn("sealer", func(w exec.Worker) {
		start := w.Now()
		rep, sealErr = server.Seal(w)
		dur = w.Now() - start
	})
	sched.Run()
	if sealErr != nil {
		return fmt.Errorf("parallel: seal: %w", sealErr)
	}
	res.Seal = rep
	res.SealTime = dur
	res.WallTime += dur
	if res.WallTime > 0 {
		res.ThroughputMBps = float64(res.Total.NominalBytes) / 1e6 / res.WallTime.Seconds()
	}
	res.Server = server.Stats()
	return nil
}

// Spawn registers cfg.Loaders loader workers for the files on the server's
// scheduler and returns the pending cluster.  The workers do not run until
// the scheduler is driven; call Collect after the scheduler's Run returns.
// With cfg.SealAfterLoad the engine's load phase is opened here, before any
// loader starts (an already-open phase is tolerated, so callers may
// BeginLoad themselves); the matching SealPhase runs after Collect.
func Spawn(server *sqlbatch.Server, files []*catalog.File, cfg Config) (*Cluster, error) {
	if cfg.Loaders <= 0 {
		cfg.Loaders = 1
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("parallel: no files to load")
	}
	if cfg.SealAfterLoad {
		if err := server.BeginLoad(); err != nil && !errors.Is(err, relstore.ErrLoadPhaseActive) {
			return nil, fmt.Errorf("parallel: begin load: %w", err)
		}
	}
	sched := server.Scheduler()

	queue := &fileQueue{list: append([]*catalog.File{}, files...)}

	// Static pre-partition: files are dealt round-robin, which is how an
	// even split is usually done when sizes are unknown.
	static := make([][]*catalog.File, cfg.Loaders)
	if cfg.Assignment == Static {
		for i, f := range files {
			static[i%cfg.Loaders] = append(static[i%cfg.Loaders], f)
		}
	}

	cl := &Cluster{server: server, results: make([]NodeResult, cfg.Loaders)}
	results := cl.results
	for n := 0; n < cfg.Loaders; n++ {
		n := n
		sched.Spawn(fmt.Sprintf("loader-%02d", n+1), func(w exec.Worker) {
			res := &results[n]
			res.Node = n + 1
			res.StartedAt = w.Now()
			cl.active.Add(1)
			conn := server.ConnectWorker(w)
			defer func() {
				_ = conn.Close()
				res.FinishedAt = w.Now()
				cl.active.Add(-1)
			}()

			loaderCfg := cfg.Loader
			loaderCfg.LoaderNode = n + 1

			// One bulk loader for the node's whole run: provenance ids keep
			// counting across files (a loader per file restarted them, and the
			// duplicate load_runs/load_errors rows were dropped), and the
			// array-set's slabs and the transformer serve every file.
			var ld *core.Loader
			defer func() {
				if ld != nil {
					res.Stats.Merge(ld.Stats())
				}
			}()
			loadOne := func(f *catalog.File) error {
				if cfg.NonBulk {
					nb := baseline.NewNonBulkLoader(conn, baseline.NonBulkConfig{
						// Map the bulk commit policy onto a per-row policy so
						// the "original pipeline" commits frequently when the
						// bulk config would have committed per batch.
						CommitEveryRows: cfg.Loader.CommitEveryBatches * maxInt(cfg.Loader.BatchSize, 1),
					})
					if err := nb.LoadFile(f); err != nil {
						return err
					}
					res.Stats.Merge(nb.Stats())
					return nil
				}
				if ld == nil {
					var err error
					if ld, err = core.NewLoader(conn, loaderCfg); err != nil {
						return err
					}
				}
				return ld.LoadFile(f)
			}

			if cfg.Assignment == Static {
				for _, f := range static[n] {
					if err := loadOne(f); err != nil {
						res.Err = err
						return
					}
					res.FilesDone = append(res.FilesDone, f.Name)
				}
				return
			}
			for {
				f := queue.take()
				if f == nil {
					return
				}
				if err := loadOne(f); err != nil {
					res.Err = err
					return
				}
				res.FilesDone = append(res.FilesDone, f.Name)
			}
		})
	}

	return cl, nil
}

// Collect aggregates the node results.  It must only be called after the
// scheduler's Run has returned (every node finished); calling it earlier
// reads partial results.
func (c *Cluster) Collect() (Result, error) {
	out := Result{Nodes: c.results, Server: c.server.Stats()}
	out.Total.RowsLoadedByTable = make(map[string]int)
	out.Total.SkippedByTable = make(map[string]int)
	var firstStart, lastFinish time.Duration
	for i, r := range c.results {
		if r.Err != nil {
			return out, fmt.Errorf("parallel: node %d failed: %w", r.Node, r.Err)
		}
		out.Total.Merge(r.Stats)
		if i == 0 || r.StartedAt < firstStart {
			firstStart = r.StartedAt
		}
		if r.FinishedAt > lastFinish {
			lastFinish = r.FinishedAt
		}
	}
	out.WallTime = lastFinish - firstStart
	if out.WallTime > 0 {
		out.ThroughputMBps = float64(out.Total.NominalBytes) / 1e6 / out.WallTime.Seconds()
	}
	return out, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
