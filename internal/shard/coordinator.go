package shard

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"skyloader/internal/catalog"
	"skyloader/internal/exec"
	"skyloader/internal/metrics"
	"skyloader/internal/queries"
	"skyloader/internal/shard/wire"
	"skyloader/internal/trace"
)

// Config controls a coordinator.
type Config struct {
	// Deferred drives an explicit BeginLoad/Seal window on every agent
	// around LoadFiles (the Figure 8 drop-indexes-while-loading lever,
	// fleet-wide).
	Deferred bool
}

// dispatch records one file handed to one shard, so a restarted shard can
// be replayed from the coordinator's copy of the catalog.
type dispatch struct {
	file *catalog.File
	home bool
}

// Coordinator fronts a fleet of shard agents: it owns the partition map,
// hands catalog files to the shards whose trixel ranges they overlap, and
// serves queries by scattering to the owning shards and merging the sorted
// partial results.  It never reads a shard's rows directly — all state
// flows through wire messages.
type Coordinator struct {
	sched exec.Scheduler
	pm    *PartitionMap
	cfg   Config
	// scatterNames[s] names the fan-out worker of shard s.
	scatterNames []string

	mu      sync.Mutex
	clients []Client
	plans   [][]dispatch // per-shard replay log

	queryID atomic.Uint64
	taskID  atomic.Uint64

	// metrics
	queriesTotal  atomic.Int64
	queryErrors   atomic.Int64
	fanoutByClass sync.Map // class string -> *atomic.Int64
	shardRequests []atomic.Int64
	shardLoads    []atomic.Int64
	gather        *metrics.Histogram
}

// New creates a coordinator over one client per shard.  len(clients) must
// equal pm.Shards().
func New(sched exec.Scheduler, pm *PartitionMap, clients []Client, cfg Config) (*Coordinator, error) {
	if len(clients) != pm.Shards() {
		return nil, fmt.Errorf("shard: %d clients for %d shards", len(clients), pm.Shards())
	}
	names := make([]string, pm.Shards())
	for s := range names {
		names[s] = fmt.Sprintf("scatter-%d", s)
	}
	return &Coordinator{
		scatterNames:  names,
		sched:         sched,
		pm:            pm,
		cfg:           cfg,
		clients:       clients,
		plans:         make([][]dispatch, pm.Shards()),
		shardRequests: make([]atomic.Int64, pm.Shards()),
		shardLoads:    make([]atomic.Int64, pm.Shards()),
		gather:        metrics.NewHistogram(),
	}, nil
}

// Scheduler returns the scheduler the coordinator fans out on.
func (c *Coordinator) Scheduler() exec.Scheduler { return c.sched }

// client returns the current client for shard s (swappable by RestoreShard).
func (c *Coordinator) client(s int) Client {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.clients[s]
}

// Hello introduces the coordinator to every shard, assigning identities and
// trixel ranges.  It must run before LoadFiles or Execute.
func (c *Coordinator) Hello(w exec.Worker) error {
	errs := c.fanout(w, allShards(c.pm.Shards()), func(fw exec.Worker, s int) error {
		return c.hello(fw, s)
	})
	return firstError(errs)
}

func (c *Coordinator) hello(w exec.Worker, s int) error {
	rng := c.pm.Range(s)
	reply, err := c.client(s).Call(w, wire.Hello{
		ShardID:  uint32(s),
		Shards:   uint32(c.pm.Shards()),
		RangeLo:  rng.Lo,
		RangeHi:  rng.Hi,
		Deferred: c.cfg.Deferred,
	})
	if err != nil {
		return fmt.Errorf("shard %d: hello: %w", s, err)
	}
	if _, ok := reply.(wire.Ready); !ok {
		return fmt.Errorf("shard %d: hello reply type 0x%02x", s, reply.Type())
	}
	return nil
}

// LoadReport summarizes a fleet load.
type LoadReport struct {
	Files       int
	Tasks       int
	RowsLoaded  int64
	RowsSkipped int64
	Elapsed     time.Duration
}

// LoadFiles distributes catalog files across the fleet: each file goes to
// every shard owning at least one of its object trixels (plus its home
// shard), agents filter to their range, and — under Deferred — a final Seal
// task closes every shard's load window.  Shards load their queues in
// parallel; files within one shard's queue load in order.
func (c *Coordinator) LoadFiles(w exec.Worker, files []*catalog.File) (LoadReport, error) {
	start := w.Now()
	queues := make([][]dispatch, c.pm.Shards())
	for _, f := range files {
		targets, home := fileOwners(c.pm, f)
		for _, s := range targets {
			queues[s] = append(queues[s], dispatch{file: f, home: s == home})
		}
	}
	c.mu.Lock()
	for s := range queues {
		c.plans[s] = append(c.plans[s], queues[s]...)
	}
	c.mu.Unlock()

	rep := LoadReport{Files: len(files)}
	var repMu sync.Mutex
	errs := c.fanout(w, allShards(c.pm.Shards()), func(fw exec.Worker, s int) error {
		loaded, skipped, tasks, err := c.loadQueue(fw, s, queues[s], c.cfg.Deferred)
		repMu.Lock()
		rep.RowsLoaded += loaded
		rep.RowsSkipped += skipped
		rep.Tasks += tasks
		repMu.Unlock()
		return err
	})
	rep.Elapsed = w.Now() - start
	return rep, firstError(errs)
}

// loadQueue sends one shard its file queue (and closing Seal) in order.
func (c *Coordinator) loadQueue(w exec.Worker, s int, queue []dispatch, seal bool) (loaded, skipped int64, tasks int, err error) {
	for _, d := range queue {
		res, err := c.sendLoad(w, s, d)
		if err != nil {
			return loaded, skipped, tasks, err
		}
		tasks++
		loaded += res.RowsLoaded
		skipped += res.RowsSkipped
	}
	if seal {
		if _, err := c.client(s).Call(w, wire.LoadTask{TaskID: c.taskID.Add(1), Seal: true}); err != nil {
			return loaded, skipped, tasks, fmt.Errorf("shard %d: seal: %w", s, err)
		}
		tasks++
	}
	return loaded, skipped, tasks, nil
}

func (c *Coordinator) sendLoad(w exec.Worker, s int, d dispatch) (wire.LoadResult, error) {
	f := d.file
	lines := make([]string, len(f.Records))
	for i, rec := range f.Records {
		lines[i] = rec.Format()
	}
	task := wire.LoadTask{
		TaskID:       c.taskID.Add(1),
		Home:         d.home,
		Name:         f.Name,
		RABase:       f.RABase,
		DecBase:      f.DecBase,
		NominalBytes: f.NominalBytes,
		Lines:        lines,
	}
	reply, err := c.client(s).Call(w, task)
	if err != nil {
		return wire.LoadResult{}, fmt.Errorf("shard %d: load %s: %w", s, f.Name, err)
	}
	res, ok := reply.(wire.LoadResult)
	if !ok {
		return wire.LoadResult{}, fmt.Errorf("shard %d: load reply type 0x%02x", s, reply.Type())
	}
	if res.Err != "" {
		return wire.LoadResult{}, fmt.Errorf("shard %d: load %s: %s", s, f.Name, res.Err)
	}
	c.shardLoads[s].Add(1)
	return res, nil
}

// Targets returns the scatter set for a query: cone searches go only to
// shards whose ranges overlap the cone cover; everything else (point
// lookups could be routed narrower only with an object-id→trixel map the
// coordinator deliberately does not keep) fans out to all shards.
func (c *Coordinator) Targets(q queries.Query) ([]int, error) {
	if cone, ok := q.(queries.Cone); ok {
		return c.pm.ConeTargets(cone.RA, cone.Dec, cone.RadiusDeg)
	}
	return allShards(c.pm.Shards()), nil
}

// Execute scatters one query to its owning shards, gathers and merges the
// sorted partial results, and returns an answer byte-identical to the
// single-node oracle.  tr (nil-safe) gets cross-node StageScatter and
// StageGather spans.
func (c *Coordinator) Execute(w exec.Worker, q queries.Query, tr *trace.Req) (queries.Result, error) {
	targets, err := c.Targets(q)
	if err != nil {
		return queries.Result{}, err
	}
	c.queriesTotal.Add(1)
	c.classFanout(q.Class()).Add(int64(len(targets)))

	id := c.queryID.Add(1)
	wq, err := wire.FromQuery(id, q)
	if err != nil {
		return queries.Result{}, err
	}

	replies := make([]wire.QueryResult, len(targets))
	scatterStart := w.Now()
	errs := c.fanout(w, targets, func(fw exec.Worker, s int) error {
		c.shardRequests[s].Add(1)
		reply, err := c.client(s).Call(fw, wq)
		if err != nil {
			return fmt.Errorf("shard %d: %w", s, err)
		}
		res, ok := reply.(wire.QueryResult)
		if !ok {
			return fmt.Errorf("shard %d: query reply type 0x%02x", s, reply.Type())
		}
		if res.Err != "" {
			return fmt.Errorf("shard %d: %s", s, res.Err)
		}
		for i, t := range targets {
			if t == s {
				replies[i] = res
			}
		}
		return nil
	})
	tr.Mark(trace.StageScatter, w.Now())
	if err := firstError(errs); err != nil {
		c.queryErrors.Add(1)
		return queries.Result{}, err
	}

	merged := c.merge(q, replies)
	now := w.Now()
	tr.Mark(trace.StageGather, now)
	c.gather.Observe(now - scatterStart)
	return merged, nil
}

// Read and TableEpoch make the coordinator a serve.Engine, so a serve.Server
// admits, sheds and deadlines fleet queries exactly as it does a database's.
// No shard commit epoch crosses the wire, so a fleet answer is never
// cacheable and the epoch is a constant; the fleet's serve.Server is built
// with its result cache disabled.
func (c *Coordinator) Read(w exec.Worker, q queries.Query, tr *trace.Req) (queries.Result, int64, bool, error) {
	res, err := c.Execute(w, q, tr)
	return res, 0, false, err
}

func (c *Coordinator) TableEpoch(string) int64 { return 0 }

// merge combines per-shard partial results into the single-node answer.
func (c *Coordinator) merge(q queries.Query, replies []wire.QueryResult) queries.Result {
	var out queries.Result
	for _, r := range replies {
		out.Stats.RowsExamined += r.Stats.RowsExamined
		out.Stats.TrixelsScanned += r.Stats.TrixelsScanned
		out.Stats.UsedIndex = out.Stats.UsedIndex || r.Stats.UsedIndex
	}
	switch t := q.(type) {
	case queries.MagHistogram:
		out.Bins = mergeBins(t.BinWidth, replies)
		// Histogram semantics: RowsReturned counts bins, as on the
		// single node.
		out.Stats.RowsReturned = len(out.Bins)
	default:
		out.Objects = mergeObjects(replies)
		out.Stats.RowsReturned = len(out.Objects)
	}
	return out
}

// mergeObjects k-way merges per-shard object lists (each sorted by object
// id) into one sorted list.  Shards are row-disjoint by construction, but
// duplicates are still dropped defensively so a misrouted row can never
// fabricate output the oracle would not produce.
func mergeObjects(replies []wire.QueryResult) []queries.Object {
	total := 0
	for _, r := range replies {
		total += len(r.Objects)
	}
	if total == 0 {
		return nil
	}
	out := make([]queries.Object, 0, total)
	idx := make([]int, len(replies))
	for {
		best := -1
		for i, r := range replies {
			if idx[i] >= len(r.Objects) {
				continue
			}
			if best < 0 || r.Objects[idx[i]].ObjectID < replies[best].Objects[idx[best]].ObjectID {
				best = i
			}
		}
		if best < 0 {
			break
		}
		o := replies[best].Objects[idx[best]]
		idx[best]++
		if len(out) > 0 && out[len(out)-1].ObjectID == o.ObjectID {
			continue
		}
		out = append(out, o)
	}
	return out
}

// mergeBins sums per-shard histogram bins keyed by bin index and rebuilds
// the contiguous low/high edges exactly as the single-node query does.
func mergeBins(binWidth float64, replies []wire.QueryResult) []queries.MagnitudeBin {
	counts := make(map[int64]int64)
	for _, r := range replies {
		for _, b := range r.Bins {
			k := int64(math.Round(b.Low / binWidth))
			counts[k] += b.Count
		}
	}
	if len(counts) == 0 {
		return nil
	}
	keys := make([]int64, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	out := make([]queries.MagnitudeBin, 0, len(keys))
	for _, k := range keys {
		out = append(out, queries.MagnitudeBin{
			Low:   float64(k) * binWidth,
			High:  float64(k+1) * binWidth,
			Count: counts[k],
		})
	}
	return out
}

// Ready probes every shard and reports whether the whole fleet can serve.
// One lagging agent (replaying a WAL, mid-Seal, still loading) keeps the
// fleet unready — the /healthz aggregation contract.
func (c *Coordinator) Ready(w exec.Worker) bool {
	stats, err := c.ShardStats(w)
	if err != nil {
		return false
	}
	for _, st := range stats {
		if !st.Ready {
			return false
		}
	}
	return true
}

// ShardStats probes every shard for its current stats.
func (c *Coordinator) ShardStats(w exec.Worker) ([]wire.Stats, error) {
	out := make([]wire.Stats, c.pm.Shards())
	errs := c.fanout(w, allShards(c.pm.Shards()), func(fw exec.Worker, s int) error {
		reply, err := c.client(s).Call(fw, wire.Stats{})
		if err != nil {
			return fmt.Errorf("shard %d: stats: %w", s, err)
		}
		st, ok := reply.(wire.Stats)
		if !ok {
			return fmt.Errorf("shard %d: stats reply type 0x%02x", s, reply.Type())
		}
		out[s] = st
		return nil
	})
	return out, firstError(errs)
}

// RestoreShard swaps in a replacement client for shard s (a restarted or
// re-dialed agent), re-introduces it with Hello, and replays every file the
// shard was originally dealt.  The old client is closed.
func (c *Coordinator) RestoreShard(w exec.Worker, s int, replacement Client) error {
	c.mu.Lock()
	old := c.clients[s]
	c.clients[s] = replacement
	queue := append([]dispatch(nil), c.plans[s]...)
	c.mu.Unlock()
	if old != nil {
		old.Close()
	}
	if err := c.hello(w, s); err != nil {
		return err
	}
	_, _, _, err := c.loadQueue(w, s, queue, c.cfg.Deferred)
	return err
}

// Close closes every client connection.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	var first error
	for _, cl := range c.clients {
		if err := cl.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// fanout runs fn once per target shard, in parallel (exec.Fanout), blocks
// the calling worker until every branch finishes and returns per-target
// errors.
func (c *Coordinator) fanout(w exec.Worker, targets []int, fn func(exec.Worker, int) error) []error {
	errs := make([]error, len(targets))
	names := make([]string, len(targets))
	for i, s := range targets {
		names[i] = c.scatterNames[s]
	}
	exec.Fanout(c.sched, w, names, func(fw exec.Worker, i int) {
		errs[i] = fn(fw, targets[i])
	})
	return errs
}

// Snapshot is the coordinator's metrics snapshot for /metrics exposition.
type Snapshot struct {
	Shards        int
	Queries       int64
	QueryErrors   int64
	FanoutByClass map[string]int64
	ShardRequests []int64
	ShardLoads    []int64
	Gather        metrics.HistogramSummary
	GatherHist    *metrics.Histogram
	BytesSent     int64
	BytesReceived int64
}

// Snapshot captures the coordinator-side metrics.
func (c *Coordinator) Snapshot() Snapshot {
	snap := Snapshot{
		Shards:        c.pm.Shards(),
		Queries:       c.queriesTotal.Load(),
		QueryErrors:   c.queryErrors.Load(),
		FanoutByClass: make(map[string]int64),
		ShardRequests: make([]int64, c.pm.Shards()),
		ShardLoads:    make([]int64, c.pm.Shards()),
	}
	c.fanoutByClass.Range(func(k, v any) bool {
		snap.FanoutByClass[k.(string)] = v.(*atomic.Int64).Load()
		return true
	})
	for s := 0; s < c.pm.Shards(); s++ {
		snap.ShardRequests[s] = c.shardRequests[s].Load()
		snap.ShardLoads[s] = c.shardLoads[s].Load()
	}
	snap.Gather = c.gather.Summary()
	snap.GatherHist = c.gather
	c.mu.Lock()
	for _, cl := range c.clients {
		s, r := cl.Bytes()
		snap.BytesSent += s
		snap.BytesReceived += r
	}
	c.mu.Unlock()
	return snap
}

func (c *Coordinator) classFanout(class string) *atomic.Int64 {
	if v, ok := c.fanoutByClass.Load(class); ok {
		return v.(*atomic.Int64)
	}
	v, _ := c.fanoutByClass.LoadOrStore(class, &atomic.Int64{})
	return v.(*atomic.Int64)
}

func allShards(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
