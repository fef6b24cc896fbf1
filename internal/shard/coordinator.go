package shard

import (
	"errors"
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

// Coordinator fronts a fleet of shard agents: it owns the partition map,
// routes every record of a catalog file to the shard that loads it, and
// serves queries by scattering to the owning shards and merging the sorted
// partial results.  Of a loaded night it keeps the object directory and
// nothing else; it never reads a shard's rows directly — all state flows
// through wire messages.
type Coordinator struct {
	sched exec.Scheduler
	pm    *PartitionMap
	cfg   Config
	// all is every shard index — a broadcast's targets and, sliced, one
	// owner's — and scatterNames[s] names the fan-out worker of shard s.
	all          []int
	scatterNames []string

	mu      sync.Mutex
	clients []Client

	// dir is the published object directory; routeMu orders its writers.
	dir       atomic.Pointer[directory]
	dirMisses atomic.Int64
	routeMu   sync.Mutex

	queryID atomic.Uint64
	taskID  atomic.Uint64

	// metrics
	queriesTotal  atomic.Int64
	queryErrors   atomic.Int64
	fanoutByClass sync.Map // class string -> *atomic.Int64
	shardRequests []atomic.Int64
	shardLoads    []atomic.Int64
	// partialFailures counts, per shard, the query branches that failed there.
	partialFailures []atomic.Int64
	gather          *metrics.Histogram
}

// New creates a coordinator over one client per shard.  len(clients) must
// equal pm.Shards().
func New(sched exec.Scheduler, pm *PartitionMap, clients []Client, cfg Config) (*Coordinator, error) {
	if len(clients) != pm.Shards() {
		return nil, fmt.Errorf("shard: %d clients for %d shards", len(clients), pm.Shards())
	}
	if pm.Shards() >= int(routeAll) {
		return nil, fmt.Errorf("shard: %d shards exceed the %d a record route can name", pm.Shards(), routeAll-1)
	}
	c := &Coordinator{
		all:           make([]int, pm.Shards()),
		scatterNames:  make([]string, pm.Shards()),
		sched:         sched,
		pm:            pm,
		cfg:           cfg,
		clients:       clients,
		shardRequests: make([]atomic.Int64, pm.Shards()),
		shardLoads:    make([]atomic.Int64, pm.Shards()),
		gather:        metrics.NewHistogram(),

		partialFailures: make([]atomic.Int64, pm.Shards()),
	}
	for s := range c.all {
		c.all[s] = s
		c.scatterNames[s] = fmt.Sprintf("scatter-%d", s)
	}
	c.dir.Store(&directory{})
	return c, nil
}

// Scheduler returns the scheduler the coordinator fans out on.
func (c *Coordinator) Scheduler() exec.Scheduler { return c.sched }

// client returns the current client for shard s (swappable by RestoreShard).
func (c *Coordinator) client(s int) Client {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.clients[s]
}

// ShardError is a call to one shard that failed: Shard names the shard, Op
// what it was asked, and Err the cause — the transport's error, or the one the
// agent answered with.  Every error a coordinator call returns for a shard is
// one, so errors.As finds the shard behind a failed fleet query.
type ShardError struct {
	Shard int
	Op    string
	Err   error
}

func (e *ShardError) Error() string { return fmt.Sprintf("shard %d: %s: %v", e.Shard, e.Op, e.Err) }

func (e *ShardError) Unwrap() error { return e.Err }

// call sends req, one frame, to shard s and requires a reply of type T.
func call[T wire.Msg](c *Coordinator, w exec.Worker, s int, what string, req []byte) (T, error) {
	reply, err := c.client(s).Call(w, req)
	if err != nil {
		var none T
		return none, &ShardError{Shard: s, Op: what, Err: err}
	}
	t, ok := reply.(T)
	if !ok {
		return t, &ShardError{Shard: s, Op: what, Err: fmt.Errorf("reply type 0x%02x", reply.Type())}
	}
	return t, nil
}

// Hello introduces the coordinator to every shard, assigning identities and
// trixel ranges.  It must run before LoadFiles or Execute.
func (c *Coordinator) Hello(w exec.Worker) error {
	return c.fanout(w, c.all, func(fw exec.Worker, _, s int) error {
		return c.hello(fw, s)
	})
}

func (c *Coordinator) hello(w exec.Worker, s int) error {
	rng := c.pm.Range(s)
	_, err := call[wire.Ready](c, w, s, "hello", wire.Append(nil, wire.Hello{
		ShardID:  uint32(s),
		Shards:   uint32(c.pm.Shards()),
		RangeLo:  rng.Lo,
		RangeHi:  rng.Hi,
		Deferred: c.cfg.Deferred,
	}))
	return err
}

// LoadReport summarizes a fleet load.
type LoadReport struct {
	Files       int
	Tasks       int
	RowsLoaded  int64
	RowsSkipped int64
	Elapsed     time.Duration
}

// LoadFiles distributes catalog files across the fleet.  One pass routes
// every record (routeFile) and extends the object directory; each shard is
// then sent, file by file, only the text it loads and — under Deferred — a
// final Seal task.  Shards load their queues in parallel, files within one
// shard's queue in order.  Nothing of files is retained once it returns.
func (c *Coordinator) LoadFiles(w exec.Worker, files []*catalog.File) (LoadReport, error) {
	return c.load(w, files, c.all)
}

// load routes files — per file the route of each record, per shard the
// indices of the files it receives — and sends the queues of shards.
func (c *Coordinator) load(w exec.Worker, files []*catalog.File, shards []int) (LoadReport, error) {
	start := w.Now()
	routes := make([][]uint16, len(files))
	queues := make([][]int, c.pm.Shards())
	c.routeMu.Lock()
	dir := c.dir.Load().clone()
	for i, f := range files {
		var targets []int
		routes[i], targets = routeFile(c.pm, dir, f)
		for _, s := range targets {
			queues[s] = append(queues[s], i)
		}
	}
	c.dir.Store(dir)
	c.routeMu.Unlock()

	reps := make([]LoadReport, len(shards))
	err := c.fanout(w, shards, func(fw exec.Worker, i, s int) error {
		return c.loadQueue(fw, s, files, routes, queues[s], &reps[i])
	})
	rep := LoadReport{Files: len(files), Elapsed: w.Now() - start}
	for _, r := range reps {
		rep.Tasks += r.Tasks
		rep.RowsLoaded += r.RowsLoaded
		rep.RowsSkipped += r.RowsSkipped
	}
	return rep, err
}

// loadQueue sends shard s, in order, its share of each queued file (and the
// closing Seal), adding the results to rep.  A share crosses as one block of
// catalog text, written record by record into the task's frame; one buffer,
// grown to each share's size, serves the queue and is garbage after it.
func (c *Coordinator) loadQueue(w exec.Worker, s int, files []*catalog.File, routes [][]uint16, queue []int, rep *LoadReport) error {
	var buf []byte
	for _, i := range queue {
		f, route := files[i], routes[i]
		text := 0
		for j, r := range route {
			if r == uint16(s) || r == routeAll {
				text += f.Records[j].Bytes()
			}
		}
		task := wire.LoadTask{
			TaskID:       c.taskID.Add(1),
			Name:         f.Name,
			RABase:       f.RABase,
			DecBase:      f.DecBase,
			NominalBytes: f.NominalBytes,
		}
		var err error
		buf, err = wire.AppendLoadTask(buf[:0], task, text, func(dst []byte) []byte {
			for j, r := range route {
				if r == uint16(s) || r == routeAll {
					dst = f.Records[j].AppendLine(dst)
				}
			}
			return dst
		})
		if err != nil {
			return &ShardError{Shard: s, Op: "load " + f.Name, Err: err}
		}
		if err := c.loadTask(w, s, "load "+f.Name, buf, rep); err != nil {
			return err
		}
	}
	if c.cfg.Deferred {
		seal := wire.LoadTask{TaskID: c.taskID.Add(1), Seal: true}
		return c.loadTask(w, s, "seal", wire.Append(buf[:0], seal), rep)
	}
	return nil
}

func (c *Coordinator) loadTask(w exec.Worker, s int, what string, task []byte, rep *LoadReport) error {
	res, err := call[wire.LoadResult](c, w, s, what, task)
	if err != nil {
		return err
	}
	if res.Err != "" {
		return &ShardError{Shard: s, Op: what, Err: errors.New(res.Err)}
	}
	c.shardLoads[s].Add(1)
	rep.Tasks++
	rep.RowsLoaded += res.RowsLoaded
	rep.RowsSkipped += res.RowsSkipped
	return nil
}

// Targets returns the scatter set for a query: a cone search goes to the
// shards whose ranges overlap its cover, an object lookup to the one shard
// the directory routed that id to, everything else to all shards — as does a
// lookup the directory cannot place (an id it never routed or routed to two
// shards, a coordinator started over a loaded fleet): a miss must not read
// as "not found".  The slice is shared; callers must not modify it.
func (c *Coordinator) Targets(q queries.Query) ([]int, error) {
	switch t := q.(type) {
	case queries.Cone:
		return c.pm.ConeTargets(t.RA, t.Dec, t.RadiusDeg)
	case queries.ObjectLookup:
		if s, ok := c.dir.Load().owner(t.ObjectID); ok {
			return c.all[s : s+1 : s+1], nil
		}
		c.dirMisses.Add(1)
	}
	return c.all, nil
}

// Execute scatters one query to its owning shards, gathers and merges the
// sorted partial results, and returns an answer byte-identical to the
// single-node oracle.  tr (nil-safe) gets cross-node StageScatter and
// StageGather spans.  A query is answered whole or not at all: when a branch
// fails, Execute returns the first failed target's *ShardError, which names
// that shard and wraps the cause, and counts every failed branch against its
// shard.
func (c *Coordinator) Execute(w exec.Worker, q queries.Query, tr *trace.Req) (queries.Result, error) {
	targets, err := c.Targets(q)
	if err != nil {
		return queries.Result{}, err
	}
	c.queriesTotal.Add(1)
	c.classFanout(q.Class()).Add(int64(len(targets)))

	wq, err := wire.FromQuery(c.queryID.Add(1), q)
	if err != nil {
		return queries.Result{}, err
	}
	req := wire.Append(nil, wq) // read by every branch, written by none

	replies := make([]wire.QueryResult, len(targets))
	scatterStart := w.Now()
	err = c.fanout(w, targets, func(fw exec.Worker, i, s int) error {
		c.shardRequests[s].Add(1)
		res, err := call[wire.QueryResult](c, fw, s, "query", req)
		if err == nil && res.Err != "" {
			err = &ShardError{Shard: s, Op: "query", Err: errors.New(res.Err)}
		}
		if err != nil {
			c.partialFailures[s].Add(1)
			return err
		}
		replies[i] = res
		return nil
	})
	tr.Mark(trace.StageScatter, w.Now())
	if err != nil {
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
	probe := wire.Append(nil, wire.Stats{})
	err := c.fanout(w, c.all, func(fw exec.Worker, _, s int) error {
		st, err := call[wire.Stats](c, fw, s, "stats", probe)
		out[s] = st
		return err
	})
	return out, err
}

// RestoreShard swaps in a replacement client for shard s (a restarted or
// re-dialed agent), re-introduces it with Hello, and loads into it shard s's
// share of files — the night re-read from where nights live; the coordinator
// keeps no copy — through LoadFiles' routing pass.  The old client is closed.
func (c *Coordinator) RestoreShard(w exec.Worker, s int, replacement Client, files []*catalog.File) error {
	c.mu.Lock()
	old := c.clients[s]
	c.clients[s] = replacement
	c.mu.Unlock()
	if old != nil {
		old.Close()
	}
	if err := c.hello(w, s); err != nil {
		return err
	}
	_, err := c.load(w, files, c.all[s:s+1])
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

// fanout runs fn(worker, i, targets[i]) once per target shard, in parallel
// (exec.Fanout), blocks the calling worker until every branch finishes and
// returns the first target's error.  A single target runs on w itself.
func (c *Coordinator) fanout(w exec.Worker, targets []int, fn func(fw exec.Worker, i, s int) error) error {
	if len(targets) == 1 {
		return fn(w, 0, targets[0])
	}
	names := c.scatterNames
	if len(targets) != len(names) {
		names = make([]string, len(targets))
		for i, s := range targets {
			names[i] = c.scatterNames[s]
		}
	}
	errs := make([]error, len(targets))
	exec.Fanout(c.sched, w, names, func(fw exec.Worker, i int) {
		errs[i] = fn(fw, i, targets[i])
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Snapshot is the coordinator's metrics snapshot for /metrics exposition.
type Snapshot struct {
	Shards        int
	Queries       int64
	QueryErrors   int64
	FanoutByClass map[string]int64
	ShardRequests []int64
	ShardLoads    []int64
	// PartialFailures counts, per shard, the query branches that failed there
	// (each failed the whole query).
	PartialFailures []int64
	Gather          metrics.HistogramSummary
	GatherHist      *metrics.Histogram
	BytesSent       int64
	BytesReceived   int64
	// The object directory's size (bytes estimated for ids held outside
	// runs) and the lookups it could not place on one shard, which broadcast.
	DirectoryRuns   int
	DirectoryBytes  int64
	DirectoryMisses int64
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

		PartialFailures: make([]int64, c.pm.Shards()),
	}
	c.fanoutByClass.Range(func(k, v any) bool {
		snap.FanoutByClass[k.(string)] = v.(*atomic.Int64).Load()
		return true
	})
	for s := 0; s < c.pm.Shards(); s++ {
		snap.ShardRequests[s] = c.shardRequests[s].Load()
		snap.ShardLoads[s] = c.shardLoads[s].Load()
		snap.PartialFailures[s] = c.partialFailures[s].Load()
	}
	dir := c.dir.Load()
	snap.DirectoryRuns = len(dir.runs)
	snap.DirectoryBytes = int64(cap(dir.runs)*24 + len(dir.odd)*32) // sizeof(dirRun); a map entry, roughly
	snap.DirectoryMisses = c.dirMisses.Load()
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
