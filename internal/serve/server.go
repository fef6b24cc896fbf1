// Package serve is the query-serving subsystem: it turns the one-shot
// science queries of internal/queries into a concurrent server with admission
// control, per-query deadlines, a sharded epoch-invalidated result cache and
// per-class latency histograms.
//
// The paper's repository is explicitly dual-purpose — a warehouse for
// incrementally loaded data *and* "a query engine to support scientific
// research" (§4.5.1); keeping the htmid index alive during intensive loading
// (the Figure 8 trade-off) only makes sense because queries arrive while
// loading runs.  This package models that serving half, on both execution
// engines:
//
//   - On the DES scheduler, requests are simulation processes: queue waits
//     and service times are charged in virtual time through a calibrated
//     cost model, and a seed fully determines the latency distribution —
//     reproducible capacity planning.
//   - On the realtime scheduler, every request is a goroutine against the
//     concurrent engine and the histograms record real wall-clock latency.
//
// The mixed scenario (RunMixed) co-schedules loader nodes and a query trace
// on one scheduler, which is how the Figure 8 index trade-off becomes
// observable as serving latency rather than only as loading cost.
package serve

import (
	"bytes"
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"skyloader/internal/exec"
	"skyloader/internal/metrics"
	"skyloader/internal/queries"
	"skyloader/internal/relstore"
	"skyloader/internal/trace"
)

// Config controls the serving layer.
type Config struct {
	// Workers is the number of concurrent query executors (the worker-pool
	// size; capacity of the admission resource).
	Workers int
	// QueueDepth bounds the admission queue: a request arriving while
	// QueueDepth requests are already waiting is shed immediately
	// (backpressure instead of unbounded queueing).  Values <= 0 mean
	// 4×Workers.
	QueueDepth int
	// Deadline is the per-query queue-wait budget: a request that waited
	// longer is abandoned without executing (its client has given up).
	// 0 disables deadlines.
	Deadline time.Duration
	// CacheShards and CacheEntriesPerShard size the result cache.
	// CacheShards 0 means 8; CacheEntriesPerShard 0 means 128.
	// CacheShards < 0 disables the cache entirely.
	CacheShards          int
	CacheEntriesPerShard int
	// Cost converts query work reports into DES service time.
	Cost CostModel
}

// DefaultConfig returns a moderate serving configuration.
func DefaultConfig() Config {
	return Config{
		Workers:              4,
		QueueDepth:           16,
		Deadline:             2 * time.Second,
		CacheShards:          8,
		CacheEntriesPerShard: 128,
		Cost:                 DefaultCostModel(),
	}
}

// CostModel converts a query's physical-work report into simulated service
// time, the same way sqlbatch's cost model prices inserts.  It only shapes
// virtual time on the DES engine; on the realtime engine Sleep is a no-op and
// measured latency is real execution time.
type CostModel struct {
	// PerQuery is the fixed per-request overhead (parse, plan, round trip).
	PerQuery time.Duration
	// PerRowExamined prices inspecting one candidate row.
	PerRowExamined time.Duration
	// PerTrixelProbe prices one B-tree range probe of the htmid index.
	PerTrixelProbe time.Duration
	// PerRowReturned prices materializing one result row.
	PerRowReturned time.Duration
	// FullScanPerRow prices one row of an unindexed full scan (cheaper per
	// row than an index probe's random access, but over every row).
	FullScanPerRow time.Duration
	// CacheHit is the cost of serving a result from the cache.
	CacheHit time.Duration
}

// DefaultCostModel prices query work in the same order of magnitude as the
// loading cost model: microseconds per row touched, a fixed half-millisecond
// floor per query.
func DefaultCostModel() CostModel {
	return CostModel{
		PerQuery:       500 * time.Microsecond,
		PerRowExamined: 12 * time.Microsecond,
		PerTrixelProbe: 80 * time.Microsecond,
		PerRowReturned: 4 * time.Microsecond,
		FullScanPerRow: 2 * time.Microsecond,
		CacheHit:       60 * time.Microsecond,
	}
}

// QueryCost prices an executed query.
func (m CostModel) QueryCost(st queries.Stats) time.Duration {
	d := m.PerQuery + time.Duration(st.RowsReturned)*m.PerRowReturned
	if st.UsedIndex {
		d += time.Duration(st.RowsExamined)*m.PerRowExamined +
			time.Duration(st.TrixelsScanned)*m.PerTrixelProbe
	} else {
		d += time.Duration(st.RowsExamined) * m.FullScanPerRow
	}
	return d
}

// classState is the per-query-class accounting.
type classState struct {
	requests atomic.Int64
	served   atomic.Int64
	hits     atomic.Int64
	latency  *metrics.Histogram
}

// Engine is what a Server executes against once a request is admitted and
// has missed the cache.  Read runs q and reports the commit epoch of q's table
// the answer was computed at, and whether the answer may be memoized under
// that epoch; TableEpoch is the table's current epoch, which the result cache
// re-validates every hit against.  A single database (NewServer) and a
// shard.Coordinator (NewEngineServer) are the two implementations.
type Engine interface {
	Epochs
	Read(w exec.Worker, q queries.Query, tr *trace.Req) (res queries.Result, epoch int64, cacheable bool, err error)
}

// dbEngine is the single-node Engine: q.Run inside DB.SnapshotRead, cacheable
// exactly when the read saw a stable committed snapshot.
type dbEngine struct{ *relstore.DB }

func (e dbEngine) Read(_ exec.Worker, q queries.Query, _ *trace.Req) (res queries.Result, epoch int64, cacheable bool, err error) {
	epoch, cacheable, err = e.SnapshotRead(q.Table(), func() error {
		r, err := q.Run(e.DB)
		res = r
		return err
	})
	return res, epoch, cacheable, err
}

// Server is the query-serving layer on one execution scheduler.
type Server struct {
	sched  exec.Scheduler
	engine Engine
	db     *relstore.DB // nil unless built by NewServer
	cfg    Config
	cache  *Cache

	workers exec.Resource

	classes map[string]*classState
	wait    *metrics.Histogram

	// ingestProbe, when installed via ObserveIngest, classifies each served
	// request by load phase: latencies observed while the probe reports
	// ingest active are additionally recorded in the during-ingest histogram
	// — the mixed report's headline ("read p99 DURING ingest", not diluted by
	// the quiet tail after loaders finish).
	ingestProbe  func() bool
	ingest       *metrics.Histogram
	ingestServed atomic.Int64
	// ingestShed/ingestExpired classify the non-served outcomes by load
	// phase the same way ingestServed classifies latencies, so the
	// during-ingest window reports sheds and deadline expiries alongside its
	// p99 instead of only the overall window doing so.
	ingestShed    atomic.Int64
	ingestExpired atomic.Int64

	requests atomic.Int64
	served   atomic.Int64
	shed     atomic.Int64
	expired  atomic.Int64
	errors   atomic.Int64
	unstable atomic.Int64
}

// NewServer creates a serving layer for db on sched.  The scheduler must be
// the one every co-scheduled workload (e.g. a concurrent bulk load) uses.
func NewServer(sched exec.Scheduler, db *relstore.DB, cfg Config) *Server {
	s := NewEngineServer(sched, dbEngine{db}, cfg)
	s.db = db
	return s
}

// NewEngineServer creates a serving layer over any Engine: the same
// admission, deadline, cache and accounting path as NewServer, executing
// against engine instead of a local database.
func NewEngineServer(sched exec.Scheduler, engine Engine, cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = DefaultConfig().Workers
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 4 * cfg.Workers
	}
	if cfg.CacheShards == 0 {
		cfg.CacheShards = DefaultConfig().CacheShards
	}
	if cfg.CacheEntriesPerShard <= 0 {
		cfg.CacheEntriesPerShard = DefaultConfig().CacheEntriesPerShard
	}
	if cfg.Cost == (CostModel{}) {
		cfg.Cost = DefaultCostModel()
	}
	s := &Server{
		sched:   sched,
		engine:  engine,
		cfg:     cfg,
		workers: sched.NewResource("query-workers", cfg.Workers),
		classes: make(map[string]*classState, 4),
		wait:    metrics.NewHistogram(),
		ingest:  metrics.NewHistogram(),
	}
	if cfg.CacheShards > 0 {
		s.cache = NewCache(cfg.CacheShards, cfg.CacheEntriesPerShard)
	}
	for _, cls := range []string{queries.ClassCone, queries.ClassLookup, queries.ClassFrame, queries.ClassHistogram} {
		s.classes[cls] = &classState{latency: metrics.NewHistogram()}
	}
	return s
}

// DB returns the served database (nil when the engine is not a local
// database).
func (s *Server) DB() *relstore.DB { return s.db }

// Cache returns the result cache (nil when disabled).
func (s *Server) Cache() *Cache { return s.cache }

// ObserveIngest installs the ingest-phase probe: while probe() reports true,
// every served request's latency is additionally recorded in the
// during-ingest histogram (Report.DuringIngest).  RunMixed installs the load
// cluster's Busy gauge here; install before the trace runs.
func (s *Server) ObserveIngest(probe func() bool) { s.ingestProbe = probe }

// observeLatency records one served request's latency, classifying it into
// the during-ingest histogram when the ingest probe reports loaders active.
func (s *Server) observeLatency(cls *classState, d time.Duration) {
	cls.latency.Observe(d)
	if s.ingestProbe != nil && s.ingestProbe() {
		s.ingest.Observe(d)
		s.ingestServed.Add(1)
	}
}

// SpawnTrace registers one worker per request on the scheduler, starting at
// each request's arrival offset from this call: in virtual time under DES,
// on the wall clock under realtime.  The workers do not run until the
// scheduler is driven; co-schedule other workloads first, then call the
// scheduler's Run (or use Serve for a serve-only run).
func (s *Server) SpawnTrace(reqs []Request) {
	for i, r := range reqs {
		s.sched.SpawnAt(r.Arrival, fmt.Sprintf("query-%05d", i+1), func(w exec.Worker) {
			s.handle(w, r.Query)
		})
	}
}

// Serve runs a serve-only workload to completion and returns the report.
func (s *Server) Serve(reqs []Request) Report {
	s.SpawnTrace(reqs)
	elapsed := s.sched.Run()
	return s.Report(elapsed)
}

// Outcome is the terminal disposition of one request through the serving
// path.
type Outcome int

const (
	// OutcomeServed: executed against the engine and answered.
	OutcomeServed Outcome = iota
	// OutcomeCacheHit: answered from the result cache.
	OutcomeCacheHit
	// OutcomeShed: rejected at admission, queue full.
	OutcomeShed
	// OutcomeExpired: abandoned after overrunning the queue-wait deadline.
	OutcomeExpired
	// OutcomeError: the query failed (unknown class or execution error).
	OutcomeError
)

// String labels the outcome for traces and HTTP error bodies.
func (o Outcome) String() string {
	switch o {
	case OutcomeServed:
		return "served"
	case OutcomeCacheHit:
		return "cache_hit"
	case OutcomeShed:
		return "shed"
	case OutcomeExpired:
		return "expired"
	}
	return "error"
}

// handle is the per-request worker body for trace replay; it discards the
// result.
func (s *Server) handle(w exec.Worker, q queries.Query) {
	s.Execute(w, q, nil)
}

// AppendBody appends the response body of an answer to dst, the way a
// transport sends it.  An error means the answer has no such body; the
// request then fails with that error.
type AppendBody func(dst []byte, res queries.Result) ([]byte, error)

// Execute runs one query through the full serving path — admission control,
// queue-wait deadline, result cache, engine execution, accounting — and
// returns the result and outcome.  It is ExecuteBody for a caller that wants
// no body: trace replay (handle, which discards the result) and in-process
// callers.  w must be a worker of the server's scheduler; transports on the
// realtime engine obtain one per request via exec.InlineRunner.
//
// tr, when non-nil, receives stage boundary marks (admission, cache probe,
// execute); the caller owns Begin/Finish/Publish, so the transport can add
// its own encode span after Execute returns.  A nil tr costs one pointer
// test per boundary — the in-process replay path stays allocation- and
// clock-call-free.
func (s *Server) Execute(w exec.Worker, q queries.Query, tr *trace.Req) (queries.Result, Outcome, error) {
	res, _, outcome, err := s.ExecuteBody(w, q, tr, nil, nil)
	return res, outcome, err
}

// ExecuteBody is the one serving path.  With enc nil it is Execute and dst
// comes back as it went in.  With enc non-nil, an answered request (served or
// cache hit) also appends its answer's body to dst and returns the extended
// buffer, so each answer is encoded once however often it is served:
//
//   - a miss appends enc's encoding of the result, and a result that goes into
//     the cache takes a copy of those bytes with it (Cache.Put);
//   - a hit appends the bytes stored with its result, or — for an entry a
//     caller without enc stored — encodes them for this request only.
//
// An answer enc cannot encode is an error outcome (counted as one), is not
// cached, and dst comes back as it went in.
func (s *Server) ExecuteBody(w exec.Worker, q queries.Query, tr *trace.Req, dst []byte, enc AppendBody) (queries.Result, []byte, Outcome, error) {
	cls := s.classes[q.Class()]
	if cls == nil {
		// Unknown class: accounting it under a lazily shared bucket is not
		// worth a lock; treat as an error.
		s.errors.Add(1)
		return queries.Result{}, dst, OutcomeError, fmt.Errorf("serve: unknown query class %q", q.Class())
	}
	s.requests.Add(1)
	cls.requests.Add(1)

	// Admission control: shed immediately when the queue is full.  QueueLen
	// is exact on the DES engine (single runner) and a good-faith estimate
	// under real concurrency — the paper's production system sheds on a
	// listener backlog the same way.
	if s.workers.QueueLen() >= s.cfg.QueueDepth {
		s.shed.Add(1)
		if s.ingestProbe != nil && s.ingestProbe() {
			s.ingestShed.Add(1)
		}
		return queries.Result{}, dst, OutcomeShed, nil
	}
	arrived := w.Now()
	s.workers.Acquire(w, 1)
	defer s.workers.Release(w, 1)
	waited := w.Now() - arrived
	s.wait.Observe(waited)
	if tr != nil {
		tr.Mark(trace.StageAdmission, w.Now())
	}
	if s.cfg.Deadline > 0 && waited > s.cfg.Deadline {
		// The client gave up while we queued; executing now would be wasted
		// work (and on the DES engine would distort the latency histogram
		// with answers nobody received).
		s.expired.Add(1)
		if s.ingestProbe != nil && s.ingestProbe() {
			s.ingestExpired.Add(1)
		}
		return queries.Result{}, dst, OutcomeExpired, nil
	}

	var sig string
	if s.cache != nil {
		sig = q.Signature()
		if res, body, ok := s.cache.Get(s.engine, sig); ok {
			if enc != nil {
				start := len(dst)
				var err error
				if body != nil {
					dst = append(dst, body...)
				} else if dst, err = enc(dst, res); err != nil {
					return s.failed(w, tr, dst[:start], err)
				}
			}
			w.Sleep(s.cfg.Cost.CacheHit)
			cls.hits.Add(1)
			cls.served.Add(1)
			s.served.Add(1)
			s.observeLatency(cls, w.Now()-arrived)
			if tr != nil {
				tr.Mark(trace.StageCache, w.Now())
			}
			return res, dst, OutcomeCacheHit, nil
		}
	}
	if tr != nil {
		tr.Mark(trace.StageCache, w.Now())
	}

	res, epoch, stable, err := s.engine.Read(w, q, tr)
	start := len(dst)
	if err == nil && enc != nil {
		dst, err = enc(dst, res)
	}
	if err != nil {
		return s.failed(w, tr, dst[:start], err)
	}
	w.Sleep(s.cfg.Cost.QueryCost(res.Stats))
	if s.cache != nil {
		if stable {
			var body []byte
			if enc != nil {
				body = bytes.Clone(dst[start:]) // dst is the caller's to reuse
			}
			s.cache.Put(s.engine, sig, q.Table(), epoch, res, body)
		} else {
			// The read overlapped in-flight loader transactions: the answer
			// is returned to this client but never memoized.
			s.unstable.Add(1)
		}
	}
	cls.served.Add(1)
	s.served.Add(1)
	s.observeLatency(cls, w.Now()-arrived)
	if tr != nil {
		tr.Mark(trace.StageExecute, w.Now())
	}
	return res, dst, OutcomeServed, nil
}

// failed accounts a request whose answer could not be computed or encoded.
func (s *Server) failed(w exec.Worker, tr *trace.Req, dst []byte, err error) (queries.Result, []byte, Outcome, error) {
	s.errors.Add(1)
	if tr != nil {
		tr.Mark(trace.StageExecute, w.Now())
	}
	return queries.Result{}, dst, OutcomeError, err
}

// ClassReport is the per-query-class slice of a Report.
type ClassReport struct {
	Class     string
	Requests  int64
	Served    int64
	CacheHits int64
	Latency   metrics.HistogramSummary
}

// Report is the outcome of a serving run.
type Report struct {
	// Engine names the execution engine ("des" or "realtime").
	Engine string
	// Elapsed is the makespan of the scheduler run that served the trace.
	Elapsed time.Duration
	// Workers and QueueDepth echo the configuration.
	Workers, QueueDepth int

	Requests int64
	Served   int64
	Shed     int64
	Expired  int64
	Errors   int64
	// Unstable counts answers computed over in-flight loader writes: served
	// to their client, never cached.
	Unstable int64

	Cache     CacheStats
	QueueWait metrics.HistogramSummary
	Classes   []ClassReport

	// DuringIngest summarizes the latency of requests served while the ingest
	// probe reported loaders active (see ObserveIngest), all classes pooled;
	// DuringIngestServed counts them.  DuringIngestShed and
	// DuringIngestExpired carry the non-served outcomes of the same window —
	// a flat during-ingest p99 achieved by shedding every read is not flat,
	// and reporting the counts next to the quantiles keeps the headline
	// honest (the overall window has always reported all three; the ingest
	// window now matches).  All are zero when no probe was installed or no
	// request overlapped the load window.
	DuringIngest        metrics.HistogramSummary
	DuringIngestServed  int64
	DuringIngestShed    int64
	DuringIngestExpired int64
}

// Report snapshots the serving counters after a run of the scheduler.
func (s *Server) Report(elapsed time.Duration) Report {
	engine := "realtime"
	if s.sched.Deterministic() {
		engine = "des"
	}
	rep := Report{
		Engine:     engine,
		Elapsed:    elapsed,
		Workers:    s.cfg.Workers,
		QueueDepth: s.cfg.QueueDepth,
		Requests:   s.requests.Load(),
		Served:     s.served.Load(),
		Shed:       s.shed.Load(),
		Expired:    s.expired.Load(),
		Errors:     s.errors.Load(),
		Unstable:   s.unstable.Load(),
		QueueWait:  s.wait.Summary(),
	}
	rep.DuringIngestShed = s.ingestShed.Load()
	rep.DuringIngestExpired = s.ingestExpired.Load()
	if n := s.ingestServed.Load(); n > 0 {
		rep.DuringIngestServed = n
		rep.DuringIngest = s.ingest.Summary()
	}
	if s.cache != nil {
		rep.Cache = s.cache.Stats()
	}
	for _, cls := range []string{queries.ClassCone, queries.ClassLookup, queries.ClassFrame, queries.ClassHistogram} {
		st := s.classes[cls]
		if st.requests.Load() == 0 {
			continue
		}
		rep.Classes = append(rep.Classes, ClassReport{
			Class:     cls,
			Requests:  st.requests.Load(),
			Served:    st.served.Load(),
			CacheHits: st.hits.Load(),
			Latency:   st.latency.Summary(),
		})
	}
	return rep
}

// Counters is the exporter-facing snapshot of the admission counters; unlike
// Report it carries no histograms (the exporter reads those live, bucket by
// bucket, via the accessors below).
type Counters struct {
	Requests, Served, Shed, Expired, Errors, Unstable         int64
	DuringIngestServed, DuringIngestShed, DuringIngestExpired int64
}

// Counters snapshots the admission counters.
func (s *Server) Counters() Counters {
	return Counters{
		Requests:            s.requests.Load(),
		Served:              s.served.Load(),
		Shed:                s.shed.Load(),
		Expired:             s.expired.Load(),
		Errors:              s.errors.Load(),
		Unstable:            s.unstable.Load(),
		DuringIngestServed:  s.ingestServed.Load(),
		DuringIngestShed:    s.ingestShed.Load(),
		DuringIngestExpired: s.ingestExpired.Load(),
	}
}

// ClassSnapshot is one query class's exporter view: counters by value, the
// latency histogram by reference (live; reads are atomic bucket loads).
type ClassSnapshot struct {
	Class                       string
	Requests, Served, CacheHits int64
	Latency                     *metrics.Histogram
}

// Classes lists the per-class accounting in stable class order, including
// classes with no traffic yet (the exporter must expose every series from
// the first scrape so rate() never sees a counter appear mid-flight).
func (s *Server) Classes() []ClassSnapshot {
	out := make([]ClassSnapshot, 0, len(s.classes))
	for _, cls := range []string{queries.ClassCone, queries.ClassLookup, queries.ClassFrame, queries.ClassHistogram} {
		st := s.classes[cls]
		out = append(out, ClassSnapshot{
			Class:     cls,
			Requests:  st.requests.Load(),
			Served:    st.served.Load(),
			CacheHits: st.hits.Load(),
			Latency:   st.latency,
		})
	}
	return out
}

// ServeConfig returns the resolved serving configuration.
func (s *Server) ServeConfig() Config { return s.cfg }

// QueueWait returns the live queue-wait histogram.
func (s *Server) QueueWait() *metrics.Histogram { return s.wait }

// DuringIngestLatency returns the live during-ingest latency histogram.
func (s *Server) DuringIngestLatency() *metrics.Histogram { return s.ingest }

// Workers returns the worker-pool resource (capacity, in-use, queue depth —
// the exporter's saturation gauges).
func (s *Server) Workers() exec.Resource { return s.workers }

// Scheduler returns the execution scheduler the server runs on.
func (s *Server) Scheduler() exec.Scheduler { return s.sched }

// QPS returns served queries per second of elapsed time.
func (r Report) QPS() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Served) / r.Elapsed.Seconds()
}

// Render writes the report as text tables.
func (r Report) Render(w io.Writer) error {
	fmt.Fprintf(w, "engine: %s  workers: %d  queue: %d  elapsed: %s\n",
		r.Engine, r.Workers, r.QueueDepth, r.Elapsed.Round(time.Microsecond))
	fmt.Fprintf(w, "requests: %d  served: %d (%.0f qps)  shed: %d  expired: %d  errors: %d  uncacheable: %d\n",
		r.Requests, r.Served, r.QPS(), r.Shed, r.Expired, r.Errors, r.Unstable)
	fmt.Fprintf(w, "cache: %.1f%% hit rate (%d hits, %d misses, %d stale, %d entries)\n",
		r.Cache.HitRate()*100, r.Cache.Hits, r.Cache.Misses, r.Cache.StaleHits, r.Cache.Entries)
	fmt.Fprintf(w, "queue wait: %s\n", r.QueueWait)
	if r.DuringIngestServed > 0 {
		fmt.Fprintf(w, "read p99 during ingest: %.3f ms (p50 %.3f ms, %d reads served while loaders active)\n",
			float64(r.DuringIngest.P99)/1e6, float64(r.DuringIngest.P50)/1e6, r.DuringIngestServed)
		if r.DuringIngestShed > 0 || r.DuringIngestExpired > 0 {
			fmt.Fprintf(w, "during ingest: shed %d, expired %d\n", r.DuringIngestShed, r.DuringIngestExpired)
		}
	}

	t := &metrics.Table{
		Title:   "per-class latency",
		Columns: []string{"class", "requests", "served", "cache_hits", "p50_ms", "p95_ms", "p99_ms", "max_ms"},
	}
	for _, c := range r.Classes {
		t.AddRow(c.Class, c.Requests, c.Served, c.CacheHits,
			float64(c.Latency.P50)/1e6, float64(c.Latency.P95)/1e6,
			float64(c.Latency.P99)/1e6, float64(c.Latency.Max)/1e6)
	}
	return t.Render(w)
}
