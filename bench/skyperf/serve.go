package main

import (
	"fmt"
	"math"
	"time"

	"skyloader/bench/gen"
	"skyloader/internal/exec"
	"skyloader/internal/httpserve"
	"skyloader/internal/parallel"
	"skyloader/internal/queries"
	"skyloader/internal/relstore"
	"skyloader/internal/serve"
)

// Every workload splits its measuring time the same way: half loading
// repetitions on fresh state, half serving an open loop.  (serve-mixed does
// both at once.)  The host this was sized on changes speed by tens of per
// cent for seconds at a time, so a metric needs seconds of its own to come
// out steady, and an equal split leaves the less-measured side the most.
const (
	ingestShare = 0.5
	openShare   = 0.5
)

// Offered rates of the open loops, fixed so that latencies compare across
// commits.  Each is between a tenth and a fifth of what the same trace
// sustains closed-loop (two clients) on the 2-vCPU host the benchmark was
// sized on.
const (
	hotQPS       = 2000 // serve-hot: cached answers
	afterLoadQPS = 400  // the ingest workloads' cold trace on a quiet database
	mixedQPS     = 250  // serve-mixed: cold trace beside two loaders
	shardQPS     = 200  // shard-scatter: cold trace, every lookup and scan on three agents
)

// openConnsPerClient is how many connections the open loop may use per
// closed-loop client: independent users do not queue behind each other's
// connections, so the open loop gets enough that it never waits for one.
const openConnsPerClient = 8

// latencyWindow is the width of the windows an open loop's median latency is
// taken over.
const latencyWindow = 500 * time.Millisecond

// front is an HTTP front door on loopback over one database.
type front struct {
	sched *exec.Realtime
	qs    *serve.Server
	http  *httpserve.Server
	base  string
}

// startFront serves db with the default serving configuration and the
// shipped trace sampling.
func startFront(db *relstore.DB, seed int64) (*front, error) {
	f := &front{sched: newScheduler(seed)}
	f.qs = serve.NewServer(f.sched, db, serve.DefaultConfig())
	var err error
	if f.http, err = httpserve.New(f.qs, httpserve.Config{}); err != nil {
		return nil, err
	}
	addr, err := f.http.Start("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f.base = "http://" + addr.String()
	return f, nil
}

func (f *front) close() {
	if f != nil && f.http != nil {
		_ = f.http.Close()
	}
}

// querySamples pools what the open loops of a run measured.
type querySamples struct {
	open   []*loopResult
	checks checkSet
}

// add accounts one loop in the result and verifies its kept responses
// against oracle.
func (s *querySamples) add(r *run, l *loopResult, oracle *relstore.DB, skip map[string]bool) {
	s.checks.note("every 64th response equals Query.Run on the oracle, byte for byte", l.verify(oracle, skip))
	var failed error
	if l.Failed > 0 {
		failed = fmt.Errorf("%d of %d requests failed (transport error, non-200 or shed)", l.Failed, l.Sent)
	}
	s.checks.note("no request failed or was shed", failed)
	r.res.Attempted += int64(l.Sent)
	r.res.Failed += int64(l.Failed + l.Mismatch)
	r.res.Loops = append(r.res.Loops, l)
	s.open = append(s.open, l)
}

// report emits the query side of the end-to-end metrics.
//
// query_p50_ms is the open loops' median client latency.  The median is taken
// in every half-second window, and the value reported is the lower quartile
// of those medians (see quietTime); the pooled median, p90 and p99 of all
// samples and the completions per second are reported beside it with the
// sample count, but carry no bound: see README.md.
func (s *querySamples) report(r *run) {
	var pooled []int64
	var windowP50 []float64
	var seconds float64
	for _, l := range s.open {
		pooled = append(pooled, l.latNs...)
		seconds += l.Seconds
		for _, w := range l.windows(latencyWindow) {
			if len(w) > 0 {
				windowP50 = append(windowP50, latencyDist(w, 0.5).Value)
			}
		}
	}
	if len(windowP50) == 0 { // a loop shorter than one window (quick runs)
		windowP50 = []float64{latencyDist(pooled, 0.5).Value}
	}
	r.res.e2e("query_p50_ms", "ms", quietTime(windowP50))
	r.res.sample("query_p50_ms.windows", windowP50)
	r.res.extra("query_p50_pooled_ms", "ms", latencyDist(pooled, 0.50))
	r.res.extra("query_p90_ms", "ms", latencyDist(pooled, 0.90))
	r.res.extra("query_p99_ms", "ms", latencyDist(pooled, 0.99))
	achieved := float64(len(pooled)) / seconds
	r.res.extra("query_qps", "1/s", Dist{Value: achieved, Q1: achieved, Q3: achieved, N: len(pooled)})
	s.checks.flush(r.res)
}

// queryPhase runs the open loop of trace against the front door at base.
func queryPhase(r *run, base string, trace []queries.Query, qps float64, oracle *relstore.DB) {
	var s querySamples
	liveHeap()
	c := newClient(base, r.par*openConnsPerClient)
	s.add(r, c.openLoop(trace, qps, r.budget(openShare), r.seed+2, nil), oracle, nil)
	c.close()
	s.report(r)
}

// serveDB runs the query phases against db behind a fresh front door.
func serveDB(r *run, db *relstore.DB, trace []queries.Query, qps float64) error {
	f, err := startFront(db, r.seed)
	if err != nil {
		return err
	}
	defer f.close()
	queryPhase(r, f.base, trace, qps, db)
	return nil
}

// loadReps collects what a workload's load repetitions measured.
type loadReps struct {
	rate, queryable, mem []float64
	counts               string
	checks               checkSet
}

// note records one repetition: its load, the database it left and the heap
// it grew by.
func (s *loadReps) note(r *run, rep int, out loadOutcome, queryableS float64, db *relstore.DB, heapBefore uint64, userBytes int64) {
	r.probe() // the host's speed just after the load; the caller probed before it
	s.rate = append(s.rate, float64(out.stats.RowsLoaded)/out.seconds())
	s.queryable = append(s.queryable, queryableS)
	s.mem = append(s.mem, float64(liveHeap()-heapBefore)/float64(userBytes))
	r.res.Attempted += int64(out.stats.RowsRead)
	err := conserved(out)
	if err != nil {
		r.res.Failed += int64(math.Abs(float64(out.stats.RowsRead - out.stats.RowsLoaded - out.stats.RowsSkipped - out.stats.ParseErrors)))
	}
	s.checks.note("row conservation: read = loaded + skipped + rejected", inRep(rep, err))
	err = nil
	if !db.Ready() {
		err = fmt.Errorf("DB.Ready() is false after the load")
	}
	s.checks.note("every index ready when the load returns", inRep(rep, err))
	s.checks.note("VerifyIntegrity finds no orphans and VerifyPrimaryKeys passes", inRep(rep, verifyDB(db)))
	counts := tableCounts(db)
	err = nil
	if s.counts != "" && counts != s.counts {
		err = fmt.Errorf("got %s, first repetition had %s", counts, s.counts)
	}
	s.checks.note("per-table row counts equal across repetitions", inRep(rep, err))
	s.counts = counts
}

// inRep prefixes an error with the repetition it happened in.
func inRep(rep int, err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("repetition %d: %w", rep, err)
}

// report emits the ingest side of the end-to-end metrics from the
// repetitions: the quiet quartile of rates and times, corrected for the
// host's memory speed during the run (see hostprobe.go), and the median of
// memory.  The uncorrected values and the correction are reported beside.
func (s *loadReps) report(r *run) {
	reportIngest(r, s.rate, s.queryable, s.mem)
	r.res.TableCounts = s.counts
	s.checks.flush(r.res)
}

// reportIngest is loadReps.report for callers that keep their own samples.
func reportIngest(r *run, rate, queryable, mem []float64) {
	k := r.loadCorrection()
	r.res.e2e("ingest_rows_per_s", "1/s", quietRate(rate).scaled(k))
	r.res.e2e("queryable_s", "s", quietTime(queryable).scaled(1/k))
	r.res.e2e("mem_bytes_per_user_byte", "ratio", summarize(mem))
	r.res.extra("ingest_rows_per_s_raw", "1/s", quietRate(rate))
	r.res.extra("queryable_raw_s", "s", quietTime(queryable))
	r.res.extra("host_memory_slowdown", "ratio", summarize(r.probes).scaled(1/referenceProbeMs))
	r.res.sample("ingest_rows_per_s.reps", rate)
	r.res.sample("queryable_s.reps", queryable)
	r.res.sample("host_probe_ms", r.probes)
}

// bulkReps loads night into fresh databases (immediate indexes, no WAL
// directory) until the run's ingest share is spent, and returns the last.
func bulkReps(r *run, night *gen.Night) (*relstore.DB, error) {
	var reps loadReps
	var db *relstore.DB
	deadline := time.Now().Add(r.budget(ingestShare))
	for rep := 0; rep < r.minReps() || time.Now().Before(deadline); rep++ {
		db = nil // fresh state: the previous repetition's database is garbage
		before := liveHeap()
		r.probe()
		var err error
		if db, err = openDB(relstore.IndexImmediate); err != nil {
			return nil, err
		}
		out, err := parseAndLoad(db, night.Files, loadConfig(r.par, 0), r.seed)
		if err != nil {
			return nil, err
		}
		reps.note(r, rep, out, out.seconds(), db, before, night.Bytes)
	}
	reps.report(r)
	return db, nil
}

// minReps is the least number of load repetitions: three, so that their
// median is not the first, cold one; one on a quick run.
func (r *run) minReps() int {
	if r.quick {
		return 1
	}
	return 3
}

// setUpCatalog generates and serialises a night into its own directory, and
// runs the untimed 1/10-size warm-up load.
func setUpCatalog(r *run, name string, files, rows int, rate float64) (*gen.Night, error) {
	dir, err := r.dir(name)
	if err != nil {
		return nil, err
	}
	night, err := gen.WriteNight(gen.Spec{Dir: dir, Prefix: name, Files: files, Rows: r.rows(rows), Seed: r.seed, ErrorRate: rate})
	if err != nil {
		return nil, err
	}
	db, err := openDB(relstore.IndexImmediate)
	if err != nil {
		return nil, err
	}
	_, err = parseAndLoad(db, night.Files[:(files+9)/10], loadConfig(r.par, 0), r.seed)
	return night, err
}

// coldTraceLen sizes a cold trace so that no class runs out of distinct
// targets: frame queries are 8 % of it and there is one frame per ~90 rows.
func coldTraceLen(n *gen.Night) int {
	frames := 0
	for _, f := range n.Files {
		frames += len(f.Frames)
	}
	return frames * 10
}

// serveHot: load repetitions of the served catalog, then the hot trace over
// HTTP against the last one, in an open loop.
func serveHot(r *run) error {
	var night *gen.Night
	var hot, distinct []queries.Query
	err := r.setUp(func() (err error) {
		if night, err = setUpCatalog(r, "served", serveFiles, serveRows, errorRate); err != nil {
			return err
		}
		hot, distinct = gen.HotTrace(night, r.seed+1, 400_000)
		return nil
	})
	if err != nil {
		return err
	}
	db, err := bulkReps(r, night)
	if err != nil {
		return err
	}
	f, err := startFront(db, r.seed)
	if err != nil {
		return err
	}
	defer f.close()
	// Warm-up, untimed: one pass over the distinct queries fills the cache.
	c := newClient(f.base, r.par)
	warm := c.onePass(distinct)
	c.close()
	if warm.Failed > 0 {
		return fmt.Errorf("warm-up: %d of %d requests failed", warm.Failed, warm.Sent)
	}
	queryPhase(r, f.base, hot, hotQPS, db)
	return nil
}

// disjointNight generates the night serve-mixed loads while it serves.  Its
// files must not overlap the served catalog's sky, or cone answers would
// change under the oracle's feet; file positions follow from the seed alone,
// so the seed is stepped until the footprints are disjoint.
func disjointNight(r *run, served *gen.Night) (*gen.Night, error) {
	dir, err := r.dir("second")
	if err != nil {
		return nil, err
	}
	spec := gen.Spec{Dir: dir, Prefix: "second", Files: serveFiles, Rows: r.rows(serveRows), ErrorRate: errorRate, FirstFile: serveFiles}
	for attempt := int64(1); attempt <= 64; attempt++ {
		spec.Seed = r.seed + 7919*attempt
		if ra, dec := gen.Footprints(spec); !overlaps(served, ra, dec) {
			return gen.WriteNight(spec)
		}
	}
	return nil, fmt.Errorf("no second night disjoint from the served catalog in 64 seeds")
}

// overlaps reports whether any served file comes within 3 degrees in RA and
// 2 in Dec of a base point: a file spans 2.5 x 1.1 and the widest cone adds
// well under half a degree.
func overlaps(served *gen.Night, ra, dec []float64) bool {
	for _, f := range served.Files {
		for i := range ra {
			dra := math.Abs(f.RABase - ra[i])
			if dra > 180 {
				dra = 360 - dra
			}
			if dra < 3 && math.Abs(f.DecBase-dec[i]) < 2 {
				return true
			}
		}
	}
	return false
}

// serveMixed: the cold trace in an open loop over HTTP while parallel.Spawn
// bulk-loads a second night into the same database.  Every repetition starts
// from a freshly loaded first night and lasts as long as its load; the
// latencies of all repetitions are pooled.
func serveMixed(r *run) error {
	var night, second *gen.Night
	var cold []queries.Query
	err := r.setUp(func() (err error) {
		if night, err = setUpCatalog(r, "served", serveFiles, serveRows, errorRate); err != nil {
			return err
		}
		if second, err = disjointNight(r, night); err != nil {
			return err
		}
		cold = gen.ColdTrace(night, r.seed+1, coldTraceLen(night))
		return nil
	})
	if err != nil {
		return err
	}
	var (
		s    querySamples
		reps loadReps
		used int
	)
	skip := map[string]bool{queries.ClassHistogram: true} // whole-table answers change while the load runs
	deadline := time.Now().Add(r.budget(1))
	for rep := 0; rep < r.minReps() || time.Now().Before(deadline); rep++ {
		before := liveHeap()
		db, err := openDB(relstore.IndexImmediate)
		if err != nil {
			return err
		}
		if _, err := parseAndLoad(db, night.Files, loadConfig(r.par, 0), r.seed); err != nil {
			return err
		}
		f, err := startFront(db, r.seed)
		if err != nil {
			return err
		}
		c := newClient(f.base, r.par*openConnsPerClient)
		liveHeap()
		r.probe()

		// The timed region: parse the second night, then load it on the
		// front door's scheduler while the trace is served.
		t0 := time.Now()
		p, err := parseFiles(second.Files)
		if err != nil {
			return err
		}
		out := loadOutcome{parseS: time.Since(t0).Seconds(), lines: p.lines}
		cluster, err := parallel.Spawn(loadServer(f.sched, db), p.files, loadConfig(r.par, 0))
		if err != nil {
			return err
		}
		loaded := make(chan struct{})
		go func() {
			t1 := time.Now()
			f.sched.Run()
			out.loadS = time.Since(t1).Seconds()
			close(loaded)
		}()
		l := c.openLoop(cold[used%len(cold):], mixedQPS, time.Minute, r.seed+int64(rep), loaded)
		<-loaded
		used += l.Sent
		res, err := cluster.Collect()
		if err != nil {
			return err
		}
		out.stats = res.Total
		p = parsed{}
		c.close()
		f.close()

		s.add(r, l, db, skip)
		// Both nights are in the database; memory is per byte of both texts.
		reps.note(r, rep, out, out.seconds(), db, before, night.Bytes+second.Bytes)
	}
	reps.report(r)
	s.report(r)
	return nil
}
