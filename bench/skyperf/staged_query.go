package main

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"runtime"
	"strconv"
	"time"

	"skyloader/bench/gen"
	"skyloader/internal/catalog"
	"skyloader/internal/exec"
	"skyloader/internal/htm"
	"skyloader/internal/httpserve"
	"skyloader/internal/parallel"
	"skyloader/internal/queries"
	"skyloader/internal/relstore"
	"skyloader/internal/serve"
	"skyloader/internal/shard/wire"
	"skyloader/internal/tuning"
)

// The query side of the traced run replays a sample of the workload's trace
// in process, one layer at a time, from the inside out:
//
//	L1 htm.ConeCover              L2 relstore.LookupByPK / RangeIndexed
//	L3 Query.Run                  L4 serve.Server.Execute through exec.InlineRunner
//	L5 httpserve Handler().ServeHTTP on a recorder
//	L6 the loopback round trip
//
// Every layer runs the same queries, each on a fresh serving stack, once
// missing the cache and once hitting it.  A layer's self time is its pass
// minus the pass of the layer inside it.  serve-hot is judged on the hit
// passes, serve-mixed and shard-scatter on the miss passes.

// traceQueriesPerSecond sizes the replayed sample from the measuring time.
const traceQueriesPerSecond = 100

// each runs fn(i) for i in [0, n), one span per call under a common root,
// and returns the calls' total.
func (r *recorder) each(name string, n int, fn func(i int)) time.Duration {
	root := r.begin(name, 0, "trace")
	var total time.Duration
	for i := 0; i < n; i++ {
		total += r.do(name+".call", root, strconv.Itoa(i), func() { fn(i) })
	}
	r.end(root)
	return total
}

// spanOverhead is what recording a span per call costs: the round-trip pass
// once more with spans and once without, the faster of two tries each.
func spanOverhead(rec *recorder, n int, get func(i int)) float64 {
	traced, untraced := time.Duration(1<<62), time.Duration(1<<62)
	for try := 0; try < 2; try++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			get(i)
		}
		untraced = min(untraced, time.Since(t0))
		t0 = time.Now()
		rec.each("http.roundtrip.again", n, get)
		traced = min(traced, time.Since(t0))
	}
	return float64(traced)/float64(untraced) - 1
}

// closedLoopQPS is the completions per second two clients sustain against
// base for two seconds: the capacity figure, which on a shared host moves
// too much between invocations to carry a bound.
func closedLoopQPS(r *run, base string, trace []queries.Query) float64 {
	c := newClient(base, r.par)
	defer c.close()
	l := c.closedLoop(trace, min(r.budget(0.2), 2*time.Second), r.seed)
	r.res.Attempted += int64(l.Sent)
	r.res.Failed += int64(l.Failed)
	return float64(len(l.latNs)) / l.Seconds
}

// perQuery is a total as a mean per query, in nanoseconds.
func perQuery(d time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(d) / float64(n)
}

// innerLayers runs L1..L3 of the sample against db and records the htm,
// relstore (read) and queries metrics.  It returns the totals the chain
// needs: cover + reads, and Query.Run.
func innerLayers(r *run, db *relstore.DB, sample []queries.Query) (inner, runTotal time.Duration) {
	rec := r.rec
	var cones []queries.Cone
	var lookups []queries.ObjectLookup
	for _, q := range sample {
		switch t := q.(type) {
		case queries.Cone:
			cones = append(cones, t)
		case queries.ObjectLookup:
			lookups = append(lookups, t)
		}
	}

	// L1: the cover of every cone.
	covers := make([][]htm.Range, len(cones))
	var ranges int
	cover := rec.each("htm.cone_cover", len(cones), func(i int) {
		c := cones[i]
		covers[i], _ = htm.ConeCover(c.RA, c.Dec, c.RadiusDeg, htm.CoverDepth(c.RadiusDeg))
	})
	for _, c := range covers {
		ranges += len(c)
	}
	rec.set("htm.cone_cover_ns", perQuery(cover, len(cones)))
	if len(cones) > 0 {
		rec.set("htm.cover_ranges_per_cone", float64(ranges)/float64(len(cones)))
	}

	// L2: the index range scans those covers ask for, and the point reads.
	var scanned int
	scans := rec.each("relstore.range_indexed", len(cones), func(i int) {
		depth := htm.CoverDepth(cones[i].RadiusDeg)
		for _, rg := range covers[i] {
			ids := rg.DescendantRange(htm.DefaultDepth - depth)
			rows, _ := db.RangeIndexed(catalog.TObjects, tuning.HTMIDIndexName,
				[]relstore.Value{relstore.Int(ids.Lo)}, []relstore.Value{relstore.Int(ids.Hi)}, 0)
			scanned += len(rows)
		}
	})
	if scanned > 0 {
		rec.set("relstore.range_indexed_ns_per_row", float64(scans)/float64(scanned))
	}
	reads := rec.each("relstore.lookup_pk", len(lookups), func(i int) {
		_, _ = db.LookupByPK(catalog.TObjects, []relstore.Value{relstore.Int(lookups[i].ObjectID)})
	})
	rec.set("relstore.lookup_pk_ns", perQuery(reads, len(lookups)))

	// L3: Query.Run, per class.
	byClass := map[string]time.Duration{}
	count := map[string]int{}
	var examined, returned int
	root := rec.begin("queries.run", 0, "trace")
	for i, q := range sample {
		var res queries.Result
		d := rec.do("queries.run."+q.Class(), root, strconv.Itoa(i), func() { res, _ = q.Run(db) })
		byClass[q.Class()] += d
		count[q.Class()]++
		runTotal += d
		examined += res.Stats.RowsExamined
		returned += res.Stats.RowsReturned
	}
	rec.end(root)
	for class, name := range map[string]string{queries.ClassCone: "queries.cone_ns", queries.ClassLookup: "queries.lookup_ns",
		queries.ClassFrame: "queries.frame_ns", queries.ClassHistogram: "queries.maghist_ns"} {
		rec.set(name, perQuery(byClass[class], count[class]))
	}
	if returned > 0 {
		rec.set("queries.rows_examined_per_returned", float64(examined)/float64(returned))
	}
	rec.set("queries.rows_returned_per_query", float64(returned)/float64(len(sample)))
	return cover + scans + reads, runTotal
}

// passes is a layer's two passes over the sample, as means per query: every
// query missing the cache, then the most recent hitWindow of them hitting it
// (a sample larger than the cache would evict its own head).
type passes struct{ miss, hit float64 }

const hitWindow = 512

func (p passes) of(hit bool) float64 {
	if hit {
		return p.hit
	}
	return p.miss
}

// twice runs fn over the sample on a stack that starts cold, then again over
// the part still cached.
func twice(rec *recorder, name string, n int, fn func(i int)) passes {
	miss := rec.each(name+".miss", n, fn)
	tail := max(0, n-hitWindow)
	hit := rec.each(name+".hit", n-tail, func(i int) { fn(tail + i) })
	return passes{miss: perQuery(miss, n), hit: perQuery(hit, n-tail)}
}

// outerLayers runs L4..L6 of the sample against db and records the serve,
// httpserve, exec and metrics metrics and the trace's coverage and overhead.
// judgeHits selects the pass the workload is judged on.
func outerLayers(r *run, db *relstore.DB, sample, beyond []queries.Query, inner, runTotal time.Duration, judgeHits bool) error {
	rec := r.rec
	n := len(sample)

	// L4: serve.Server.Execute on the calling goroutine, as a transport
	// enters it.
	sched := newScheduler(r.seed)
	qs := serve.NewServer(sched, db, serve.DefaultConfig())
	var failed int
	execute := twice(rec, "serve.execute", n, func(i int) {
		sched.RunInline("skyperf-execute", func(w exec.Worker) {
			if _, _, err := qs.Execute(w, sample[i], nil); err != nil {
				failed++
			}
		})
	})
	report := qs.Report(sched.Now())
	perRun, perInner := perQuery(runTotal, n), perQuery(inner, n)
	rec.set("serve.execute_hit_ns", execute.hit)
	rec.set("serve.execute_miss_self_ns", execute.miss-perRun)
	rec.set("serve.cache_hit_ratio", report.Cache.HitRate())
	rec.set("serve.cache_evictions", float64(report.Cache.Evictions))
	rec.set("serve.cache_stale_hits", float64(report.Cache.StaleHits))
	rec.set("serve.shed", float64(report.Shed))
	rec.set("serve.expired", float64(report.Expired))
	rec.set("serve.queue_wait_p99_ms", float64(report.QueueWait.P99)/1e6)

	// L5: the HTTP handler on a response recorder, no socket.
	f5, err := startFront(db, r.seed)
	if err != nil {
		return err
	}
	handler := f5.http.Handler()
	urls := make([]string, n)
	for i, q := range sample {
		if urls[i], err = httpserve.QueryURL(q); err != nil {
			return err
		}
	}
	var ms0, ms1 runtime.MemStats
	var respBytes int
	runtime.ReadMemStats(&ms0)
	handled := twice(rec, "httpserve.handler", n, func(i int) {
		rr := httptest.NewRecorder()
		handler.ServeHTTP(rr, httptest.NewRequest("GET", urls[i], nil))
		respBytes += rr.Body.Len()
		if rr.Code != 200 {
			failed++
		}
	})
	runtime.ReadMemStats(&ms1)
	calls := float64(n + min(n, hitWindow))
	rec.set("httpserve.handler_self_ns", handled.of(judgeHits)-execute.of(judgeHits))
	rec.set("httpserve.response_bytes_per_query", float64(respBytes)/calls)
	// Both passes, the recorder's own allocations included.
	rec.set("httpserve.allocs_per_query", float64(ms1.Mallocs-ms0.Mallocs)/calls)

	// The cost of looking: one /metrics scrape.
	var scrape bytes.Buffer
	const scrapes = 20
	scraped := rec.each("metrics.scrape", scrapes, func(int) {
		scrape.Reset()
		_ = f5.http.WriteMetrics(&scrape)
	})
	rec.set("metrics.scrape_ns", perQuery(scraped, scrapes))
	rec.set("metrics.scrape_bytes", float64(scrape.Len()))
	f5.close()

	// L6: the loopback round trip, one connection, one request at a time.
	f6, err := startFront(db, r.seed)
	if err != nil {
		return err
	}
	defer f6.close()
	c := newClient(f6.base, 1)
	defer c.close()
	var buf bytes.Buffer
	get := func(i int) {
		if ok, _ := c.get(sample[i], &buf, false); !ok {
			failed++
		}
	}
	trip := twice(rec, "http.roundtrip", n, get)
	rec.set("httpserve.socket_self_ns", trip.of(judgeHits)-handled.of(judgeHits))
	rec.set("exec.worker_utilization", f6.qs.Workers().Stats().Utilization)

	rec.set("trace.overhead", spanOverhead(rec, n, get))
	rec.set("serve.closed_loop_qps", closedLoopQPS(r, f6.base, beyond))

	// Coverage: the layers' self times along the judged chain over the
	// round trip they add up to.  A negative difference (an inner pass that
	// happened to run slower than the pass around it) counts as nothing.
	self := []float64{
		trip.of(judgeHits) - handled.of(judgeHits),
		handled.of(judgeHits) - execute.of(judgeHits),
	}
	if judgeHits {
		self = append(self, execute.hit)
	} else {
		self = append(self, execute.miss-perRun, perRun-perInner, perInner)
	}
	var covered float64
	for _, d := range self {
		covered += max(d, 0)
	}
	rec.set("trace.coverage", covered/trip.of(judgeHits))

	r.res.Attempted += int64(3 * (n + min(n, hitWindow)))
	r.res.Failed += int64(failed)
	return nil
}

// traceSample is the replayed part of a trace.
func traceSample(r *run, trace []queries.Query) []queries.Query {
	return trace[:min(len(trace), int(r.seconds*traceQueriesPerSecond))]
}

// traceServe is the traced run of serve-hot and serve-mixed.
func traceServe(r *run) error {
	mixed := r.res.Workload == "serve-mixed"
	night, err := setUpCatalog(r, "served", serveFiles, serveRows, errorRate)
	if err != nil {
		return err
	}
	db, err := openDB(relstore.IndexImmediate)
	if err != nil {
		return err
	}
	if _, err := parseAndLoad(db, night.Files, loadConfig(r.par, 0), r.seed); err != nil {
		return err
	}
	r.res.TableCounts = tableCounts(db)

	// The sample the layers replay, and the trace the closed loop continues
	// with: for serve-hot the distinct queries (the first pass misses on
	// every one, the second hits on every one) and the hot trace over them.
	var sample, beyond []queries.Query
	if mixed {
		cold := gen.ColdTrace(night, r.seed+1, coldTraceLen(night))
		sample = traceSample(r, cold)
		beyond = cold[len(sample):]
	} else {
		beyond, sample = gen.HotTrace(night, r.seed+1, 100_000)
	}
	inner, runTotal := innerLayers(r, db, sample)
	if err := outerLayers(r, db, sample, beyond, inner, runTotal, !mixed); err != nil {
		return err
	}
	if mixed {
		return mixedCounters(r, db, night)
	}
	return rateSweep(r, db, beyond, sample)
}

// rateSweep offers the hot trace at each of sweepQPS for a second and records
// the highest rate whose p99 met sweepLimitMs with the generator no more
// than 100 ms late at the end and no request failed.
func rateSweep(r *run, db *relstore.DB, hot, distinct []queries.Query) error {
	f, err := startFront(db, r.seed)
	if err != nil {
		return err
	}
	defer f.close()
	warm := newClient(f.base, r.par)
	warm.onePass(distinct)
	warm.close()
	c := newClient(f.base, r.par*openConnsPerClient)
	defer c.close()
	var best float64
	for i, qps := range sweepQPS {
		l := c.openLoop(hot[i*len(hot)/len(sweepQPS):], qps, time.Second, r.seed+int64(i), nil)
		l.samples = nil
		r.res.Loops = append(r.res.Loops, l)
		r.res.Attempted += int64(l.Sent)
		r.res.Failed += int64(l.Failed)
		if l.Failed == 0 && l.LateEndMs < 100 && latencyDist(l.latNs, 0.99).Value <= sweepLimitMs {
			best = qps
		}
	}
	r.rec.set("serve.max_rate_qps", best)
	return nil
}

// sweepQPS are the offered rates of serve-hot's rate sweep, and sweepLimitMs
// the p99 a rate must hold to count as met.
var sweepQPS = []float64{1000, 2000, 3000, 4000, 6000}

const sweepLimitMs = 5.0

// mixedCounters replays serve-mixed's contention once under the recorder: the
// second night loads while one connection walks the cold trace, and the
// counters of both sides are read at the end.  The ingest stages themselves
// are split by ingest-bulk's traced run; here they are priced as they run
// beside readers.
func mixedCounters(r *run, db *relstore.DB, night *gen.Night) error {
	second, err := disjointNight(r, night)
	if err != nil {
		return err
	}
	cold := gen.ColdTrace(night, r.seed+3, coldTraceLen(night))
	f, err := startFront(db, r.seed)
	if err != nil {
		return err
	}
	defer f.close()
	p, err := parseFiles(second.Files)
	if err != nil {
		return err
	}
	srv := loadServer(f.sched, db)
	cluster, err := parallel.Spawn(srv, p.files, loadConfig(r.par, 0))
	if err != nil {
		return err
	}
	loaded := make(chan struct{})
	var loadD time.Duration
	go func() {
		loadD = r.rec.do("parallel.run.beside_readers", 0, "second", func() { f.sched.Run() })
		close(loaded)
	}()
	c := newClient(f.base, 1)
	defer c.close()
	l := c.closedUntil(cold, loaded, r.seed)
	<-loaded
	res, err := cluster.Collect()
	if err != nil {
		return err
	}
	stats := srv.Stats()
	rec := r.rec
	rec.set("sqlbatch.db_calls", float64(stats.Calls))
	rec.set("sqlbatch.lock_waits", float64(stats.LockWaits))
	rec.set("sqlbatch.execute_ns_per_row", float64(loadD)*float64(r.par)/float64(max(res.Total.RowsRead, 1)))
	rec.set("core.batches", float64(res.Total.Batches))
	rec.set("core.rows_skipped", float64(res.Total.RowsSkipped))
	rec.set("serve.cache_stale_hits", float64(f.qs.Cache().Stats().StaleHits))
	r.res.Attempted += int64(l.Sent + res.Total.RowsRead)
	r.res.Failed += int64(l.Failed)
	r.res.check("VerifyIntegrity finds no orphans and VerifyPrimaryKeys passes", verifyDB(db))
	return nil
}

// traceShard is the traced run of shard-scatter: the fleet load, then the
// sample through the wire codec, Agent.Handle, Coordinator.Execute, the
// ShardFront handler and the loopback round trip.
func traceShard(r *run) error {
	in, err := setUpShard(r, nil)
	if in != nil {
		defer func() { in.fleet.close() }()
	}
	if err != nil {
		return err
	}
	rec := r.rec
	f := in.fleet
	report, _, _, lines, err := f.load(in.night)
	if err != nil {
		return err
	}
	r.res.Attempted += int64(lines)
	rec.set("shard.load_tasks_per_file", float64(report.Tasks)/float64(report.Files))
	r.res.check("every shard passes VerifyIntegrity and VerifyPrimaryKeys; fleet objects equal the oracle's", f.verify(in.oracle))
	r.res.TableCounts = tableCounts(in.oracle)

	sample := traceSample(r, in.cold)
	n := len(sample)
	inner, runTotal := innerLayers(r, in.oracle, sample)
	_ = inner

	// Agent.Handle on every shard the query is routed to; a broadcast waits
	// for its slowest shard, so the chain is charged the slowest one.
	msgs := make([]wire.Query, n)
	var frames [][]byte
	var handle, slowest time.Duration
	var calls int
	root := rec.begin("shard.agent_handle", 0, "trace")
	for i, q := range sample {
		if msgs[i], err = wire.FromQuery(uint64(i+1), q); err != nil {
			return err
		}
		targets, err := f.co.Targets(q)
		if err != nil {
			return err
		}
		var worst time.Duration
		for _, s := range targets {
			var reply wire.Msg
			f.sched.RunInline("skyperf-handle", func(w exec.Worker) {
				d := rec.do("shard.agent_handle.call", root, strconv.Itoa(i), func() { reply = f.agents[s].Agent().Handle(w, msgs[i]) })
				handle += d
				worst = max(worst, d)
			})
			calls++
			if i%8 == 0 {
				frames = append(frames, wire.Append(nil, reply))
			}
		}
		slowest += worst
		frames = append(frames, wire.Append(nil, msgs[i]))
	}
	rec.end(root)
	rec.set("shard.agent_handle_ns", perQuery(handle, calls))

	// The wire codec on the captured frames: queries and replies.
	var frameBytes int
	var scratch []byte
	codec := rec.each("wire.codec", len(frames), func(i int) {
		m, _, err := wire.Decode(frames[i])
		if err == nil {
			scratch = wire.Append(scratch[:0], m)
		}
		frameBytes += len(frames[i])
	})
	rec.set("wire.codec_ns_per_frame", perQuery(codec, len(frames)))
	rec.set("wire.bytes_per_frame", float64(frameBytes)/float64(len(frames)))

	// Coordinator.Execute: scatter over TCP, gather.
	before := f.co.Snapshot()
	byClass := map[string]time.Duration{}
	count := map[string]int{}
	var execTotal time.Duration
	var failed int
	root = rec.begin("shard.execute", 0, "trace")
	for i, q := range sample {
		f.sched.RunInline("skyperf-execute", func(w exec.Worker) {
			d := rec.do("shard.execute."+q.Class(), root, strconv.Itoa(i), func() {
				if _, err := f.co.Execute(w, q, nil); err != nil {
					failed++
				}
			})
			byClass[q.Class()] += d
			count[q.Class()]++
			execTotal += d
		})
	}
	rec.end(root)
	after := f.co.Snapshot()
	rec.set("shard.execute_cone_ns", perQuery(byClass[queries.ClassCone], count[queries.ClassCone]))
	rec.set("shard.execute_lookup_ns", perQuery(byClass[queries.ClassLookup], count[queries.ClassLookup]))
	rec.set("shard.execute_maghist_ns", perQuery(byClass[queries.ClassHistogram], count[queries.ClassHistogram]))
	var fanout int64
	for class, v := range after.FanoutByClass {
		fanout += v - before.FanoutByClass[class]
	}
	rec.set("shard.fanout_per_query", float64(fanout)/float64(n))
	rec.set("shard.gather_self_ns", perQuery(execTotal-slowest, n))
	rec.set("shard.wire_bytes_per_query", float64(after.BytesSent+after.BytesReceived-before.BytesSent-before.BytesReceived)/float64(n))
	rec.set("shard.errors", float64(after.QueryErrors-before.QueryErrors))

	// The front door over the coordinator: handler on a recorder, then the
	// loopback round trip.  Nothing is cached in the fleet, so one pass.
	if f.front, err = httpserve.NewShard(f.co, httpserve.Config{}); err != nil {
		return err
	}
	handler := f.front.Handler()
	var respBytes int
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	serveOne := func(i int) {
		url, _ := httpserve.QueryURL(sample[i])
		rr := httptest.NewRecorder()
		handler.ServeHTTP(rr, httptest.NewRequest("GET", url, nil))
		respBytes += rr.Body.Len()
		if rr.Code != 200 {
			failed++
		}
	}
	handled := rec.each("httpserve.handler", n, serveOne)
	runtime.ReadMemStats(&ms1)
	rec.set("httpserve.handler_self_ns", perQuery(handled-execTotal, n))
	rec.set("httpserve.response_bytes_per_query", float64(respBytes)/float64(n))
	rec.set("httpserve.allocs_per_query", float64(ms1.Mallocs-ms0.Mallocs)/float64(n))
	var scrape bytes.Buffer
	scraped := rec.each("metrics.scrape", 20, func(int) {
		scrape.Reset()
		_ = f.front.WriteMetrics(&scrape)
	})
	rec.set("metrics.scrape_ns", perQuery(scraped, 20))
	rec.set("metrics.scrape_bytes", float64(scrape.Len()))

	addr, err := f.front.Start("127.0.0.1:0")
	if err != nil {
		return err
	}
	c := newClient("http://"+addr.String(), 1)
	defer c.close()
	var buf bytes.Buffer
	get := func(i int) {
		if ok, _ := c.get(sample[i], &buf, false); !ok {
			failed++
		}
	}
	// The two outer passes differ by little and run minutes into the replay;
	// each is taken as the faster of two tries, alternating, so that a slow
	// spell of the host does not land on one of them alone.
	trip := rec.each("http.roundtrip", n, get)
	handled = min(handled, rec.each("httpserve.handler", n, serveOne))
	trip = min(trip, rec.each("http.roundtrip", n, get))
	rec.set("httpserve.socket_self_ns", perQuery(trip-handled, n))
	rec.set("trace.overhead", spanOverhead(rec, n, get))
	rec.set("serve.closed_loop_qps", closedLoopQPS(r, "http://"+addr.String(), in.cold[n:]))

	// Coverage along the chain socket, handler, gather (scatter, codec and
	// merge), slowest agent; the agents' own time is Query.Run on a third of
	// the rows, which innerLayers priced on the oracle.
	_ = runTotal
	var covered time.Duration
	for _, d := range []time.Duration{trip - handled, handled - execTotal, execTotal - slowest, slowest} {
		covered += max(d, 0)
	}
	rec.set("trace.coverage", float64(covered)/float64(trip))

	r.res.Attempted += int64(7 * n)
	r.res.Failed += int64(failed)
	if failed > 0 {
		return fmt.Errorf("%d traced requests failed", failed)
	}
	return nil
}
