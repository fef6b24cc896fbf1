package shard

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"skyloader/internal/catalog"
	"skyloader/internal/core"
	"skyloader/internal/exec"
	"skyloader/internal/htm"
	"skyloader/internal/parallel"
	"skyloader/internal/queries"
	"skyloader/internal/relstore"
	"skyloader/internal/serve"
	"skyloader/internal/sqlbatch"
	"skyloader/internal/tuning"
)

func TestPartitionTiling(t *testing.T) {
	full := FullRange()
	for _, n := range []int{1, 2, 3, 7, 64, 100} {
		pm, err := NewUniformPartition(n)
		if err != nil {
			t.Fatal(err)
		}
		if pm.Shards() != n {
			t.Fatalf("n=%d: Shards()=%d", n, pm.Shards())
		}
		if pm.Range(0).Lo != full.Lo || pm.Range(n-1).Hi != full.Hi {
			t.Fatalf("n=%d: partition does not span the full range", n)
		}
		for i := 0; i < n; i++ {
			r := pm.Range(i)
			if r.Lo > r.Hi {
				t.Fatalf("n=%d shard %d: empty range %+v", n, i, r)
			}
			if i > 0 && r.Lo != pm.Range(i-1).Hi+1 {
				t.Fatalf("n=%d shard %d: gap or overlap at boundary", n, i)
			}
			if pm.Owner(r.Lo) != i || pm.Owner(r.Hi) != i {
				t.Fatalf("n=%d shard %d: Owner disagrees with Range", n, i)
			}
		}
	}
}

func TestPartitionFromFilesTiling(t *testing.T) {
	files := catalog.GenerateNight(catalog.NightSpec{TotalMB: 2, Files: 8, RowsPerMB: 100, Seed: 5})
	full := FullRange()
	for _, n := range []int{2, 3, 5} {
		pm, err := PartitionFromFiles(files, n)
		if err != nil {
			t.Fatal(err)
		}
		if pm.Range(0).Lo != full.Lo || pm.Range(n-1).Hi != full.Hi {
			t.Fatalf("n=%d: footprint partition does not tile the sky", n)
		}
		for i := 1; i < n; i++ {
			if pm.Range(i).Lo != pm.Range(i-1).Hi+1 {
				t.Fatalf("n=%d: boundary %d not contiguous", n, i)
			}
		}
	}
}

// normalize sorts and coalesces ranges so two covers can be compared as sets.
func normalize(rs []htm.Range) []htm.Range {
	if len(rs) == 0 {
		return nil
	}
	out := append([]htm.Range(nil), rs...)
	sort.Slice(out, func(i, j int) bool { return out[i].Lo < out[j].Lo })
	merged := out[:1]
	for _, r := range out[1:] {
		last := &merged[len(merged)-1]
		if r.Lo <= last.Hi+1 {
			if r.Hi > last.Hi {
				last.Hi = r.Hi
			}
			continue
		}
		merged = append(merged, r)
	}
	return merged
}

// TestRoutingOracleProperty: for random cones, the union of per-shard routed
// ranges equals the single-node cover expanded to DefaultDepth — no trixel
// lost, none invented, regardless of shard count.
func TestRoutingOracleProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(12)
		pm, err := NewUniformPartition(n)
		if err != nil {
			t.Fatal(err)
		}
		ra := rng.Float64() * 360
		dec := rng.Float64()*180 - 90
		radius := 0.01 + rng.Float64()*rng.Float64()*30
		depth := htm.CoverDepth(radius)
		cover, err := htm.ConeCover(ra, dec, radius, depth)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]htm.Range, 0, len(cover))
		for _, cr := range cover {
			want = append(want, cr.DescendantRange(htm.DefaultDepth-depth))
		}
		routed := pm.RouteCover(cover, depth)
		var got []htm.Range
		for s, rs := range routed {
			shardRange := pm.Range(s)
			for _, r := range rs {
				if r.Lo < shardRange.Lo || r.Hi > shardRange.Hi {
					t.Fatalf("trial %d: shard %d routed range %+v outside its ownership %+v", trial, s, r, shardRange)
				}
				got = append(got, r)
			}
		}
		if !reflect.DeepEqual(normalize(got), normalize(want)) {
			t.Fatalf("trial %d (n=%d cone %.3f,%.3f r%.3f): routed union != cover\n got %v\nwant %v",
				trial, n, ra, dec, radius, normalize(got), normalize(want))
		}
	}
}

// buildOracle loads the files into a fresh single-node database — the
// byte-identity reference for every scatter-gather result.
func buildOracle(t testing.TB, files []*catalog.File, prof tuning.Profile) *relstore.DB {
	t.Helper()
	db, _ := loadOracle(t, files, prof)
	return db
}

// loadOracle is buildOracle that also returns the single loader's totals.
func loadOracle(t testing.TB, files []*catalog.File, prof tuning.Profile) (*relstore.DB, core.Stats) {
	t.Helper()
	sched := exec.NewRealtime(exec.RealtimeConfig{Seed: 1})
	db, err := relstore.Open(catalog.NewSchema(), prof.Options()...)
	if err != nil {
		t.Fatal(err)
	}
	txn, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := catalog.SeedReference(txn, 32); err != nil {
		t.Fatal(err)
	}
	if _, err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := prof.Apply(db); err != nil {
		t.Fatal(err)
	}
	srv := sqlbatch.NewServerOn(sched, db, prof.ServerConfig(), sqlbatch.DefaultCostModel())
	res, err := parallel.Run(srv, files, parallel.Config{
		Loaders:       1,
		Loader:        core.Config{BatchSize: 40, ArraySize: 1000},
		SealAfterLoad: prof.DeferredIndexBuild,
	})
	if err != nil {
		t.Fatal(err)
	}
	return db, res.Total
}

// startFleet assembles n in-process agents behind mem clients on a realtime
// scheduler, partitioned for the files, and says Hello.
func startFleet(t testing.TB, files []*catalog.File, n int, deferred bool) (*Coordinator, []*Agent, exec.InlineRunner) {
	t.Helper()
	sched := exec.NewRealtime(exec.RealtimeConfig{Seed: 2})
	inline := exec.InlineRunner(sched)
	agents := make([]*Agent, n)
	clients := make([]Client, n)
	cfg := DefaultAgentConfig()
	cfg.Profile.DeferredIndexBuild = deferred
	for i := range agents {
		a, err := NewAgent(sched, cfg)
		if err != nil {
			t.Fatal(err)
		}
		agents[i] = a
		clients[i] = NewMemClient(sched, a, NetModel{})
	}
	pm, err := PartitionFromFiles(files, n)
	if err != nil {
		t.Fatal(err)
	}
	co, err := New(sched, pm, clients, Config{Deferred: deferred})
	if err != nil {
		t.Fatal(err)
	}
	inline.RunInline("fleet-hello", func(w exec.Worker) { err = co.Hello(w) })
	if err != nil {
		t.Fatal(err)
	}
	return co, agents, inline
}

// buildFleet is startFleet plus loading the files through the coordinator.
func buildFleet(t testing.TB, files []*catalog.File, n int, deferred bool) (*Coordinator, []*Agent, exec.InlineRunner) {
	t.Helper()
	co, agents, inline := startFleet(t, files, n, deferred)
	var err error
	inline.RunInline("fleet-load", func(w exec.Worker) { _, err = co.LoadFiles(w, files) })
	if err != nil {
		t.Fatal(err)
	}
	return co, agents, inline
}

// testQueries builds a representative mixed workload aimed at the files'
// sky footprint: generated Zipf traffic plus explicit queries of every
// class (including misses).
func testQueries(files []*catalog.File, n int) []queries.Query {
	trace := serve.GenTrace(serve.TraceSpec{
		Queries:  n,
		Seed:     909,
		ConeFrac: 0.6,
		Objects:  256,
		IDBase:   100_000_000,
		Frames:   24,
	}.WithFootprint(files))
	out := make([]queries.Query, 0, len(trace)+7)
	for _, r := range trace {
		out = append(out, r.Query)
	}
	out = append(out,
		queries.Cone{RA: files[0].RABase + 1, Dec: files[0].DecBase + 0.4, RadiusDeg: 2.5},
		queries.Cone{RA: 10, Dec: -80, RadiusDeg: 0.3}, // likely empty sky
		queries.ObjectLookup{ObjectID: 100_000_001},
		queries.ObjectLookup{ObjectID: 42},   // miss
		queries.FrameObjects{FrameID: 1_000}, // likely miss
		queries.MagHistogram{BinWidth: 0.5},
		queries.MagHistogram{BinWidth: 0.001}, // thousands of bins to merge across shards
	)
	return out
}

// resultBytes is the part of an answer that must be byte-identical.
func resultBytes(r queries.Result) []byte {
	b, _ := json.Marshal(struct {
		O []queries.Object
		B []queries.MagnitudeBin
	}{r.Objects, r.Bins})
	return b
}

// objectIDs returns the object ids of the files' OBJ records, in file order.
func objectIDs(files ...*catalog.File) (ids []int64) {
	for _, f := range files {
		for _, rec := range f.Records {
			if id, ok := objectID(rec.Fields[objLayout().idIdx]); ok && rec.Tag == catalog.TagOBJ {
				ids = append(ids, id)
			}
		}
	}
	return ids
}

// assertOracleIdentical runs every query against both the fleet and the
// single-node oracle and requires byte-identical Objects/Bins and the same
// RowsReturned.
func assertOracleIdentical(t testing.TB, co *Coordinator, inline exec.InlineRunner, oracle *relstore.DB, qs []queries.Query) {
	t.Helper()
	nonEmpty := 0
	for i, q := range qs {
		want, err := q.Run(oracle)
		if err != nil {
			t.Fatalf("query %d (%s): oracle: %v", i, q.Signature(), err)
		}
		var got queries.Result
		var execErr error
		inline.RunInline("verify", func(w exec.Worker) {
			got, execErr = co.Execute(w, q, nil)
		})
		if execErr != nil {
			t.Fatalf("query %d (%s): fleet: %v", i, q.Signature(), execErr)
		}
		wantJSON, gotJSON := resultBytes(want), resultBytes(got)
		if !bytes.Equal(wantJSON, gotJSON) {
			t.Fatalf("query %d (%s): fleet result differs from oracle\n got %s\nwant %s",
				i, q.Signature(), gotJSON, wantJSON)
		}
		if got.Stats.RowsReturned != want.Stats.RowsReturned {
			t.Fatalf("query %d (%s): fleet returned %d rows, oracle %d",
				i, q.Signature(), got.Stats.RowsReturned, want.Stats.RowsReturned)
		}
		if len(want.Objects) > 0 || len(want.Bins) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty == 0 {
		t.Fatal("every oracle result was empty; the identity check proved nothing")
	}
}

// TestThreeShardByteIdentity is the acceptance property: cone, object,
// frame and histogram results from a 3-shard scatter-gather are
// byte-identical to the single-node oracle.
func TestThreeShardByteIdentity(t *testing.T) {
	files := catalog.GenerateNight(catalog.NightSpec{TotalMB: 3, Files: 3, RowsPerMB: 200, Seed: 7})
	oracle := buildOracle(t, files, tuning.ProductionLoading())
	co, agents, inline := buildFleet(t, files, 3, false)
	defer co.Close()

	var shardRows int64
	for _, a := range agents {
		shardRows += a.DB().TotalRows()
	}
	// Reference rows are replicated per shard; object-graph rows must not
	// be lost. Compare object counts, which are partition-exclusive.
	var oracleObjects, fleetObjects int64
	oracleObjects, _ = oracle.Count(catalog.TObjects)
	for _, a := range agents {
		n, _ := a.DB().Count(catalog.TObjects)
		fleetObjects += n
	}
	if oracleObjects == 0 {
		t.Fatal("oracle loaded zero objects; the identity test would be vacuous")
	}
	if fleetObjects != oracleObjects {
		t.Fatalf("fleet holds %d objects, oracle %d", fleetObjects, oracleObjects)
	}
	if shardRows == 0 {
		t.Fatal("fleet loaded zero rows")
	}
	assertOracleIdentical(t, co, inline, oracle, testQueries(files, 40))
}

// TestByteIdentityDeferredSeal covers the fleet-wide BeginLoad/Seal window:
// results after Seal must match an oracle loaded the same way.
func TestByteIdentityDeferredSeal(t *testing.T) {
	prof := tuning.ProductionLoading()
	prof.DeferredIndexBuild = true
	files := catalog.GenerateNight(catalog.NightSpec{TotalMB: 2, Files: 3, RowsPerMB: 150, Seed: 21})
	oracle := buildOracle(t, files, prof)
	co, _, inline := buildFleet(t, files, 3, true)
	defer co.Close()
	var ready bool
	inline.RunInline("ready", func(w exec.Worker) { ready = co.Ready(w) })
	if !ready {
		t.Fatal("fleet not ready after deferred load + seal")
	}
	assertOracleIdentical(t, co, inline, oracle, testQueries(files, 25))
}

// TestRestoreShard kills one shard's agent and client, brings up a fresh
// agent, hands RestoreShard the files again, and requires the
// fleet to be byte-identical to the oracle again.
func TestRestoreShard(t *testing.T) {
	files := catalog.GenerateNight(catalog.NightSpec{TotalMB: 2, Files: 3, RowsPerMB: 150, Seed: 11})
	oracle := buildOracle(t, files, tuning.ProductionLoading())
	co, _, inline := buildFleet(t, files, 3, false)
	defer co.Close()

	sched := co.Scheduler()
	replacementAgent, err := NewAgent(sched, DefaultAgentConfig())
	if err != nil {
		t.Fatal(err)
	}
	inline.RunInline("restore", func(w exec.Worker) {
		if err := co.RestoreShard(w, 1, NewMemClient(sched, replacementAgent, NetModel{}), files); err != nil {
			t.Error(err)
		}
	})
	if t.Failed() {
		t.FailNow()
	}
	assertOracleIdentical(t, co, inline, oracle, testQueries(files, 20))
}

// TestConeTargetsNarrow: a small cone must not fan out to every shard of a
// wide fleet (the scatter-only-to-overlapping-shards property).
func TestConeTargetsNarrow(t *testing.T) {
	pm, err := NewUniformPartition(64)
	if err != nil {
		t.Fatal(err)
	}
	targets, err := pm.ConeTargets(187.2, -5.4, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if len(targets) == 0 {
		t.Fatal("no targets for a valid cone")
	}
	if len(targets) == 64 {
		t.Fatal("tiny cone scattered to every shard")
	}
}

// TestSimDeterministic: the same DES topology config renders byte-identical
// reports across two runs.
func TestSimDeterministic(t *testing.T) {
	cfg := SimConfig{Shards: 5, Seed: 99, SizeMB: 1, Files: 4, RowsPerMB: 120, Queries: 60}
	var a, b bytes.Buffer
	r1, err := RunSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r1.Render(&a)
	r2, err := RunSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2.Render(&b)
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("sim not deterministic:\n--- run 1\n%s\n--- run 2\n%s", a.String(), b.String())
	}
	if r1.RowsLoaded == 0 || r1.Queries == 0 {
		t.Fatalf("degenerate sim report: %+v", r1)
	}
	if r1.Errors != 0 {
		t.Fatalf("sim reported %d query errors", r1.Errors)
	}
}
