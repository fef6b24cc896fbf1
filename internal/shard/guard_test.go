package shard

import (
	"bytes"
	"runtime"
	"sync"
	"testing"

	"skyloader/internal/catalog"
	"skyloader/internal/exec"
	"skyloader/internal/queries"
	"skyloader/internal/tuning"
)

// guardNight is the fixed-seed night of the deterministic guards below.
func guardNight() []*catalog.File {
	return catalog.GenerateNight(catalog.NightSpec{TotalMB: 12, Files: 12, RowsPerMB: 2500, Seed: 22})
}

// liveHeap is the live heap after two forced collections, as skyperf
// measures mem_bytes_per_user_byte.
func liveHeap() int64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestCoordinatorHoldsNoRecords: once LoadFiles has returned and the caller
// has dropped its files, what the coordinator keeps of the night is the
// directory — under 0.05 heap bytes per byte of catalog text (4.49 when it
// kept a replay log of parsed records) and under 4 directory bytes per
// object.
func TestCoordinatorHoldsNoRecords(t *testing.T) {
	empty := liveHeap()
	files := guardNight()
	var text, objects int64
	for _, f := range files {
		for _, rec := range f.Records {
			text += int64(rec.Bytes())
			if rec.Tag == catalog.TagOBJ {
				objects++
			}
		}
	}
	co, agents, _ := buildFleet(t, files, 3, false)
	files = nil
	snap := co.Snapshot()
	withCoordinator := liveHeap()
	runtime.KeepAlive(co)
	co = nil
	agentsOnly := liveHeap()
	runtime.KeepAlive(agents)

	held := float64(withCoordinator-agentsOnly) / float64(text)
	perObject := float64(snap.DirectoryBytes) / float64(objects)
	t.Logf("%d bytes of catalog text, %d objects: agents hold %.3f bytes per text byte, the coordinator %.4f; directory %d runs, %d bytes, %.3f per object",
		text, objects, float64(agentsOnly-empty)/float64(text), held, snap.DirectoryRuns, snap.DirectoryBytes, perObject)
	if held > 0.05 {
		t.Errorf("coordinator holds %.3f heap bytes per catalog-text byte after the load, want <= 0.05", held)
	}
	if snap.DirectoryRuns == 0 || perObject > 4 {
		t.Errorf("directory is %d runs, %.2f bytes per object; want a non-empty one of <= 4", snap.DirectoryRuns, perObject)
	}
}

// TestFleetLoadGuards pins what a fleet load costs in counters that repeat:
// on the fixed night over the in-memory transport (which hands the agent its
// own copy of every frame, as a socket does), Coordinator.LoadFiles makes
// under a quarter of an allocation per row loaded — a record is written into
// its task's frame and cut out of it again without a string of its own (3.2
// per row when a task was a string per line) — a load task's frame is within
// 1 % of the catalog text it carries (1.08 with a length prefix per line),
// every file is one task per shard it reaches, an agent done loading holds
// no loader, and the fleet stores the rows and answers the queries of one
// node.
func TestFleetLoadGuards(t *testing.T) {
	const (
		allocCeiling = 0.25 // mallocs per row loaded, whole process
		wireCeiling  = 1.01 // load-task frame bytes per routed text byte
	)
	// Files of the benchmark night's length: the loader's own allocations are
	// per batch and per flush cycle, and short files end more of both early.
	files := catalog.GenerateNight(catalog.NightSpec{TotalMB: 400, RowsPerMB: 100, Seed: 22, RunID: 1, Files: 4})
	oracle := buildOracle(t, files, tuning.ProductionLoading())
	co, agents, inline := startFleet(t, files, 3, false)
	defer co.Close()

	var text, tasks int64
	dir := new(directory).clone()
	for _, f := range files {
		route, targets := routeFile(co.pm, dir, f)
		tasks += int64(len(targets))
		for i, rec := range f.Records {
			if route[i] == routeAll {
				text += int64(rec.Bytes() * len(targets))
			} else {
				text += int64(rec.Bytes())
			}
		}
	}

	sent := co.Snapshot().BytesSent
	var rep LoadReport
	var err error
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	inline.RunInline("fleet-load", func(w exec.Worker) { rep, err = co.LoadFiles(w, files) })
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	sent = co.Snapshot().BytesSent - sent
	if rep.RowsLoaded < 30_000 || rep.RowsSkipped != 0 {
		t.Fatalf("the night loaded %d rows and skipped %d, want at least 30000 and none", rep.RowsLoaded, rep.RowsSkipped)
	}
	perRow := float64(after.Mallocs-before.Mallocs) / float64(rep.RowsLoaded)
	perByte := float64(sent) / float64(text)
	t.Logf("%d rows in %d tasks: %.3f mallocs and %.0f bytes allocated per row loaded; %d frame bytes for %d text bytes, %.4f",
		rep.RowsLoaded, rep.Tasks, perRow, float64(after.TotalAlloc-before.TotalAlloc)/float64(rep.RowsLoaded), sent, text, perByte)
	if perRow > allocCeiling {
		t.Errorf("%.3f mallocs per row loaded, ceiling %.2f", perRow, allocCeiling)
	}
	if perByte > wireCeiling {
		t.Errorf("%.4f frame bytes per text byte, ceiling %.2f", perByte, wireCeiling)
	}
	if int64(rep.Tasks) != tasks || rep.Files != len(files) {
		t.Errorf("%d tasks for %d files, want one per file and shard it reaches: %d for %d", rep.Tasks, rep.Files, tasks, len(files))
	}

	runtime.GC()
	runtime.GC()
	for s, a := range agents {
		if a.loaders.Get() != nil {
			t.Errorf("agent %d still holds a loader two collections after its last task", s)
		}
	}
	for _, table := range objectTreeTables {
		want, _ := oracle.Count(table)
		var got int64
		for _, a := range agents {
			n, _ := a.DB().Count(table)
			got += n
		}
		if got != want {
			t.Errorf("%s: fleet holds %d rows, single node %d", table, got, want)
		}
	}
	assertOracleIdentical(t, co, inline, oracle, testQueries(files, 40))
}

// TestLookupFansOutToOneShard: every lookup of a loaded object costs one
// shard call, examines one row as a single node does, and answers
// byte-identically to the oracle and to a broadcast; a lookup the directory
// cannot place — an unknown id, an id recorded for two shards, any id on a
// coordinator just started over the loaded agents — broadcasts and is still
// right.
func TestLookupFansOutToOneShard(t *testing.T) {
	files := catalog.GenerateNight(catalog.NightSpec{TotalMB: 3, Files: 6, RowsPerMB: 1000, Seed: 22})
	pm, err := PartitionFromFiles(files, 3)
	if err != nil {
		t.Fatal(err)
	}
	// An object id recorded for two shards: a second record of file 0's
	// first object, placed where another shard's object is and pointing at a
	// frame that does not exist, so that every engine rejects it.
	l := objLayout()
	ids := objectIDs(files...)
	var objs []catalog.Record
	for _, f := range files {
		for _, rec := range f.Records {
			if rec.Tag == catalog.TagOBJ {
				objs = append(objs, rec)
			}
		}
	}
	owner := func(rec catalog.Record) int {
		trixel, _ := objectTrixel(rec)
		return pm.Owner(trixel)
	}
	twiceID := ids[0]
	twice := catalog.Record{Tag: catalog.TagOBJ, Fields: append([]string(nil), objs[0].Fields...)}
	twice.Fields[1] = "999999999"
	for _, rec := range objs {
		if owner(rec) != owner(objs[0]) {
			twice.Fields[l.raIdx], twice.Fields[l.decIdx] = rec.Fields[l.raIdx], rec.Fields[l.decIdx]
			break
		}
	}
	if owner(twice) == owner(objs[0]) {
		t.Fatal("the night's objects are all on one shard")
	}
	last := *files[len(files)-1]
	last.Records = append(append([]catalog.Record(nil), last.Records...), twice)
	files[len(files)-1] = &last

	oracle := buildOracle(t, files, tuning.ProductionLoading())
	co, agents, inline := buildFleet(t, files, 3, false)
	defer co.Close()

	// A coordinator started over the same, already loaded agents.
	sched := co.Scheduler()
	clients := make([]Client, len(agents))
	for i, a := range agents {
		clients[i] = NewMemClient(sched, a, NetModel{})
	}
	fresh, err := New(sched, pm, clients, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()

	lookup := func(c *Coordinator, id int64) (res queries.Result, calls int64) {
		t.Helper()
		before := c.Snapshot().FanoutByClass[queries.ClassLookup]
		var err error
		inline.RunInline("lookup", func(w exec.Worker) {
			res, err = c.Execute(w, queries.ObjectLookup{ObjectID: id}, nil)
		})
		if err != nil {
			t.Fatalf("lookup %d: %v", id, err)
		}
		return res, c.Snapshot().FanoutByClass[queries.ClassLookup] - before
	}
	check := func(id int64, wantCalls int64) {
		t.Helper()
		want, err := queries.ObjectLookup{ObjectID: id}.Run(oracle)
		if err != nil {
			t.Fatal(err)
		}
		got, calls := lookup(co, id)
		broadcast, freshCalls := lookup(fresh, id)
		if calls != wantCalls || freshCalls != 3 {
			t.Fatalf("lookup %d: %d shard calls (want %d), %d on the fresh coordinator (want 3)", id, calls, wantCalls, freshCalls)
		}
		if !bytes.Equal(resultBytes(got), resultBytes(want)) || !bytes.Equal(resultBytes(broadcast), resultBytes(want)) {
			t.Fatalf("lookup %d: routed %s, broadcast %s, oracle %s", id, resultBytes(got), resultBytes(broadcast), resultBytes(want))
		}
		if wantCalls == 1 && got.Stats.RowsExamined != want.Stats.RowsExamined {
			t.Fatalf("lookup %d: routed lookup examined %d rows, single node %d", id, got.Stats.RowsExamined, want.Stats.RowsExamined)
		}
	}

	missesBefore := co.Snapshot().DirectoryMisses
	found := 0
	for i, id := range ids {
		if id == twiceID || i%7 != 0 {
			continue
		}
		check(id, 1)
		found++
	}
	if found < 50 {
		t.Fatalf("only %d lookups issued", found)
	}
	if misses := co.Snapshot().DirectoryMisses - missesBefore; misses != 0 {
		t.Fatalf("%d directory misses on ids the coordinator routed", misses)
	}
	check(42, 3)                // never routed
	check(ids[len(ids)-1]+1, 3) // just past the last run
	check(twiceID, 3)           // routed to two shards
	if misses := co.Snapshot().DirectoryMisses - missesBefore; misses != 3 {
		t.Fatalf("%d directory misses, want 3", misses)
	}
	if snap := fresh.Snapshot(); snap.DirectoryRuns != 0 || snap.DirectoryMisses == 0 {
		t.Fatalf("fresh coordinator: %d runs, %d misses", snap.DirectoryRuns, snap.DirectoryMisses)
	}
}

// TestLookupsWhileLoading: Targets reads the directory while a load extends
// it.  Lookups of the first half of a night, issued from several goroutines
// while the second half loads, stay routed to one shard and right; once the
// load returns, so are lookups of the second half.
func TestLookupsWhileLoading(t *testing.T) {
	files := catalog.GenerateNight(catalog.NightSpec{TotalMB: 4, Files: 6, RowsPerMB: 1000, Seed: 23})
	oracle := buildOracle(t, files, tuning.ProductionLoading())
	ids := [][]int64{objectIDs(files[:3]...), objectIDs(files[3:]...)}
	co, _, inline := startFleet(t, files, 3, false)
	defer co.Close()
	inline.RunInline("first-half", func(w exec.Worker) {
		if _, err := co.LoadFiles(w, files[:3]); err != nil {
			t.Error(err)
		}
	})

	check := func(id int64) {
		want, err := queries.ObjectLookup{ObjectID: id}.Run(oracle)
		if err != nil {
			t.Error(err)
			return
		}
		inline.RunInline("lookup", func(w exec.Worker) {
			got, err := co.Execute(w, queries.ObjectLookup{ObjectID: id}, nil)
			if err != nil || !bytes.Equal(resultBytes(got), resultBytes(want)) {
				t.Errorf("lookup %d: %s (%v), oracle %s", id, resultBytes(got), err, resultBytes(want))
			}
		})
	}
	var wg sync.WaitGroup
	loaded := make(chan struct{})
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; ; i += 3 {
				select {
				case <-loaded:
					return
				default:
					check(ids[0][i%len(ids[0])])
				}
			}
		}(g)
	}
	inline.RunInline("second-half", func(w exec.Worker) {
		if _, err := co.LoadFiles(w, files[3:]); err != nil {
			t.Error(err)
		}
	})
	close(loaded)
	wg.Wait()
	before := co.Snapshot()
	for _, id := range ids[1] {
		check(id)
	}
	after := co.Snapshot()
	if n := after.FanoutByClass[queries.ClassLookup] - before.FanoutByClass[queries.ClassLookup]; n != int64(len(ids[1])) || after.DirectoryMisses != 0 {
		t.Fatalf("%d shard calls for %d lookups after the load, %d directory misses in all", n, len(ids[1]), after.DirectoryMisses)
	}
}
