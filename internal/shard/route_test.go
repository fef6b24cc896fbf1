package shard

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"skyloader/internal/catalog"
	"skyloader/internal/exec"
	"skyloader/internal/htm"
	"skyloader/internal/relstore"
	"skyloader/internal/shard/wire"
	"skyloader/internal/tuning"
)

// filterRecords is the routing oracle: the agent-side filter the fleet ran
// before the coordinator routed records, kept here to say what one shard of
// range rng must load of a file.
func filterRecords(records []catalog.Record, rng htm.Range, home bool) []catalog.Record {
	f := objLayout()
	kept := make(map[string]bool)
	for _, rec := range records {
		if rec.Tag != catalog.TagOBJ {
			continue
		}
		keep := home
		if id, ok := objectTrixel(rec); ok {
			keep = id >= rng.Lo && id <= rng.Hi
		}
		if keep {
			kept[strings.TrimSpace(rec.Fields[f.idIdx])] = true
		}
	}
	out := make([]catalog.Record, 0, len(records))
	for _, rec := range records {
		switch {
		case rec.Tag == catalog.TagOBJ:
			if !kept[strings.TrimSpace(rec.Fields[f.idIdx])] {
				continue
			}
		case childTag(rec.Tag):
			if len(rec.Fields) <= f.childIdx || !kept[strings.TrimSpace(rec.Fields[f.childIdx])] {
				continue
			}
		}
		out = append(out, rec)
	}
	return out
}

// routed returns the records of f that route sends to shard s.
func routed(f *catalog.File, route []uint16, s int) []catalog.Record {
	out := make([]catalog.Record, 0, len(route))
	for i, r := range route {
		if r == uint16(s) || r == routeAll {
			out = append(out, f.Records[i])
		}
	}
	return out
}

// TestRouteMatchesFilterOracle: on a night with missing, malformed and
// out-of-sphere positions, the one routing pass hands each shard exactly the
// records the per-agent filter used to keep, in order, and a file goes to a
// shard only if that shard keeps an object of it or is its home.  (Object ids
// stay unique and every child's object is in its file: those are the cases
// where the old filter was wrong.)
func TestRouteMatchesFilterOracle(t *testing.T) {
	files := catalog.GenerateNight(catalog.NightSpec{TotalMB: 3, Files: 6, RowsPerMB: 2000, Seed: 13})
	l := objLayout()
	objects := 0
	for _, f := range files {
		for _, rec := range f.Records {
			if rec.Tag != catalog.TagOBJ {
				continue
			}
			switch objects++; objects % 23 {
			case 0:
				rec.Fields[l.raIdx] = ""
			case 1:
				rec.Fields[l.decIdx] = "N/A"
			case 2:
				rec.Fields[l.raIdx] = "400.0"
			}
		}
	}
	for _, n := range []int{1, 3, 7} {
		pm, err := PartitionFromFiles(files, n)
		if err != nil {
			t.Fatal(err)
		}
		dir := new(directory).clone()
		for _, f := range files {
			route, targets := routeFile(pm, dir, f)
			home := pm.Owner(fileCenterTrixel(f))
			var wantTargets []int
			for s := 0; s < n; s++ {
				want := filterRecords(f.Records, pm.Range(s), s == home)
				objects := 0
				for _, rec := range want {
					if rec.Tag == catalog.TagOBJ {
						objects++
					}
				}
				if objects > 0 || s == home {
					wantTargets = append(wantTargets, s)
				}
				if got := routed(f, route, s); !reflect.DeepEqual(got, want) {
					t.Fatalf("n=%d %s shard %d: routed %d records, oracle keeps %d", n, f.Name, s, len(got), len(want))
				}
			}
			if !reflect.DeepEqual(targets, wantTargets) {
				t.Fatalf("n=%d %s: targets %v, oracle %v", n, f.Name, targets, wantTargets)
			}
		}
	}
}

// countingClient counts, at the transport, the lines the coordinator sends
// a shard and the rows the shard accounts for in its replies.
type countingClient struct {
	Client
	mu                     sync.Mutex
	lines, loaded, skipped int64
	objectTree             int64
}

func (c *countingClient) Call(w exec.Worker, m wire.Msg) (wire.Msg, error) {
	reply, err := c.Client.Call(w, m)
	task, ok := m.(wire.LoadTask)
	if !ok || err != nil {
		return reply, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lines += int64(len(task.Lines))
	for _, line := range task.Lines {
		tag := catalog.Tag(line[:strings.Index(line, catalog.FieldSep)])
		if tag == catalog.TagOBJ || childTag(tag) {
			c.objectTree++
		}
	}
	if res, ok := reply.(wire.LoadResult); ok {
		c.loaded += res.RowsLoaded
		c.skipped += res.RowsSkipped
	}
	return reply, nil
}

// countingFleet is buildFleet with a countingClient in front of every agent.
func countingFleet(t testing.TB, files []*catalog.File, n int) (*Coordinator, []*countingClient, LoadReport) {
	t.Helper()
	co, _, inline := startFleet(t, files, n, false)
	counters := make([]*countingClient, n)
	for s := range counters {
		counters[s] = &countingClient{Client: co.clients[s]}
		co.clients[s] = counters[s]
	}
	var rep LoadReport
	var err error
	inline.RunInline("fleet-load", func(w exec.Worker) { rep, err = co.LoadFiles(w, files) })
	if err != nil {
		t.Fatal(err)
	}
	return co, counters, rep
}

// TestEachRecordCrossesOnce: an object-tree record is sent to exactly one
// shard and a reference record to each shard its file goes to; and what a
// shard is sent it accounts for — rows loaded plus rows skipped, the loader's
// own count, summing to LoadReport's — as skyperf checks one node's load.
func TestEachRecordCrossesOnce(t *testing.T) {
	files := catalog.GenerateNight(catalog.NightSpec{TotalMB: 3, Files: 6, RowsPerMB: 200, Seed: 13, ErrorRate: 0.02})
	co, counters, rep := countingFleet(t, files, 3)
	defer co.Close()

	var wantLines, objectTree int64
	dir := new(directory).clone()
	for _, f := range files {
		_, targets := routeFile(co.pm, dir, f)
		for _, rec := range f.Records {
			if rec.Tag == catalog.TagOBJ || childTag(rec.Tag) {
				objectTree++
				wantLines++
			} else {
				wantLines += int64(len(targets))
			}
		}
	}
	var lines, sentTree, loaded, skipped int64
	for s, c := range counters {
		if c.lines != c.loaded+c.skipped {
			t.Errorf("shard %d: sent %d lines, accounts for %d loaded + %d skipped", s, c.lines, c.loaded, c.skipped)
		}
		lines += c.lines
		sentTree += c.objectTree
		loaded += c.loaded
		skipped += c.skipped
	}
	if lines != wantLines {
		t.Errorf("%d lines crossed the transport, want %d (object-tree records once, reference records once per target)", lines, wantLines)
	}
	if sentTree != objectTree {
		t.Errorf("%d object-tree records sent, the night parses to %d", sentTree, objectTree)
	}
	if rep.RowsLoaded != loaded || rep.RowsSkipped != skipped {
		t.Errorf("LoadReport %d loaded / %d skipped, replies sum to %d / %d", rep.RowsLoaded, rep.RowsSkipped, loaded, skipped)
	}
	if skipped == 0 {
		t.Error("no row was skipped on a night with a 2% error rate; the skip accounting was not exercised")
	}
}

// TestPlacementVerifiedAtAgents: the agent no longer decides what it keeps,
// so placement is checked where the rows are — every stored object's htmid
// lies in its agent's range (a row without one is an unresolvable position
// its file's home shard was sent) and every child row's object is on the
// same agent.
func TestPlacementVerifiedAtAgents(t *testing.T) {
	files := catalog.GenerateNight(catalog.NightSpec{TotalMB: 3, Files: 6, RowsPerMB: 200, Seed: 13, ErrorRate: 0.02})
	co, agents, _ := buildFleet(t, files, 3, false)
	defer co.Close()
	ts := catalog.NewSchema().Table(catalog.TObjects)
	htmCol := ts.ColumnIndex("htmid")
	var objects int
	for s, a := range agents {
		rng := co.pm.Range(s)
		err := a.DB().Scan(catalog.TObjects, func(r relstore.Row) bool {
			objects++
			if v := r[htmCol]; v.Kind != relstore.KindNull && (v.I < rng.Lo || v.I > rng.Hi) {
				t.Errorf("agent %d stores object %v with htmid %d outside its range %+v", s, r[0], v.I, rng)
			}
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if orphans, err := a.DB().VerifyIntegrity(); err != nil || orphans != 0 {
			t.Errorf("agent %d: %d orphan rows (%v)", s, orphans, err)
		}
	}
	if objects == 0 {
		t.Fatal("no objects stored; the placement check proved nothing")
	}
}

// objectTreeTables are the tables partitioned across shards (everything else
// is replicated to each shard a file reaches).
var objectTreeTables = []string{
	catalog.TObjects, catalog.TObjectFingers, catalog.TObjectApertures, catalog.TObjectShapes, catalog.TObjectFlags,
}

// TestChildFollowsObjectOfEarlierFile: a finger whose object arrived in an
// earlier file is loaded by a single node; the fleet must send it to that
// object's shard (the directory knows it) rather than drop it on every shard.
func TestChildFollowsObjectOfEarlierFile(t *testing.T) {
	files := catalog.GenerateNight(catalog.NightSpec{TotalMB: 2, Files: 2, RowsPerMB: 150, Seed: 11})
	pm, err := PartitionFromFiles(files, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Move one finger of file 0 to the end of file 1, choosing an object that
	// lives off file 1's home shard so "send it home" would also be wrong.
	l := objLayout()
	home1 := pm.Owner(fileCenterTrixel(files[1]))
	owners := map[string]int{}
	for _, rec := range files[0].Records {
		if rec.Tag == catalog.TagOBJ {
			if trixel, ok := objectTrixel(rec); ok {
				owners[rec.Fields[l.idIdx]] = pm.Owner(trixel)
			}
		}
	}
	moved := -1
	for i, rec := range files[0].Records {
		if s, ok := owners[rec.Fields[l.childIdx]]; rec.Tag == catalog.TagFNG && ok && s != home1 {
			moved = i
			break
		}
	}
	if moved < 0 {
		t.Fatal("no finger of file 0 belongs off file 1's home shard")
	}
	finger := files[0].Records[moved]
	first := *files[0]
	first.Records = append(append([]catalog.Record(nil), files[0].Records[:moved]...), files[0].Records[moved+1:]...)
	second := *files[1]
	second.Records = append(append([]catalog.Record(nil), files[1].Records...), finger)
	night := []*catalog.File{&first, &second}

	oracle := buildOracle(t, night, tuning.ProductionLoading())
	co, agents, _ := buildFleet(t, night, 3, false)
	defer co.Close()
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
	for s, a := range agents {
		if orphans, err := a.DB().VerifyIntegrity(); err != nil || orphans != 0 {
			t.Errorf("agent %d: %d orphan rows (%v)", s, orphans, err)
		}
	}
}
