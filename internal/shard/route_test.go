package shard

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
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

func (c *countingClient) Call(w exec.Worker, req []byte) (wire.Msg, error) {
	reply, err := c.Client.Call(w, req)
	m, _, decErr := wire.Decode(req)
	task, ok := m.(wire.LoadTask)
	if !ok || err != nil || decErr != nil {
		return reply, errors.Join(err, decErr)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, line := range strings.SplitAfter(task.Text, "\n") {
		if line == "" {
			continue
		}
		c.lines++
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

// TestLoadTaskAccountsForEveryLine: a block is catalog text, and an agent
// reads it as one node reads a file.  A corrupted file with blank lines,
// comments, lines a field short, lines of no known tag, CRLF endings and no
// final newline goes to a one-agent fleet as one task, through the codec: the
// agent loads the rows and skips the lines that catalog.ReadRecords plus one
// loader do on the same bytes, table by table, and rows loaded plus rows
// skipped is every line of the block.
func TestLoadTaskAccountsForEveryLine(t *testing.T) {
	file := catalog.Generate(catalog.GenSpec{Name: "damaged.cat", SizeMB: 20, Seed: 17, ErrorRate: 0.02, RunID: 1, IDBase: 1000})
	var buf bytes.Buffer
	if _, err := file.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(buf.String(), "\n")
	noRecord := 1 // the header comment
	for j := 3; j < len(lines)-1; j += 29 {
		switch j % 5 {
		case 0:
			lines[j] = "\n"
		case 1:
			lines[j] = "# " + lines[j]
		case 2:
			lines[j] = strings.Replace(lines[j], catalog.FieldSep, "", 1)
		case 3:
			lines[j] = strings.TrimSuffix(lines[j], "\n") + "\r\n"
			continue
		case 4:
			lines[j] = "ZZZ|" + lines[j]
		}
		noRecord++
	}
	text := strings.TrimSuffix(strings.Join(lines, ""), "\n")
	total := strings.Count(text, "\n") + 1

	recs, errs := catalog.ReadRecords(strings.NewReader(text))
	if total-len(recs) != noRecord || len(errs) == 0 || len(errs) >= noRecord {
		t.Fatalf("%d lines, %d records, %d parse errors; %d lines were made no record", total, len(recs), len(errs), noRecord)
	}
	one := *file
	one.Records = recs
	oracle, want := loadOracle(t, []*catalog.File{&one}, tuning.ProductionLoading())
	if want.ParseErrors == 0 || want.RowsSkipped == 0 {
		t.Fatalf("the single node had %d transform errors and %d rejected rows; the file exercises nothing", want.ParseErrors, want.RowsSkipped)
	}

	co, agents, inline := startFleet(t, []*catalog.File{&one}, 1, false)
	defer co.Close()
	task := wire.LoadTask{TaskID: 1, Name: one.Name, RABase: one.RABase, DecBase: one.DecBase, NominalBytes: one.NominalBytes, Text: text}
	var reply wire.Msg
	var err error
	inline.RunInline("task", func(w exec.Worker) { reply, err = co.clients[0].Call(w, wire.Append(nil, task)) })
	res, ok := reply.(wire.LoadResult)
	if err != nil || !ok || res.Err != "" {
		t.Fatalf("load task: %v, reply %#v", err, reply)
	}
	if res.RowsLoaded != int64(want.RowsLoaded) || res.RowsSkipped != int64(noRecord+want.ParseErrors+want.RowsSkipped) {
		t.Errorf("agent loaded %d and skipped %d; one node loaded %d and skipped %d lines that are no record, %d it could not transform and %d the database rejected",
			res.RowsLoaded, res.RowsSkipped, want.RowsLoaded, noRecord, want.ParseErrors, want.RowsSkipped)
	}
	if res.RowsLoaded+res.RowsSkipped != int64(total) {
		t.Errorf("%d loaded + %d skipped, the block has %d lines", res.RowsLoaded, res.RowsSkipped, total)
	}
	for _, table := range catalog.CatalogTables() {
		got, _ := agents[0].DB().Count(table)
		if n, _ := oracle.Count(table); got != n {
			t.Errorf("%s: agent holds %d rows, single node %d", table, got, n)
		}
	}
}

// TestOversizedShareFailsAtTheCoordinator: a share is one frame, and a frame
// holds frame.MaxPayload bytes.  A file whose share is larger fails LoadFiles
// with an error that names the shard, the file and the limit, before a byte
// of it is built or sent — not as a corrupt frame on the agent's side of the
// socket.  (The 68 MiB here are seventeen records sharing one 4 MiB field.)
func TestOversizedShareFailsAtTheCoordinator(t *testing.T) {
	files := catalog.GenerateNight(catalog.NightSpec{TotalMB: 1, Files: 1, RowsPerMB: 100, Seed: 3})
	f := *files[0]
	f.Records = append([]catalog.Record(nil), f.Records...)
	big := strings.Repeat("x", 4<<20)
	for i := 0; i < 17; i++ {
		f.Records = append(f.Records, catalog.Record{Tag: catalog.TagPRM, Fields: []string{"1", "2", "name", big}})
	}
	co, agents, inline := startFleet(t, []*catalog.File{&f}, 2, false)
	defer co.Close()
	sent := co.Snapshot().BytesSent
	var err error
	inline.RunInline("fleet-load", func(w exec.Worker) { _, err = co.LoadFiles(w, []*catalog.File{&f}) })
	if err == nil || !strings.Contains(err.Error(), f.Name) || !strings.Contains(err.Error(), "frame limit") {
		t.Fatalf("LoadFiles of a 68 MiB share: %v; want an error naming %s and the frame limit", err, f.Name)
	}
	if n := co.Snapshot().BytesSent - sent; n != 0 {
		t.Errorf("%d bytes were sent before the load failed", n)
	}
	for s, a := range agents {
		if n, _ := a.DB().Count(catalog.TObservations); n != 0 {
			t.Errorf("agent %d loaded %d observations of a file that could not be sent", s, n)
		}
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

var captureWireSeeds = flag.Bool("capture-wire-seeds", false, "rewrite wire's FuzzWireDecode seed corpus from a real fleet's frames")

// capturingClient keeps every frame that crosses it, requests as sent and
// replies re-encoded.
type capturingClient struct {
	Client
	mu     sync.Mutex
	frames *[][]byte
}

func (c *capturingClient) Call(w exec.Worker, req []byte) (wire.Msg, error) {
	reply, err := c.Client.Call(w, req)
	c.mu.Lock()
	defer c.mu.Unlock()
	*c.frames = append(*c.frames, append([]byte(nil), req...))
	if err == nil {
		*c.frames = append(*c.frames, wire.Append(nil, reply))
	}
	return reply, err
}

// TestCaptureWireSeeds regenerates internal/shard/wire/testdata/fuzz/
// FuzzWireDecode from what a small deferred-index fleet really sends: run it
// with -capture-wire-seeds after changing a message's layout.  The first
// frame of each message type (each kind, for queries and their results) is
// kept, and load tasks from two shards.
func TestCaptureWireSeeds(t *testing.T) {
	if !*captureWireSeeds {
		t.Skip("run with -capture-wire-seeds to rewrite the corpus")
	}
	files := catalog.GenerateNight(catalog.NightSpec{TotalMB: 0.6, Files: 2, RowsPerMB: 60, Seed: 13})
	co, _, inline := startFleet(t, files, 2, true)
	defer co.Close()
	var frames [][]byte
	for s := range co.clients {
		co.clients[s] = &capturingClient{Client: co.clients[s], frames: &frames}
	}
	inline.RunInline("capture", func(w exec.Worker) {
		if err := co.Hello(w); err != nil {
			t.Error(err)
		}
		if _, err := co.LoadFiles(w, files); err != nil {
			t.Error(err)
		}
		for _, q := range testQueries(files, 4) {
			if _, err := co.Execute(w, q, nil); err != nil {
				t.Error(err)
			}
		}
		co.Ready(w)
	})
	dir := filepath.Join("wire", "testdata", "fuzz", "FuzzWireDecode")
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	kept := map[string]int{}
	for _, frame := range frames {
		m, _, err := wire.Decode(frame)
		if err != nil {
			t.Fatal(err)
		}
		name, most := "real-"+strings.ToLower(strings.TrimPrefix(fmt.Sprintf("%T", m), "wire.")), 1
		switch m := m.(type) {
		case wire.LoadTask:
			if m.Seal {
				name += "-seal"
			} else {
				most = 2
			}
		case wire.Query:
			name += fmt.Sprintf("-kind%d", m.Kind)
		case wire.QueryResult:
			name += fmt.Sprintf("-%dobjects-%dbins", min(len(m.Objects), 1), min(len(m.Bins), 1))
		}
		if kept[name]++; kept[name] > most {
			continue
		}
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", frame)
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-%d", name, kept[name])), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
