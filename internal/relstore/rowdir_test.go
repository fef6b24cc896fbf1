package relstore

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"skyloader/internal/frame"
)

// The row directory is tested against an oracle that stores one location per
// id: a map[int64]rowLoc of every id a run should cover, and the set of those
// whose rows a rollback removed.  A stream of operations drives one table
// (heap, directory, primary key) through the calls the engine makes — a
// transaction's Insert, rollback's deleteRow, replay at explicit ids — and
// every answer must agree.

// runRowDirOps runs the operations data spells and fails the test on the
// first disagreement.
func runRowDirOps(t testing.TB, data []byte) {
	db := MustOpen(keyOracleSchema(t))
	tbl := db.Table("t")
	txn, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	cols := []string{"a", "b", "s", "n", "f"}
	covered := map[int64]rowLoc{}
	dead := map[int64]bool{}
	pk := map[int64]int64{} // row id -> the primary key stored under it
	var sc scratch
	nextPK := int64(0)
	row := func() Row {
		nextPK++
		// The string pads rows to a few per page, so runs close often.
		return Row{Int(nextPK), Int(0), Str(string(make([]byte, 1500))), Null, Null}
	}
	lastLoc := func() rowLoc {
		p := len(tbl.heap.pages) - 1
		return rowLoc{page: uint32(p), slot: uint32(tbl.heap.pages[p].rows() - 1)}
	}
	check := func(id int64) {
		loc, ok := tbl.rows.get(id)
		want, wantOK := covered[id]
		if ok != wantOK || (ok && loc != want) {
			t.Fatalf("get(%d) = %+v, %v; oracle says %+v, %v", id, loc, ok, want, wantOK)
		}
		v, live := tbl.viewLocked(id)
		if live != (wantOK && !dead[id]) {
			t.Fatalf("row %d live = %v; oracle says covered %v, dead %v", id, live, wantOK, dead[id])
		}
		if live && v.Int(0) != pk[id] {
			t.Fatalf("row %d holds key %d, want %d", id, v.Int(0), pk[id])
		}
	}
	o := &opStream{data: data}
	for !o.done() {
		switch op := o.next(10); {
		case op < 3: // the insert path: the next ids in sequence
			for n := 1 + o.next(12); n > 0; n-- {
				r, id := row(), tbl.nextRow
				if _, err := txn.Insert("t", cols, r); err != nil {
					t.Fatal(err)
				}
				covered[id], pk[id] = lastLoc(), r[0].I
			}
		case op < 5: // replay at explicit ids: ahead across a gap, or behind
			id := tbl.nextRow + int64(o.next(40))
			if o.next(2) == 0 && tbl.nextRow > 0 {
				id = int64(o.next(int(min(tbl.nextRow, 1<<15))))
			}
			for n := 1 + o.next(3); n > 0; n, id = n-1, id+1 {
				r := row()
				_, taken := covered[id]
				err := tbl.storeRun(id, []Row{r})
				if taken != errors.Is(err, ErrWALCorrupt) || (!taken && err != nil) {
					t.Fatalf("replay at %d (covered %v): %v", id, taken, err)
				}
				if !taken {
					covered[id], pk[id] = lastLoc(), r[0].I
				}
			}
		case op < 7: // rollback of a stored row
			if tbl.nextRow == 0 {
				continue
			}
			id := int64(o.next(int(min(tbl.nextRow, 1<<15))))
			tbl.deleteRow(&sc, id)
			if _, ok := covered[id]; ok {
				dead[id] = true
			}
			check(id)
		case op < 9: // get
			check(int64(o.next(int(min(tbl.nextRow+50, 1<<15)))))
		default: // scan by id
			var want, got []int64
			for id := range covered {
				if !dead[id] {
					want = append(want, id)
				}
			}
			slices.Sort(want)
			tbl.scanRowsByID(func(id int64, v RowView) {
				if v.Int(0) != pk[id] {
					t.Fatalf("scan: row %d holds key %d, want %d", id, v.Int(0), pk[id])
				}
				got = append(got, id)
			})
			if !slices.Equal(got, want) {
				t.Fatalf("scan visits %d ids, oracle holds %d live", len(got), len(want))
			}
		}
	}

	// The directory is well formed — runs sorted, disjoint, non-empty, each
	// within one page — and agrees with the oracle on every id.
	end, ids := int64(0), 0
	for i, r := range tbl.rows.runs {
		if r.n == 0 || int64(r.first) < end {
			t.Fatalf("run %d %+v is empty or starts below %d", i, r, end)
		}
		if n := tbl.heap.pages[r.page].rows(); int(r.slot+r.n) > n {
			t.Fatalf("run %d %+v runs off its page's %d slots", i, r, n)
		}
		end = int64(r.first) + int64(r.n)
		ids += int(r.n)
	}
	if ids != len(covered) || int64(len(covered)-len(dead)) != tbl.heap.rowCount {
		t.Fatalf("runs cover %d ids, oracle %d; heap holds %d rows, oracle %d live", ids, len(covered), tbl.heap.rowCount, len(covered)-len(dead))
	}
	for id := range covered {
		check(id)
	}
}

// TestRowDirMatchesOracle runs seeded operation streams.
func TestRowDirMatchesOracle(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		data := make([]byte, 1<<13)
		rand.New(rand.NewSource(seed)).Read(data)
		runRowDirOps(t, data)
	}
}

// FuzzRowDirOps is the same harness over fuzzer-chosen operation streams; the
// seed corpus (testdata/fuzz/FuzzRowDirOps) holds random streams and one that
// spells replay across a gap, behind it, and at a rolled-back row's id.
func FuzzRowDirOps(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) { runRowDirOps(t, data) })
}

// dirTries puts runs of the given lengths, id after id and one page each,
// into a directory and returns it with the mean and the largest number of
// runs find tries over every id.
func dirTries(t *testing.T, lengths ...int) (d *rowDir, mean float64, most int) {
	d = &rowDir{}
	id, sum := int64(0), 0
	for page, n := range lengths {
		for slot := 0; slot < n; slot, id = slot+1, id+1 {
			d.put(id, rowLoc{page: uint32(page), slot: uint32(slot)})
		}
	}
	if len(d.runs) != len(lengths) {
		t.Fatalf("%d runs for %d pages", len(d.runs), len(lengths))
	}
	for q := int64(0); q < id; q++ {
		i, ok, tries := d.find(q)
		if r := d.runs[max(i, 0)]; !ok || q < int64(r.first) || q >= int64(r.first+r.n) {
			t.Fatalf("find(%d) = run %d, %v", q, i, ok)
		}
		sum, most = sum+tries, max(most, tries)
	}
	return d, float64(sum) / float64(id), most
}

// TestRowDirUnlikeRuns pins what find costs when the runs are not equally
// long — counted in runs tried, each a division and two compares.  Full pages
// beside the short runs a log with records out of id order replays into (see
// storeRun) is the worst a recovered database gets (records logged in
// id order replay a run a page); past that the halving bounds the tries.
func TestRowDirUnlikeRuns(t *testing.T) {
	repeat := func(times int, lengths ...int) (out []int) {
		for ; times > 0; times-- {
			out = append(out, lengths...)
		}
		return out
	}
	for _, c := range []struct {
		name    string
		lengths []int
		mean    float64
		most    int
	}{
		{"a load: a page a run", repeat(1600, 170), 1.05, 1},
		{"pages of a few widths", repeat(400, 150, 170, 200, 160), 1.2, 2},
		{"checkpoint pages, then a log of short runs", append(repeat(1000, 170), repeat(2000, 20)...), 2.6, 3},
		{"short runs, then pages", append(repeat(3000, 3), repeat(500, 170)...), 2.9, 3},
		{"lengths doubling", []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768}, 3.2, 7},
	} {
		_, mean, most := dirTries(t, c.lengths...)
		t.Logf("%s: %.2f runs tried per find, at most %d", c.name, mean, most)
		if mean > c.mean || most > c.most {
			t.Errorf("%s: %.2f runs tried per find and at most %d, ceilings %.1f and %d", c.name, mean, most, c.mean, c.most)
		}
	}
}

// TestRowDirBunchedIDs: a directory whose ids are bunched — a thousand runs
// at the bottom of the id space and one far above — defeats the scaled try,
// and find halves its way in; every id still resolves.
func TestRowDirBunchedIDs(t *testing.T) {
	var d rowDir
	for i := int64(0); i < 1000; i++ {
		d.put(i*3, rowLoc{page: uint32(i), slot: 0})
	}
	d.put(4_000_000_000, rowLoc{page: 1000})
	for i := int64(0); i < 1000; i++ {
		if _, _, tries := d.find(i * 3); tries > 3+2*10 {
			t.Fatalf("find(%d) tried %d runs of 1001", i*3, tries)
		}
	}
	for i := int64(0); i < 1000; i++ {
		if loc, ok := d.get(i * 3); !ok || loc.page != uint32(i) {
			t.Fatalf("get(%d) = %+v, %v", i*3, loc, ok)
		}
		if _, ok := d.get(i*3 + 1); ok {
			t.Fatalf("get(%d) found an id in a gap", i*3+1)
		}
	}
	if loc, ok := d.get(4_000_000_000); !ok || loc.page != 1000 {
		t.Fatalf("get(4e9) = %+v, %v", loc, ok)
	}
	for _, id := range []int64{-1, 2999, 3_999_999_999, 4_000_000_001, 1 << 40} {
		if _, ok := d.get(id); ok {
			t.Fatalf("get(%d) found an uncovered id", id)
		}
	}
}

// TestRowDirDescendingReplay: records stored each behind the one before — the
// order that makes every put move every run — still leave a directory that
// resolves every id; the cost is what storeRun's comment says it is.
func TestRowDirDescendingReplay(t *testing.T) {
	const n = 20_000
	var d rowDir
	for id := int64(n - 1); id >= 0; id-- {
		d.put(id*2, rowLoc{page: uint32(id / 100), slot: uint32(n - 1 - id)})
	}
	if len(d.runs) != n {
		t.Fatalf("%d runs for %d ids stored in descending order", len(d.runs), n)
	}
	for id := int64(0); id < n; id++ {
		if loc, ok := d.get(id * 2); !ok || loc.slot != uint32(n-1-id) {
			t.Fatalf("get(%d) = %+v, %v", id*2, loc, ok)
		}
		if _, ok := d.get(id*2 + 1); ok {
			t.Fatalf("get(%d) found an id in a gap", id*2+1)
		}
	}
}

// TestReplaySparseRowIDs: a CRC-valid log whose insert records carry ids 0
// and 4,000,000,000 of one table recovers both rows — the id gap costs the
// directory nothing, where one tombstone per missing id asked for 32 GiB —
// and the next insert takes id 4,000,000,001.
func TestReplaySparseRowIDs(t *testing.T) {
	const far = 4_000_000_000
	dir := t.TempDir()
	var seg []byte
	for lsn, id := range []int64{0, far} {
		rec, _ := appendWALInsertBounded(nil, int64(lsn), 0, 1, id, []Row{{Int(id + 1), Float(145)}})
		seg = frame.Append(seg, rec)
	}
	seg = frame.Append(seg, appendWALMarker(nil, walRecCommit, 2, 1))
	if err := os.WriteFile(filepath.Join(dir, walSegName(0)), seg, 0o644); err != nil {
		t.Fatal(err)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	db, rep, err := Recover(testSchema(t), dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	runtime.ReadMemStats(&after)
	if rep.ReplayedRows != 2 {
		t.Fatalf("replayed %d rows, want 2", rep.ReplayedRows)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 16<<20 {
		t.Fatalf("recovering two rows allocated %d bytes", grew)
	}
	for _, id := range []int64{0, far} {
		row, err := db.LookupByPK("frames", []Value{Int(id + 1)})
		if err != nil || row[0].I != id+1 {
			t.Fatalf("frame %d after recovery: %v, %v", id+1, row, err)
		}
	}
	txn, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	insertFrame(t, txn, 7)
	if _, err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	frames := db.Table("frames")
	frames.mu.RLock()
	v, ok := frames.viewLocked(far + 1)
	took := ok && v.Int(0) == 7
	frames.mu.RUnlock()
	if !took {
		t.Fatalf("the insert after recovery did not take row id %d", int64(far+1))
	}
	for _, ts := range db.StatsSnapshot().Tables {
		if ts.Name == "frames" && (ts.RowDirBytes >= 1<<20 || ts.RowDirRuns != 2) {
			t.Fatalf("directory of three rows: %d bytes in %d runs", ts.RowDirBytes, ts.RowDirRuns)
		}
	}
	if err := db.VerifyPrimaryKeys(); err != nil {
		t.Fatal(err)
	}
}

// TestReplayRefusesSpentRowID pins the decision for an id a run covers but
// whose slot is dead: it is a duplicate.  The engine never hands a row id out
// twice, a rolled-back row's records are never replayed, and the log of one
// recovery starts from an empty table — so a log that stores a row under a
// spent id is not one this engine wrote.
func TestReplayRefusesSpentRowID(t *testing.T) {
	db := newTestDB(t)
	txn, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for id := int64(1); id <= 3; id++ {
		insertFrame(t, txn, id)
	}
	if err := txn.Rollback(); err != nil {
		t.Fatal(err)
	}
	frames := db.Table("frames")
	if err := frames.storeRun(1, []Row{{Int(9), Float(1)}}); !errors.Is(err, ErrWALCorrupt) {
		t.Fatalf("replay at a rolled-back row's id: %v, want ErrWALCorrupt", err)
	}
	if err := frames.storeRun(3, []Row{{Int(9), Float(1)}}); err != nil {
		t.Fatalf("replay at the next free id: %v", err)
	}
	if n := frames.RowCount(); n != 1 {
		t.Fatalf("%d rows, want 1", n)
	}
}
