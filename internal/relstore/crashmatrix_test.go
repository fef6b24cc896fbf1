package relstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// The crash matrix: a Go table of loads, each swept by every crash the table
// names, on the memory disk (memfs_test.go).  A load is one or two
// miniLoaders — committed transactions, rollbacks and a batch with a rejected
// row, in a seeded order — over 8 KiB segments, committing inline or
// pipelined, with or without automatic checkpoints.  A crash is
//
//   - a power loss: the disk is cut as its n-th operation starts, for every
//     n, and each tail shape gives one disk; the load runs on to the end;
//   - a process kill: the n-th FPWALAppend or FPWALSync panics, for every n,
//     and the disk keeps every written byte (the pipelined loads without
//     checkpoints are killed in TestCrashMatrixPipelined, one subtest per
//     point);
//   - a power loss inside the recovery of each power-loss disk, between the
//     truncation of its torn tail and the Sync that makes it durable.
//
// After each crash the disk is recovered on a fresh memFS and must hold every
// commit acknowledged before the crash, each transaction whole or absent, each
// loader's transactions a prefix of its commit order, no rolled-back or
// rejected row, and pass VerifyIntegrity and VerifyPrimaryKeys; a power loss
// right after that recovery must recover again with no torn tail to the same
// state.  An uncrashed one-loader load writes the log the running system's
// file system gets, byte for byte.

// crashKinds is a set of the crashes a row is swept by.
type crashKinds int

const (
	powerLoss crashKinds = 1 << iota
	processKill
	recoveryCut
)

// crashRow is one row of the matrix.
type crashRow struct {
	pipelined bool
	ckptEvery int64 // WithCheckpointEvery; 0: no checkpoints
	loaders   int
	crashes   crashKinds
}

func (r crashRow) String() string {
	commit := "inline"
	if r.pipelined {
		commit = "pipelined"
	}
	s := fmt.Sprintf("%s/ckpt=%d/loaders=%d", commit, r.ckptEvery, r.loaders)
	if r.crashes&recoveryCut != 0 {
		s += "/recovery-cut"
	}
	return s
}

// crashMatrix: every load is swept by power loss and process kill; two also
// cut the power inside the recovery.  The kills of the pipelined loads
// without checkpoints are TestCrashMatrixPipelined's.
var crashMatrix = func() []crashRow {
	var rows []crashRow
	for _, pipelined := range []bool{false, true} {
		for _, ckpt := range []int64{0, 6 << 10} {
			for _, loaders := range []int{1, 2} {
				kinds := powerLoss | processKill
				if pipelined && ckpt == 0 {
					kinds = powerLoss
				}
				rows = append(rows, crashRow{pipelined, ckpt, loaders, kinds})
			}
		}
	}
	return append(rows,
		crashRow{false, 0, 1, recoveryCut},
		crashRow{true, 6 << 10, 2, recoveryCut})
}()

// crashCells counts what the matrix ran: disks recovered, and per tail shape
// the recoveries that found a torn tail.
type crashCells struct {
	cells int
	torn  [tailShapes]int
}

// crashMatrixRuns and crashPipelinedRuns count the runs of TestCrashMatrix
// and TestCrashMatrixPipelined in this process.
var crashMatrixRuns, crashPipelinedRuns int64

// sweepPoints returns the first crash point and the step of a sweep.  Under
// -race a sweep takes every third crash point, from where the last run left
// off, so -count=3 covers every one.
func sweepPoints(runs *int64) (first, step int64) {
	first, step = 1, 1
	if raceEnabled {
		first, step = 1+*runs%3, 3
	}
	*runs++
	return first, step
}

func TestCrashMatrix(t *testing.T) {
	first, step := sweepPoints(&crashMatrixRuns)
	var total crashCells
	for i, row := range crashMatrix {
		t.Run(row.String(), func(t *testing.T) {
			c := row.sweep(t, int64(i+1), first, step)
			t.Logf("%d cells, torn tails by shape %v", c.cells, c.torn)
			total.cells += c.cells
			for s := range c.torn {
				total.torn[s] += c.torn[s]
			}
		})
	}
	t.Logf("%d rows, %d (row, crash point, tail shape) cells", len(crashMatrix), total.cells)
	for s := tailCut; s < tailShapes && !t.Failed(); s++ {
		if total.torn[s] == 0 {
			t.Errorf("no recovery met a torn tail of shape %s", s)
		}
	}
}

// load runs the row's loaders on disk to their end or their kill and returns
// them; a load that must finish is closed.
func (r crashRow) load(t *testing.T, seed int64, disk logFS, mustFinish bool, opts ...Option) []*miniLoader {
	t.Helper()
	dir := memWALDir
	if _, onDisk := disk.(osFS); onDisk {
		dir = t.TempDir()
	}
	opts = append([]Option{WithWALDir(dir), withFS(disk), WithWALSegmentBytes(8 << 10), WithCheckpointEvery(r.ckptEvery)}, opts...)
	db, err := Open(testSchema(t), opts...)
	if err != nil {
		t.Fatal(err)
	}
	loaders := make([]*miniLoader, r.loaders)
	for w := range loaders {
		plan := []txnKind{txnCommit, txnCommit, txnRejected, txnRollback, txnCommit, txnCommit}
		rng := rand.New(rand.NewSource(seed*10 + int64(w)))
		rng.Shuffle(len(plan), func(i, j int) { plan[i], plan[j] = plan[j], plan[i] })
		loaders[w] = &miniLoader{db: db, w: w, txns: len(plan), batches: 3, rowsPB: 40, pipelined: r.pipelined, plan: plan}
		loaders[w].disk, _ = disk.(*memFS)
	}
	errs := runLoaders(loaders)
	if mustFinish {
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return loaders
}

// sweep runs the row's crashes at points first, first+step, ...
func (r crashRow) sweep(t *testing.T, seed, first, step int64) (c crashCells) {
	if r.crashes&(powerLoss|recoveryCut) != 0 {
		for at := first; ; at += step {
			disk := newMemFS()
			disk.seed = seed*1000 + at
			disk.cutAt = func(op memOp) bool { return op.n == at }
			loaders := r.load(t, seed, disk, true)
			if disk.lost == nil {
				// The load ended before operation at: it is the uncrashed run.
				r.uncrashed(t, seed, loaders, disk)
				break
			}
			for shape, img := range disk.lost {
				cell := fmt.Sprintf("power loss at op %d, tail %s", at, tailShape(shape))
				if r.crashes&recoveryCut != 0 {
					c.cells += cutRecovery(t, cell, img.killed(), disk.seed)
				}
				if r.crashes&powerLoss != 0 {
					if r.check(t, cell, loaders, img, disk.seed) {
						c.torn[shape]++
					}
					c.cells++
				}
			}
		}
	}
	if r.crashes&processKill != 0 {
		for _, point := range []FaultPoint{FPWALAppend, FPWALSync} {
			c.cells += r.killSweep(t, seed, point, first, step)
		}
	}
	return c
}

// killSweep kills the row's load at its point's firings first, first+step,
// ... until the load finishes first, checks each kill's disk, and returns how
// many it checked.
func (r crashRow) killSweep(t *testing.T, seed int64, point FaultPoint, first, step int64) (cells int) {
	for at := first; ; at += step {
		disk := newMemFS()
		kill := &killSwitch{point: point, at: at, disk: disk}
		loaders := r.load(t, seed, disk, false, WithFaultHook(kill.hook))
		if kill.image == nil {
			if at < 5 {
				t.Fatalf("the load finished before kill point %s #%d", point, at)
			}
			return cells
		}
		r.check(t, fmt.Sprintf("kill at %s #%d", point, at), loaders, kill.image, seed)
		cells++
	}
}

// TestCrashMatrixPipelined kills one and two pipelined loaders, without
// checkpoints, at every n-th log append and every n-th fsync — most of the
// fsyncs run on a flush goroutine while their loader fills its next
// transaction — and checks each kill's disk as the matrix does.
func TestCrashMatrixPipelined(t *testing.T) {
	first, step := sweepPoints(&crashPipelinedRuns)
	for _, loaders := range []int{1, 2} {
		row := crashRow{pipelined: true, loaders: loaders, crashes: processKill}
		for _, point := range []FaultPoint{FPWALAppend, FPWALSync} {
			t.Run(fmt.Sprintf("loaders=%d/%s", loaders, point), func(t *testing.T) {
				t.Logf("%d cells", row.killSweep(t, int64(loaders), point, first, step))
			})
		}
	}
}

// check recovers img, the disk a crash left after img.opCount() operations,
// checks every invariant, and reports whether the recovery met a torn tail.
func (r crashRow) check(t *testing.T, cell string, loaders []*miniLoader, img *memFS, seed int64) (torn bool) {
	t.Helper()
	defer func() {
		if t.Failed() {
			t.Logf("cell: %s", cell)
		}
	}()
	crashOps := img.opCount()
	db, rep, err := Recover(testSchema(t), memWALDir, withFS(img))
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	frames, objects := 0, 0
	for _, l := range loaders {
		n := l.recoveredPrefix(t, db)
		for j, k := 0, 0; j < l.txns; j++ {
			if l.kind(j) == txnRollback {
				continue
			}
			if k < n {
				frames++
				objects += l.objects(j)
			} else if ack := l.acks[j]; ack > 0 && ack <= crashOps {
				t.Fatalf("loader %d: transaction %d, acknowledged after %d operations, lost", l.w, j, ack)
			}
			k++
		}
	}
	if f, o := db.Table("frames").RowCount(), db.Table("objects").RowCount(); f != int64(frames) || o != int64(objects) {
		t.Fatalf("recovered %d frames and %d objects, the whole transactions recovered hold %d and %d", f, o, frames, objects)
	}
	if orphans, err := db.VerifyIntegrity(); err != nil || orphans != 0 {
		t.Fatalf("orphans=%d err=%v", orphans, err)
	}
	if err := db.VerifyPrimaryKeys(); err != nil {
		t.Fatal(err)
	}
	if ws := db.WAL().Stats(); ws.ReplayTornTail != rep.TornTailRecords {
		t.Fatalf("ReplayTornTail = %d, the report says %d", ws.ReplayTornTail, rep.TornTailRecords)
	}
	again, rep2, err := Recover(testSchema(t), memWALDir, withFS(img.crash(seed, tailGarbage)))
	if err != nil {
		t.Fatalf("second recover, after a power loss: %v", err)
	}
	if rep2.TornTailRecords != 0 {
		t.Fatalf("second recovery met a torn tail: %+v", rep2)
	}
	assertSameState(t, db, again)
	return rep.TornTailRecords != 0
}

// cutRecovery recovers img with the power cut between the truncation of its
// torn tail and the Sync after it; every disk that cut leaves must recover
// to the state an uncut recovery of img reaches.  It returns how many disks
// it recovered (none when img has no tail to truncate).
func cutRecovery(t *testing.T, cell string, img *memFS, seed int64) int {
	t.Helper()
	truncated := false
	img.seed = seed
	img.cutAt = func(op memOp) bool {
		if truncated {
			return true
		}
		truncated = op.kind == "truncate"
		return false
	}
	want, _, err := Recover(testSchema(t), memWALDir, withFS(img.killed()))
	if err != nil {
		t.Fatalf("%s: recover: %v", cell, err)
	}
	if _, _, err := Recover(testSchema(t), memWALDir, withFS(img)); err != nil {
		t.Fatalf("%s: recover: %v", cell, err)
	}
	for shape, lost := range img.lost {
		got, _, err := Recover(testSchema(t), memWALDir, withFS(lost))
		if err != nil {
			t.Fatalf("%s, recovery cut after its truncate, tail %s: %v", cell, tailShape(shape), err)
		}
		assertSameState(t, want, got)
	}
	return len(img.lost)
}

// uncrashed checks the disk of a load that ran to its end: it recovers every
// committed transaction, and with one loader it holds the bytes the same load
// writes on the running system's file system.
func (r crashRow) uncrashed(t *testing.T, seed int64, loaders []*miniLoader, disk *memFS) {
	t.Helper()
	r.check(t, "uncrashed", loaders, disk.killed(), seed)
	for _, l := range loaders {
		if acked := int(l.retired.Load()); acked != l.txns-1 {
			t.Fatalf("loader %d: %d commits acknowledged, want %d", l.w, acked, l.txns-1)
		}
	}
	if r.loaders > 1 {
		return
	}
	onDisk := r.load(t, seed, osFS{}, true)
	want, got := logFiles(t, osFS{}, onDisk[0].db.cfg.WALDir), logFiles(t, disk, memWALDir)
	if len(got) != len(want) {
		t.Fatalf("the memory disk holds %d log files, the file system %d", len(got), len(want))
	}
	for name, w := range want {
		if !bytes.Equal(got[name], w) {
			t.Fatalf("log file %s differs between the memory disk and the file system", name)
		}
	}
}
