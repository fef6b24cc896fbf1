package relstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"sync"
	"sync/atomic"

	"skyloader/internal/frame"
)

// walDevice is the durable WAL: an append-only sequence of segmented log
// files under one directory, attached to a DB by WithWALDir — the byte
// stream Recover replays.
//
// The device is a three-stage pipeline, so that nobody who only wants to
// append a record ever waits for an fsync:
//
//  1. Encode.  logInsert/logMarker build their payloads in the calling
//     transaction's scratch, with no device lock held.
//  2. Append.  Under the append lock (mu) the device assigns the LSN, patches
//     it into the payload and frames the record onto the active buffer.
//     Rotation is decided here — same predicate, so same segment boundaries —
//     and recorded as a cut in the buffer.
//  3. Flush.  Under the flush lock (flushMu) a flusher swaps the active and
//     spare buffers (a short hold of mu), releases mu, then writes and fsyncs
//     what it took, executing the cuts on the way: write up to the cut,
//     fsync, close, open the next segment.  Appenders keep filling the other
//     buffer meanwhile.
//
// Lock order is flushMu, then mu; mu is a leaf and is never held across a
// Write, a Sync or a fault hook.
//
// Ownership rules (also documented in PERFORMANCE.md):
//
//   - The device owns every "wal-*.seg" and "checkpoint-*.ckpt" file in its
//     directory.  Exactly one DB may have the directory open at a time;
//     nothing else may write there.
//   - Appends buffer in memory; only flush — reached from commits and from
//     segment rotation, a checkpoint's included — writes buffered bytes to
//     the OS, and every write is fsynced before the flush lock is released.
//     A process kill therefore loses at most the records appended since the
//     last flush, which is exactly the durability contract commit
//     acknowledgement makes.
//   - Durability is an LSN prefix: durableLSN only grows, and a flush writes
//     the bytes it took in append order.
//   - The first Write, Sync or segment-open error poisons the device: it is
//     kept, every later append and flush returns it, and the failed fsync is
//     never retried over.  A flush that a fault hook's panic interrupts
//     poisons it the same way (the bytes it had taken are gone).
//   - Segments are immutable once rotated away from.  Only Recover may
//     truncate (a torn tail off the newest segment) and only a completed
//     checkpoint may delete (whole segments older than the checkpoint LSN).
type walDevice struct {
	fs           logFS
	dir          string
	segmentBytes int64
	fault        FaultHook

	// The append lock and what it guards.
	mu      sync.Mutex
	active  []byte   // framed records appended since the last flush took the buffer
	cuts    []segCut // rotations decided within active, ascending
	nextLSN int64
	// segBytes is the size of the newest segment counting active's bytes
	// after the last cut — what the rotation predicate compares.
	segBytes int64
	err      error // the poison: first I/O failure, sticky

	// Counters surfaced through WALStats.  The append-side ones are guarded by
	// mu; replay counters are written once by Recover before the DB is shared.
	appendedBytes   int64
	segmentsDeleted int64
	checkpoints     int64
	bytesSinceCkpt  int64
	replayRecords   int64
	replayRows      int64
	replayBytes     int64
	replayTornTail  int64

	// The flush lock and what it guards.
	flushMu   sync.Mutex
	f         logFile
	segStart  int64 // LSN of the open segment's first record
	spare     []byte
	spareCuts []segCut
	// durableLSN is the newest LSN known to be on disk: every record at or
	// below it survives a kill.  Written under flushMu; atomic so that a
	// committer an earlier flush already served need not queue behind the
	// current one to learn it.
	durableLSN atomic.Int64
	// writtenLSN is the LSN the next frame handed to Write must carry; only
	// skydebug builds maintain and check it.
	writtenLSN int64

	// Counters the flush and commit paths bump without either lock.
	syncs           atomic.Int64
	segmentsCreated atomic.Int64
	sharedFlushes   atomic.Int64
	commitWaitNs    atomic.Int64
}

// segCut is a rotation decided at append and not yet executed: the bytes of
// the buffer from off on belong to a new segment whose first record is lsn.
type segCut struct {
	off int
	lsn int64
}

// errWALFlushAborted poisons a device whose flush a fault hook's panic
// interrupted.
var errWALFlushAborted = errors.New("relstore: wal flush aborted")

// openWALDevice creates the durable log in dir for a FRESH database.  A
// directory already holding segments or checkpoints is refused: existing state
// must go through Recover, which resumes the device itself.
func openWALDevice(fs logFS, dir string, segmentBytes int64, hook FaultHook) (*walDevice, error) {
	if err := fs.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("relstore: wal dir: %w", err)
	}
	l, err := listLogDir(fs, dir)
	if err != nil {
		return nil, fmt.Errorf("relstore: wal dir: %w", err)
	}
	if len(l.segs) > 0 || len(l.ckpts) > 0 {
		return nil, fmt.Errorf("relstore: wal dir %q already holds log state (%d segments, %d checkpoints); use Recover", dir, len(l.segs), len(l.ckpts))
	}
	return startWALDevice(fs, dir, segmentBytes, hook, 0)
}

// startWALDevice opens a device whose next record will carry firstLSN, in a
// fresh segment.  Shared by openWALDevice (LSN 0) and Recover (last replayed
// LSN + 1).
func startWALDevice(fs logFS, dir string, segmentBytes int64, hook FaultHook, firstLSN int64) (*walDevice, error) {
	if segmentBytes <= 0 {
		segmentBytes = defaultWALSeg
	}
	d := &walDevice{
		fs:           fs,
		dir:          dir,
		segmentBytes: segmentBytes,
		fault:        hook,
		nextLSN:      firstLSN,
		writtenLSN:   firstLSN,
	}
	d.durableLSN.Store(firstLSN - 1)
	if err := d.openSegment(firstLSN); err != nil {
		return nil, err
	}
	return d, nil
}

// openSegment opens a fresh segment named by the LSN of its first record;
// flushMu must be held (or the device not yet shared).  The directory is
// fsynced before the segment is used: without it a power loss could drop the
// directory entry of a fully-fsynced segment, silently losing acknowledged
// commits.
func (d *walDevice) openSegment(firstLSN int64) error {
	if debugChecks && firstLSN != d.writtenLSN {
		panic(fmt.Sprintf("relstore: wal segment named %d opened with record %d next to write", firstLSN, d.writtenLSN))
	}
	f, err := d.fs.Create(filepath.Join(d.dir, walSegName(firstLSN)))
	if err != nil {
		return fmt.Errorf("relstore: wal segment: %w", err)
	}
	if err := d.fs.Sync(d.dir); err != nil {
		f.Close()
		return fmt.Errorf("relstore: wal segment: %w", err)
	}
	d.f = f
	d.segStart = firstLSN
	d.segmentsCreated.Add(1)
	return nil
}

// callFault invokes the fault hook, if any, at point p.
func (d *walDevice) callFault(p FaultPoint) error {
	if d.fault == nil {
		return nil
	}
	return d.fault(p)
}

// faultAppend fires FPWALAppend on the caller's goroutine, before anything
// of the record enters the buffer.  A hook that panics here simulates a kill;
// a simulated kill cannot stop another goroutine's flush mid-write the way a
// real one would, so the panic leaves only once no flush is in flight — the
// directory the harness then recovers from is not being written.
func (d *walDevice) faultAppend() {
	if d.fault == nil {
		return
	}
	returned := false
	defer func() {
		if !returned {
			d.flushMu.Lock()
			d.flushMu.Unlock()
		}
	}()
	err := d.fault(FPWALAppend)
	returned = true
	if err != nil {
		panic(fmt.Sprintf("relstore: wal append: %v", err))
	}
}

// poison records the device's first I/O failure and returns the error every
// later append and flush reports; poison(nil) only reads it.  mu must not be
// held.
func (d *walDevice) poison(err error) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.err == nil {
		d.err = err
	}
	return d.err
}

// appendRecords frames the payloads laid end to end in buf (ends[i] is where
// the i-th stops) onto the active buffer under one hold of the append lock
// and returns the LSN of the last.  It is the single funnel every durable
// record goes through; LSNs are assigned here — each payload's LSN field,
// left zero by the encoder, is patched before the frame's CRC is computed —
// so record order in the files matches LSN order by construction.
//
// A record that does not fit the segment cuts the buffer: it will open the
// next segment.  The appender then flushes up to the cut before it returns
// (with the append lock released, so only this caller waits), which seals
// the old segment where the parent design sealed it and keeps the buffer
// under one segment in size however rarely anyone commits.
func (d *walDevice) appendRecords(buf []byte, ends []int) (int64, error) {
	d.mu.Lock()
	if err := d.err; err != nil {
		d.mu.Unlock()
		return 0, err
	}
	sealed := int64(-1)
	start := 0
	for _, end := range ends {
		payload := buf[start:end]
		start = end
		frameLen := int64(frame.HeaderSize + len(payload))
		if d.segBytes+frameLen > d.segmentBytes && d.segBytes > 0 {
			d.cutLocked()
			sealed = d.nextLSN - 1
		}
		binary.LittleEndian.PutUint64(payload[1:9], uint64(d.nextLSN))
		d.active = frame.Append(d.active, payload)
		d.segBytes += frameLen
		d.appendedBytes += frameLen
		d.bytesSinceCkpt += frameLen
		d.nextLSN++
	}
	lsn := d.nextLSN - 1
	d.mu.Unlock()

	var err error
	if sealed >= 0 {
		_, err = d.flush(sealed, true)
	}
	return lsn, err
}

// cutLocked records a rotation at the end of the active buffer: the next
// record appended opens a new segment.  mu must be held.
func (d *walDevice) cutLocked() {
	d.cuts = append(d.cuts, segCut{off: len(d.active), lsn: d.nextLSN})
	d.segBytes = 0
}

// flush makes every record with LSN <= upTo durable and reports whether an
// earlier flush had already done so (shared: no fsync was issued).  With
// sealedOnly it stops at the last recorded cut — the rotation flush, which
// seals the old segment and leaves the records of the new one buffered.
//
// FPWALSync fires with the flush lock held and the append lock free, before
// the buffers swap: a hook that parks there parks flushes, never appends, and
// the flush it releases takes everything appended meanwhile.  Any way out
// other than success — a hook or I/O error, or a hook's panic — poisons the
// device.
func (d *walDevice) flush(upTo int64, sealedOnly bool) (shared bool, err error) {
	if upTo <= d.durableLSN.Load() {
		return true, nil
	}
	d.flushMu.Lock()
	defer d.flushMu.Unlock()
	if upTo <= d.durableLSN.Load() {
		return true, nil
	}
	// A failed device attempts nothing more, not even its fault point.
	if err := d.poison(nil); err != nil {
		return false, err
	}
	finished := false
	defer func() {
		if !finished {
			if err == nil {
				err = errWALFlushAborted
			}
			err = d.poison(err)
		}
	}()
	if err = d.callFault(FPWALSync); err != nil {
		return false, fmt.Errorf("relstore: wal sync: %w", err)
	}
	err = d.flushLocked(sealedOnly)
	finished = err == nil
	return false, err
}

// flushLocked takes the active buffer (all of it, or with sealedOnly the part
// before its last cut), writes it segment by segment and fsyncs each piece;
// flushMu must be held.  The append lock is held only for the swap.
func (d *walDevice) flushLocked(sealedOnly bool) error {
	d.mu.Lock()
	if err := d.err; err != nil {
		d.mu.Unlock()
		return err
	}
	buf, cuts := d.active, d.cuts
	keep, last := 0, d.nextLSN-1
	if sealedOnly {
		if len(cuts) == 0 {
			// Another flush executed the cut this one was started for.
			d.mu.Unlock()
			return nil
		}
		c := cuts[len(cuts)-1]
		keep, last = len(buf)-c.off, c.lsn-1
	}
	d.active = append(d.spare[:0], buf[len(buf)-keep:]...)
	d.cuts = d.spareCuts[:0]
	d.mu.Unlock()
	// The spare arrays are the active ones now; they come back below only if
	// every byte taken reached the disk.
	d.spare, d.spareCuts = nil, nil
	buf = buf[:len(buf)-keep]

	fsyncs, off := 0, 0
	for _, c := range cuts {
		if err := d.writeSync(buf[off:c.off], &fsyncs); err != nil {
			return err
		}
		off = c.off
		if err := d.f.Close(); err != nil {
			return fmt.Errorf("relstore: wal close: %w", err)
		}
		if err := d.openSegment(c.lsn); err != nil {
			return err
		}
	}
	if err := d.writeSync(buf[off:], &fsyncs); err != nil {
		return err
	}
	d.spare, d.spareCuts = buf[:0], cuts[:0]
	if debugChecks && last < d.durableLSN.Load() {
		panic(fmt.Sprintf("relstore: wal durable LSN would fall from %d to %d", d.durableLSN.Load(), last))
	}
	d.durableLSN.Store(last)
	return nil
}

// writeSync writes p to the open segment and fsyncs it; flushMu must be held
// and mu must not be.  Nothing is ever written without being fsynced under
// the same hold, so an empty p needs neither.  *fsyncs counts the fsyncs of
// the current flush: the flush fired FPWALSync for its first, each later one
// fires it here, still before the bytes reach the kernel.
func (d *walDevice) writeSync(p []byte, fsyncs *int) error {
	if len(p) == 0 {
		return nil
	}
	if *fsyncs > 0 {
		if err := d.callFault(FPWALSync); err != nil {
			return fmt.Errorf("relstore: wal sync: %w", err)
		}
	}
	*fsyncs++
	if debugChecks {
		d.assertLSNOrder(p)
	}
	if _, err := d.f.Write(p); err != nil {
		return fmt.Errorf("relstore: wal write: %w", err)
	}
	if err := d.f.Sync(); err != nil {
		return fmt.Errorf("relstore: wal fsync: %w", err)
	}
	d.syncs.Add(1)
	return nil
}

// assertLSNOrder checks (skydebug builds) that the frames about to be written
// continue the LSN sequence of everything written before them: the bytes of
// the segment files are an LSN-ordered prefix of what was appended.
func (d *walDevice) assertLSNOrder(p []byte) {
	for len(p) > 0 {
		payload, rest, st := frame.Next(p)
		if st != frame.OK || len(payload) < 9 {
			panic("relstore: wal flush holds a malformed frame")
		}
		if lsn := int64(binary.LittleEndian.Uint64(payload[1:9])); lsn != d.writtenLSN {
			panic(fmt.Sprintf("relstore: wal flush writes LSN %d where %d is next", lsn, d.writtenLSN))
		}
		d.writtenLSN++
		p = rest
	}
}

// logInsert appends insert records covering rows stored with contiguous ids
// starting at firstID, encoding them in the transaction's scratch first.
// Batches whose encoding would exceed the walInsertRecordLimit payload budget
// split into multiple records (still one hold of the append lock) — recovery
// rejects larger frames as corrupt, so an unchunked oversized record would
// make the log unrecoverable.  The error is the device's poison.
func (d *walDevice) logInsert(sc *scratch, tableID uint32, txnID, firstID int64, rows []Row) error {
	d.faultAppend()
	sc.wal, sc.walEnds = sc.wal[:0], sc.walEnds[:0]
	for start := 0; start < len(rows); {
		var n int
		sc.wal, n = appendWALInsertBounded(sc.wal, 0, tableID, txnID, firstID+int64(start), rows[start:])
		sc.walEnds = append(sc.walEnds, len(sc.wal))
		start += n
	}
	_, err := d.appendRecords(sc.wal, sc.walEnds)
	return err
}

// logMarker appends a commit or rollback marker for txnID and returns its
// LSN.
func (d *walDevice) logMarker(sc *scratch, typ byte, txnID int64) (int64, error) {
	d.faultAppend()
	sc.wal = appendWALMarker(sc.wal[:0], typ, 0, txnID)
	sc.walEnds = append(sc.walEnds[:0], len(sc.wal))
	return d.appendRecords(sc.wal, sc.walEnds)
}

// rotateForCheckpoint seals the current segment (flush, fsync, close) and
// opens a fresh one, returning the last LSN the sealed history covers and the
// byte count the seal supersedes.  Every record with LSN <= the returned
// boundary is durable in a rotated-away segment; records appended from here
// on land in the new segment with higher LSNs.  bytesSinceCkpt is NOT reset
// here — the caller credits the covered bytes via noteCheckpointDurable only
// once the checkpoint file is durably in place, so a failed checkpoint write
// leaves the auto-checkpoint trigger armed instead of deferring it by a full
// interval.
func (d *walDevice) rotateForCheckpoint() (boundary, covered int64, err error) {
	d.mu.Lock()
	boundary = d.nextLSN - 1
	covered = d.bytesSinceCkpt
	d.cutLocked()
	d.mu.Unlock()
	// Not up to boundary: that may be durable already, and the cut must be
	// executed regardless.
	_, err = d.flush(math.MaxInt64, true)
	return boundary, covered, err
}

// noteCheckpointDurable records a durably completed checkpoint: the bytes its
// rotation sealed stop counting toward the next auto-checkpoint threshold.
func (d *walDevice) noteCheckpointDurable(covered int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.checkpoints++
	d.bytesSinceCkpt -= covered
	if d.bytesSinceCkpt < 0 {
		d.bytesSinceCkpt = 0
	}
}

// deleteSegmentsBelow removes, of the segments segs lists, every one whose
// records all have LSN <= boundary — those whose successor segment starts at
// or below boundary+1.  The current segment is never deleted.
func (d *walDevice) deleteSegmentsBelow(boundary int64, segs []int64) error {
	d.flushMu.Lock()
	cur := d.segStart
	d.flushMu.Unlock()
	for i, first := range segs {
		// Only segments strictly below cur are known sealed and immutable: a
		// concurrent flush can rotate after the listing, and a rotated-in
		// segment is live.  A sealed segment's records end where its successor
		// begins; cur bounds the successor of the last one listed.
		next := cur
		if i+1 < len(segs) {
			next = segs[i+1]
		}
		if first >= cur || next-1 > boundary {
			continue
		}
		if err := d.fs.Remove(filepath.Join(d.dir, walSegName(first))); err != nil {
			return err
		}
		d.mu.Lock()
		d.segmentsDeleted++
		d.mu.Unlock()
	}
	return nil
}

// shouldCheckpoint reports whether the auto-checkpoint byte threshold has been
// crossed since the last checkpoint.
func (d *walDevice) shouldCheckpoint(every int64) bool {
	if every <= 0 {
		return false
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.bytesSinceCkpt >= every
}

// close flushes, fsyncs and closes the device (DB.Close).  A poisoned device
// reports its poison: what it still buffers never became durable.
func (d *walDevice) close() error {
	d.flushMu.Lock()
	defer d.flushMu.Unlock()
	if err := d.flushLocked(false); err != nil {
		return d.poison(err)
	}
	return d.f.Close()
}

// durableStats merges the device counters into a WALStats snapshot.
func (d *walDevice) durableStats(ws *WALStats) {
	d.mu.Lock()
	defer d.mu.Unlock()
	ws.Durable = true
	ws.DurableBytes = d.appendedBytes
	ws.DurableSyncs = d.syncs.Load()
	ws.SharedFlushes = d.sharedFlushes.Load()
	ws.CommitWaitNs = d.commitWaitNs.Load()
	ws.SegmentsCreated = d.segmentsCreated.Load()
	ws.SegmentsDeleted = d.segmentsDeleted
	ws.Checkpoints = d.checkpoints
	ws.ReplayRecords = d.replayRecords
	ws.ReplayRows = d.replayRows
	ws.ReplayBytes = d.replayBytes
	ws.ReplayTornTail = d.replayTornTail
}
