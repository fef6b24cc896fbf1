package relstore

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"skyloader/internal/frame"
)

// walDevice is the durable half of the WAL: an append-only sequence of
// segmented log files under one directory, attached to a DB by WithWALDir.
// The counter WAL (wal.go) stays the engine's cost model; the device is the
// real byte stream that Recover replays.
//
// Ownership rules (also documented in PERFORMANCE.md):
//
//   - The device owns every "wal-*.seg" and "checkpoint-*.ckpt" file in its
//     directory.  Exactly one DB may have the directory open at a time;
//     nothing else may write there.
//   - Appends buffer in memory; only sync() — reached from commit syncs, the
//     auto-sync threshold and segment rotation — writes buffered bytes to
//     the OS and fsyncs.  A process kill therefore loses at most the
//     records appended since the last sync, which is exactly the durability
//     contract commit acknowledgement makes.
//   - Segments are immutable once rotated away from.  Only Recover may
//     truncate (a torn tail off the newest segment) and only a completed
//     checkpoint may delete (whole segments older than the checkpoint LSN).
type walDevice struct {
	dir          string
	segmentBytes int64
	// syncThreshold auto-syncs the device once this many bytes are buffered
	// unsynced (the durable analogue of Config.WALSyncBytes); 0 disables.
	syncThreshold int64
	fault         FaultHook

	mu       sync.Mutex
	f        *os.File
	segStart int64 // LSN of the current segment's first record
	written  int64 // bytes written to the OS in the current segment
	buf      []byte
	scratch  []byte
	nextLSN  int64

	unsynced int64 // bytes appended since the last sync

	// Counters surfaced through WALStats.  Guarded by mu; replay counters are
	// written once by Recover before the DB is shared.
	appendedBytes   int64
	syncs           int64
	segmentsCreated int64
	segmentsDeleted int64
	checkpoints     int64
	bytesSinceCkpt  int64
	replayRecords   int64
	replayRows      int64
	replayBytes     int64
	replayTornTail  int64
}

const (
	walSegPrefix  = "wal-"
	walSegSuffix  = ".seg"
	ckptPrefix    = "checkpoint-"
	ckptSuffix    = ".ckpt"
	defaultWALSeg = 4 << 20
)

func walSegName(firstLSN int64) string {
	return fmt.Sprintf("%s%016x%s", walSegPrefix, firstLSN, walSegSuffix)
}

// parseSegName returns the first LSN encoded in a segment file name.
func parseSegName(name string) (int64, bool) {
	if !strings.HasPrefix(name, walSegPrefix) || !strings.HasSuffix(name, walSegSuffix) {
		return 0, false
	}
	hex := strings.TrimSuffix(strings.TrimPrefix(name, walSegPrefix), walSegSuffix)
	n, err := strconv.ParseInt(hex, 16, 64)
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

func ckptName(seq int64) string {
	return fmt.Sprintf("%s%016x%s", ckptPrefix, seq, ckptSuffix)
}

func parseCkptName(name string) (int64, bool) {
	if !strings.HasPrefix(name, ckptPrefix) || !strings.HasSuffix(name, ckptSuffix) {
		return 0, false
	}
	hex := strings.TrimSuffix(strings.TrimPrefix(name, ckptPrefix), ckptSuffix)
	n, err := strconv.ParseInt(hex, 16, 64)
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

// listWALSegments returns the segment file names under dir sorted by first
// LSN (the hex zero-padded names sort identically either way).
func listWALSegments(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []string
	for _, e := range ents {
		if _, ok := parseSegName(e.Name()); ok {
			segs = append(segs, e.Name())
		}
	}
	sort.Strings(segs)
	return segs, nil
}

// listCheckpoints returns checkpoint sequence numbers under dir, ascending.
func listCheckpoints(dir string) ([]int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var seqs []int64
	for _, e := range ents {
		if seq, ok := parseCkptName(e.Name()); ok {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// openWALDevice creates the durable log in dir for a FRESH database.  A
// directory already holding segments or checkpoints is refused: existing state
// must go through Recover, which resumes the device itself.
func openWALDevice(dir string, segmentBytes, syncThreshold int64, hook FaultHook) (*walDevice, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("relstore: wal dir: %w", err)
	}
	segs, err := listWALSegments(dir)
	if err != nil {
		return nil, fmt.Errorf("relstore: wal dir: %w", err)
	}
	ckpts, err := listCheckpoints(dir)
	if err != nil {
		return nil, fmt.Errorf("relstore: wal dir: %w", err)
	}
	if len(segs) > 0 || len(ckpts) > 0 {
		return nil, fmt.Errorf("relstore: wal dir %q already holds log state (%d segments, %d checkpoints); use Recover", dir, len(segs), len(ckpts))
	}
	return startWALDevice(dir, segmentBytes, syncThreshold, hook, 0)
}

// startWALDevice opens a device whose next record will carry firstLSN, in a
// fresh segment.  Shared by openWALDevice (LSN 0) and Recover (last replayed
// LSN + 1).
func startWALDevice(dir string, segmentBytes, syncThreshold int64, hook FaultHook, firstLSN int64) (*walDevice, error) {
	if segmentBytes <= 0 {
		segmentBytes = defaultWALSeg
	}
	d := &walDevice{
		dir:           dir,
		segmentBytes:  segmentBytes,
		syncThreshold: syncThreshold,
		fault:         hook,
		nextLSN:       firstLSN,
	}
	if err := d.openSegmentLocked(); err != nil {
		return nil, err
	}
	return d, nil
}

// openSegmentLocked opens a fresh segment named by the next LSN; d.mu must be
// held (or the device not yet shared).  The directory is fsynced before the
// segment is used: without it a power loss could drop the directory entry of
// a fully-fsynced segment, silently losing acknowledged commits.
func (d *walDevice) openSegmentLocked() error {
	path := filepath.Join(d.dir, walSegName(d.nextLSN))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("relstore: wal segment: %w", err)
	}
	if err := syncWALDir(d.dir); err != nil {
		f.Close()
		return fmt.Errorf("relstore: wal segment: %w", err)
	}
	d.f = f
	d.segStart = d.nextLSN
	d.written = 0
	d.segmentsCreated++
	return nil
}

// syncWALDir fsyncs a log directory so newly created or renamed entries are
// durable.
func syncWALDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// callFault invokes the fault hook, if any, at point p.
func (d *walDevice) callFault(p FaultPoint) error {
	if d.fault == nil {
		return nil
	}
	return d.fault(p)
}

// appendLocked frames payload onto the buffer under d.mu, rotating first when
// the segment is full.  It is the single funnel every durable record goes
// through; LSNs are assigned here, so record order in the files matches LSN
// order by construction.
func (d *walDevice) appendLocked(payload []byte) {
	frameLen := int64(frame.HeaderSize + len(payload))
	if d.written+int64(len(d.buf))+frameLen > d.segmentBytes && d.written+int64(len(d.buf)) > 0 {
		d.rotateLocked()
	}
	d.buf = frame.Append(d.buf, payload)
	d.appendedBytes += frameLen
	d.bytesSinceCkpt += frameLen
	d.unsynced += frameLen
	d.nextLSN++
	if d.syncThreshold > 0 && d.unsynced >= d.syncThreshold {
		d.syncLocked()
	}
}

// rotateLocked makes the current segment durable and immutable and opens the
// next one.  The flush+fsync before close means every record in a rotated-away
// segment is on disk — the invariant checkpoint truncation relies on.
func (d *walDevice) rotateLocked() {
	d.syncLocked()
	if err := d.f.Close(); err != nil {
		panic(fmt.Sprintf("relstore: wal close: %v", err))
	}
	if err := d.openSegmentLocked(); err != nil {
		panic(err.Error())
	}
}

// flushLocked writes buffered bytes to the OS without fsync.
func (d *walDevice) flushLocked() {
	if len(d.buf) == 0 {
		return
	}
	n, err := d.f.Write(d.buf)
	if err != nil {
		panic(fmt.Sprintf("relstore: wal write: %v", err))
	}
	d.written += int64(n)
	d.buf = d.buf[:0]
}

// syncLocked flushes and fsyncs; d.mu must be held.
func (d *walDevice) syncLocked() {
	if err := d.callFault(FPWALSync); err != nil {
		panic(fmt.Sprintf("relstore: wal sync: %v", err))
	}
	d.flushLocked()
	if err := d.f.Sync(); err != nil {
		panic(fmt.Sprintf("relstore: wal fsync: %v", err))
	}
	d.syncs++
	d.unsynced = 0
}

// sync makes every appended record durable (the real fsync a commit's log
// sync maps to when a WAL directory is configured).
func (d *walDevice) sync() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.syncLocked()
}

// logInsert appends insert records covering rows stored with contiguous ids
// starting at firstID.  Batches whose encoding would exceed the
// walInsertRecordLimit payload budget split into multiple records (still one
// lock hold, so records for the same table stay in id order) — recovery
// rejects larger frames as corrupt, so an unchunked oversized record would
// make the log unrecoverable.
func (d *walDevice) logInsert(tableID uint32, txnID, firstID int64, rows []Row) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.callFault(FPWALAppend); err != nil {
		panic(fmt.Sprintf("relstore: wal append: %v", err))
	}
	for start := 0; start < len(rows); {
		var n int
		d.scratch, n = appendWALInsertBounded(d.scratch[:0], d.nextLSN, tableID, txnID, firstID+int64(start), rows[start:])
		d.appendLocked(d.scratch)
		start += n
	}
}

// logMarker appends a commit or rollback marker for txnID.
func (d *walDevice) logMarker(typ byte, txnID int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.callFault(FPWALAppend); err != nil {
		panic(fmt.Sprintf("relstore: wal append: %v", err))
	}
	d.scratch = appendWALMarker(d.scratch[:0], typ, d.nextLSN, txnID)
	d.appendLocked(d.scratch)
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
func (d *walDevice) rotateForCheckpoint() (boundary, covered int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	boundary = d.nextLSN - 1
	covered = d.bytesSinceCkpt
	d.rotateLocked()
	return boundary, covered
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

// deleteSegmentsBelow removes every segment whose records all have LSN <=
// boundary — those whose successor segment starts at or below boundary+1.
// The current segment is never deleted.  Returns the number removed.
func (d *walDevice) deleteSegmentsBelow(boundary int64) (int, error) {
	d.mu.Lock()
	cur := d.segStart
	d.mu.Unlock()
	segs, err := listWALSegments(d.dir)
	if err != nil {
		return 0, err
	}
	removed := 0
	for i, name := range segs {
		first, _ := parseSegName(name)
		// Skip the segment that was active when cur was read AND anything
		// newer: a concurrent append can rotate between the cur read and the
		// directory listing, and the rotated-in segment (first > cur) is live.
		// Only segments strictly below cur are known sealed and immutable.
		if first >= cur {
			continue
		}
		// A sealed segment's records end where its successor begins.  The
		// successor is always in the listing — the segment named cur existed
		// before the listing and sorts after every sealed one — but never
		// delete without that bound in hand.
		if i+1 >= len(segs) {
			continue
		}
		next, _ := parseSegName(segs[i+1])
		if next-1 <= boundary {
			if err := os.Remove(filepath.Join(d.dir, name)); err != nil {
				return removed, err
			}
			removed++
		}
	}
	d.mu.Lock()
	d.segmentsDeleted += int64(removed)
	d.mu.Unlock()
	return removed, nil
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

// close flushes, fsyncs and closes the device (DB.Close).
func (d *walDevice) close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.flushLocked()
	if err := d.f.Sync(); err != nil {
		return err
	}
	return d.f.Close()
}

// durableStats merges the device counters into a WALStats snapshot.
func (d *walDevice) durableStats(ws *WALStats) {
	d.mu.Lock()
	defer d.mu.Unlock()
	ws.Durable = true
	ws.DurableBytes = d.appendedBytes
	ws.DurableSyncs = d.syncs
	ws.SegmentsCreated = d.segmentsCreated
	ws.SegmentsDeleted = d.segmentsDeleted
	ws.Checkpoints = d.checkpoints
	ws.ReplayRecords = d.replayRecords
	ws.ReplayRows = d.replayRows
	ws.ReplayBytes = d.replayBytes
	ws.ReplayTornTail = d.replayTornTail
}
