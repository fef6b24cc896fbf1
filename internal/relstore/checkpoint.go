package relstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"path/filepath"

	"skyloader/internal/frame"
)

// Checkpoints bound replay time: DB.Checkpoint snapshots the committed table
// state into a checkpoint file and deletes the log segments the snapshot
// covers, so Recover replays only the records appended since.
//
// Ordering rules (also documented in PERFORMANCE.md):
//
//  1. All table locks are taken (children before parents, the same nesting
//     order the batch-apply path uses) and the snapshot is refused while any
//     table holds uncommitted rows — so the captured heap is exactly the
//     committed state, and every commit marker covering it is already in the
//     log.
//  2. The log rotates BEFORE the snapshot is encoded: the sealed segments are
//     flushed and fsynced, fixing the checkpoint LSN boundary; everything at
//     or below it will be superseded by the checkpoint file.
//  3. The checkpoint file is written to a temp name, fsynced, renamed into
//     place and the directory fsynced — a crash leaves either the old state
//     or a complete new checkpoint, never a partial one.
//  4. Only after the rename is durable are dead segments deleted.  A crash
//     between 3 and 4 leaves stale segments that Recover skips by LSN.
//
// A checkpoint file is an 8-byte magic followed by internal/frame frames (the
// framing WAL segments share) with their own payload types.

const (
	ckptMagic = "SKYCKPT1"

	ckptRecHeader = 0x10 // seq u64 | lsn u64 | maxTxn u64 | tableCount u32
	ckptRecTable  = 0x11 // tableID u32 | nextRow u64 | liveRows u64
	ckptRecRows   = 0x12 // tableID u32 | count u32 | count x (id u64 | rowLen u32 | row)
	ckptRecEnd    = 0x13 // (empty)

	// ckptRowsPerRecord chunks table rows so no single record outgrows the
	// frame limit.
	ckptRowsPerRecord = 512

	// ckptChunkBytes is the size of the buffers the snapshot is encoded into.
	// The file is their concatenation; where one ends is invisible in it.
	ckptChunkBytes = 1 << 20
)

// ErrNoWALDir reports a durability operation on a database opened without
// WithWALDir.
var ErrNoWALDir = errors.New("relstore: no WAL directory configured")

// ErrCheckpointBusy reports a checkpoint attempt while transactions hold
// uncommitted rows; the caller should retry after they settle.
var ErrCheckpointBusy = errors.New("relstore: checkpoint refused: uncommitted rows in flight")

// Checkpoint snapshots the committed state of every table into a checkpoint
// file and truncates the log segments it supersedes.  It fails with
// ErrNoWALDir when the database has no durable WAL and ErrCheckpointBusy when
// any transaction holds uncommitted rows (retry after commits settle; the
// automatic WithCheckpointEvery trigger simply skips such attempts).
func (db *DB) Checkpoint() error {
	dev := db.wal.dev.Load()
	if dev == nil {
		return ErrNoWALDir
	}
	db.ckptMu.Lock()
	defer db.ckptMu.Unlock()
	dir := db.cfg.WALDir
	l, err := listLogDir(db.fs, dir)
	if err != nil {
		return fmt.Errorf("relstore: checkpoint: %w", err)
	}
	// A crash between creating and renaming a previous checkpoint's temp file
	// leaves an orphan recovery never reads; reclaim it here.
	removeAll(db.fs, dir, l.temps)

	seq := db.ckptSeq + 1
	boundary, covered, chunks, err := db.snapshot(dev, seq)
	if err != nil {
		return err
	}

	if err := writeCheckpointFile(db.fs, dir, seq, chunks); err != nil {
		return err
	}
	db.ckptSeq = seq
	// Only now — the rename is durable — do the sealed bytes stop counting
	// toward the next auto-checkpoint; a failed write above leaves the
	// threshold armed so the next trigger retries promptly.
	dev.noteCheckpointDurable(covered)

	// The checkpoint itself is durable; a failed segment cleanup is reported,
	// and the next checkpoint (or Recover) tolerates the stale segments.
	if err := dev.deleteSegmentsBelow(boundary, l.segs); err != nil {
		return fmt.Errorf("relstore: checkpoint truncate: %w", err)
	}
	// Older checkpoint files are dead too: the new one supersedes them.
	for _, s := range l.ckpts {
		if s < seq {
			_ = db.fs.Remove(filepath.Join(dir, ckptName(s)))
		}
	}
	return nil
}

// snapshot rotates the log and encodes the committed state as checkpoint seq,
// under every table's write lock: it returns the rotation's boundary and the
// bytes it covers, and the file's chunks.  Tables are locked children before
// parents — the same nesting order the batch-apply path uses (child write
// lock, then parent read locks) — so a concurrent batch and a checkpoint
// cannot deadlock; the locks are released however the rotation ends, a fault
// hook's panic included.
func (db *DB) snapshot(dev *walDevice, seq int64) (boundary, covered int64, chunks [][]byte, err error) {
	tables := db.tablesLockOrder()
	for _, t := range tables {
		t.mu.Lock()
	}
	defer func() {
		for i := len(tables) - 1; i >= 0; i-- {
			tables[i].mu.Unlock()
		}
	}()
	for _, t := range tables {
		if t.pendingRows.Load() > 0 {
			return 0, 0, nil, ErrCheckpointBusy
		}
	}
	// With no rows pending, every row in the heaps is committed and its commit
	// marker is already appended (markers precede epoch settling), so rotating
	// here puts the whole snapshot's history at or below the boundary.
	if boundary, covered, err = dev.rotateForCheckpoint(); err != nil {
		return 0, 0, nil, fmt.Errorf("relstore: checkpoint rotate: %w", err)
	}
	return boundary, covered, encodeCheckpoint(seq, boundary, db.nextTxn.Load(), db.tablesByID), nil
}

// maybeAutoCheckpoint runs a best-effort checkpoint when the
// WithCheckpointEvery byte threshold has been crossed.  Called after commits;
// a busy refusal (uncommitted rows elsewhere) just waits for a later commit.
func (db *DB) maybeAutoCheckpoint() {
	dev := db.wal.dev.Load()
	if dev == nil || !dev.shouldCheckpoint(db.cfg.CheckpointEveryBytes) {
		return
	}
	// A failed device fails its checkpoints too; that is not a second problem
	// to report here — the device's error reaches the caller at its next
	// append or commit.
	if err := db.Checkpoint(); err != nil && !errors.Is(err, ErrCheckpointBusy) && dev.poison(nil) == nil {
		panic(fmt.Sprintf("relstore: auto checkpoint: %v", err))
	}
}

// tablesLockOrder returns every table in child-before-parent order (reverse
// topological), matching the lock nesting of the batch-apply path.
func (db *DB) tablesLockOrder() []*Table {
	names, err := db.schema.TopologicalOrder()
	if err != nil {
		// The schema was validated acyclic at construction; fall back to
		// declaration order if that ever changes.
		names = db.schema.TableNames()
	}
	out := make([]*Table, 0, len(names))
	for i := len(names) - 1; i >= 0; i-- {
		out = append(out, db.tables[names[i]])
	}
	return out
}

// ckptEncoder assembles a checkpoint file as a list of fixed-size chunks, so
// that encoding — which runs under every table's write lock — allocates each
// byte of the file once and never copies what it has already encoded.  Frames
// are built in place in the open chunk (frame.Begin/Finish).
type ckptEncoder struct {
	chunks [][]byte // closed chunks, in file order
	buf    []byte   // the open chunk
	mark   int      // where the frame being assembled starts in buf
}

// reserve makes room for n more bytes of the frame being assembled.  When the
// open chunk cannot take them it is closed in front of the frame, and the
// frame's bytes so far (less than one frame, once per chunk) move to a new
// chunk: a frame never spans two chunks and no chunk ever grows.
func (e *ckptEncoder) reserve(n int) {
	if len(e.buf)+n <= cap(e.buf) {
		return
	}
	partial := e.buf[e.mark:]
	next := make([]byte, 0, max(ckptChunkBytes, len(partial)+n))
	if e.mark > 0 {
		e.chunks = append(e.chunks, e.buf[:e.mark])
	}
	e.buf, e.mark = append(next, partial...), 0
}

// begin opens a frame whose first n payload bytes the caller appends to e.buf
// next; finish closes it.
func (e *ckptEncoder) begin(n int) {
	e.mark = len(e.buf)
	e.reserve(frame.HeaderSize + n)
	e.buf, e.mark = frame.Begin(e.buf)
}

func (e *ckptEncoder) finish() { e.buf = frame.Finish(e.buf, e.mark) }

// encodeCheckpoint renders the snapshot into framed checkpoint records and
// returns the file's bytes as consecutive chunks.  The caller holds every
// table's write lock.
func encodeCheckpoint(seq, boundary, maxTxn int64, tables []*Table) [][]byte {
	e := &ckptEncoder{}
	e.reserve(len(ckptMagic))
	e.buf = append(e.buf, ckptMagic...)

	e.begin(1 + 8 + 8 + 8 + 4)
	e.buf = append(e.buf, ckptRecHeader)
	e.buf = binary.LittleEndian.AppendUint64(e.buf, uint64(seq))
	e.buf = binary.LittleEndian.AppendUint64(e.buf, uint64(boundary))
	e.buf = binary.LittleEndian.AppendUint64(e.buf, uint64(maxTxn))
	e.buf = binary.LittleEndian.AppendUint32(e.buf, uint32(len(tables)))
	e.finish()

	for tid, t := range tables {
		e.begin(1 + 4 + 8 + 8)
		e.buf = append(e.buf, ckptRecTable)
		e.buf = binary.LittleEndian.AppendUint32(e.buf, uint32(tid))
		e.buf = binary.LittleEndian.AppendUint64(e.buf, uint64(t.nextRow))
		e.buf = binary.LittleEndian.AppendUint64(e.buf, uint64(t.heap.rowCount))
		e.finish()

		// A rows record is open from its first row to its ckptRowsPerRecord-th
		// (or the table's last); its row count is filled in when it closes.
		count := 0
		closeRows := func() {
			if count == 0 {
				return
			}
			binary.LittleEndian.PutUint32(e.buf[e.mark+frame.HeaderSize+1+4:], uint32(count))
			e.finish()
			count = 0
		}
		t.scanRowsByID(func(id int64, row RowView) {
			if count == 0 {
				e.begin(1 + 4 + 4)
				e.buf = append(e.buf, ckptRecRows)
				e.buf = binary.LittleEndian.AppendUint32(e.buf, uint32(tid))
				e.buf = append(e.buf, 0, 0, 0, 0)
			}
			e.reserve(8 + 4 + maxWALRowBytes(t.heap.lay, row))
			e.buf = binary.LittleEndian.AppendUint64(e.buf, uint64(id))
			lenAt := len(e.buf)
			e.buf = append(e.buf, 0, 0, 0, 0)
			for c := 0; c < row.Len(); c++ {
				e.buf = appendWALValue(e.buf, row.val(c))
			}
			binary.LittleEndian.PutUint32(e.buf[lenAt:], uint32(len(e.buf)-lenAt-4))
			count++
			if count >= ckptRowsPerRecord {
				closeRows()
			}
		})
		closeRows()
	}
	e.begin(1)
	e.buf = append(e.buf, ckptRecEnd)
	e.finish()
	return append(e.chunks, e.buf)
}

// maxWALRowBytes bounds the appendWALValue encoding of a stored row from the
// size of its record in the table's wide layout: a fixed-width value takes a
// tag byte and at most its 8-byte field, a string a tag, a two-byte
// terminator and at most two bytes per byte of text.  Only a wide record holds
// strings; a row of a closed narrow page is bounded by the fields alone.
func maxWALRowBytes(wide *rowLayout, row RowView) int {
	n := 3*row.Len() + 2*int(wide.fixed)
	if row.lay == wide {
		n += 2 * (len(row.rec) - int(wide.fixed))
	}
	return n
}

// removeAll removes the named files of dir, best-effort: a checkpoint temp
// file or a superseded checkpoint that stays only waits for the next sweep.
func removeAll(fs logFS, dir string, names []string) {
	for _, name := range names {
		_ = fs.Remove(filepath.Join(dir, name))
	}
}

// writeCheckpointFile persists the encoded snapshot (the chunks, end to end)
// atomically: temp file, fsync, rename, directory fsync.
func writeCheckpointFile(fs logFS, dir string, seq int64, chunks [][]byte) error {
	tmp := filepath.Join(dir, ckptName(seq)+".tmp")
	f, err := fs.Create(tmp)
	if err != nil {
		return fmt.Errorf("relstore: checkpoint: %w", err)
	}
	for _, chunk := range chunks {
		if _, err := f.Write(chunk); err != nil {
			f.Close()
			return fmt.Errorf("relstore: checkpoint: %w", err)
		}
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("relstore: checkpoint: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("relstore: checkpoint: %w", err)
	}
	if err := fs.Rename(tmp, filepath.Join(dir, ckptName(seq))); err != nil {
		return fmt.Errorf("relstore: checkpoint: %w", err)
	}
	if err := fs.Sync(dir); err != nil {
		return fmt.Errorf("relstore: checkpoint: %w", err)
	}
	return nil
}

// checkpointState is what a checkpoint file says beside its rows, which
// loadCheckpoint stores as it reads them, and how many it stored.
type checkpointState struct{ seq, lsn, maxTxn, rows int64 }

// loadCheckpoint reads the checkpoint file at path into the database's empty
// tables.  Each rows frame is decoded into one reused buffer and stored, its
// ids split at gaps into runs, before the next frame is read.  Any framing or
// semantic error is a hard failure: rename-into-place means a present file
// must be complete.
func (db *DB) loadCheckpoint(path string) (checkpointState, error) {
	var st checkpointState
	buf, err := db.fs.ReadFile(path)
	if err != nil {
		return st, err
	}
	if len(buf) < len(ckptMagic) || string(buf[:len(ckptMagic)]) != ckptMagic {
		return st, fmt.Errorf("%w: checkpoint magic", ErrWALCorrupt)
	}
	buf = buf[len(ckptMagic):]

	// live is each table's row count as its table record says, stored what
	// its rows frames held.
	live := make([]int64, len(db.tablesByID))
	stored := make([]int64, len(db.tablesByID))
	table := func(c *frame.Cursor) *Table {
		tid := c.U32()
		if int64(tid) >= int64(len(db.tablesByID)) {
			c.Fail(fmt.Errorf("%w: checkpoint table id %d", ErrWALCorrupt, tid))
			return nil
		}
		return db.tablesByID[tid]
	}
	var rb rowBuf
	sawHeader, sawEnd := false, false
	for len(buf) > 0 && !sawEnd {
		payload, rest, fst := frame.Next(buf)
		if fst != frame.OK {
			return st, fmt.Errorf("%w: torn checkpoint record", ErrWALCorrupt)
		}
		buf = rest
		c := frame.NewCursor(payload, ErrWALCorrupt)
		typ := c.U8()
		if (typ == ckptRecHeader) == sawHeader {
			return st, fmt.Errorf("%w: checkpoint record type 0x%02x out of place", ErrWALCorrupt, typ)
		}
		switch typ {
		case ckptRecHeader:
			sawHeader = true
			st.seq, st.lsn, st.maxTxn = c.I64(), c.I64(), c.I64()
			if n := c.U32(); int64(n) != int64(len(db.tablesByID)) {
				c.Fail(fmt.Errorf("%w: checkpoint covers %d tables, schema has %d", ErrWALCorrupt, n, len(db.tablesByID)))
			}
		case ckptRecTable:
			t, nextRow, rows := table(c), c.I64(), c.I64()
			// Every row takes at least its id and length prefix in the file.
			if rows < 0 || rows > int64(len(buf)/12) {
				c.Fail(fmt.Errorf("%w: checkpoint table record of %d rows", ErrWALCorrupt, rows))
			}
			if c.Done() == nil {
				live[t.tid] = rows
				t.startCheckpoint(nextRow, int(rows))
			}
		case ckptRecRows:
			t := table(c)
			count := c.Count(12) // each row carries at least its id and length prefix
			rb.reset()
			for i := 0; i < count; i++ {
				id := c.I64()
				err := rb.add(id, c.Bytes(int(c.U32())))
				if id < 0 {
					err = fmt.Errorf("%w: negative checkpoint row id", ErrWALCorrupt)
				}
				if err != nil {
					c.Fail(err)
					break
				}
			}
			if c.Done() == nil {
				c.Fail(rb.store(t))
				stored[t.tid] += int64(count)
			}
		case ckptRecEnd:
			sawEnd = true
		default:
			return st, fmt.Errorf("%w: checkpoint record type 0x%02x", ErrWALCorrupt, typ)
		}
		if err := c.Done(); err != nil {
			return st, err
		}
	}
	if !sawHeader || !sawEnd {
		return st, fmt.Errorf("%w: incomplete checkpoint file", ErrWALCorrupt)
	}
	for tid, n := range stored {
		if n != live[tid] {
			return st, fmt.Errorf("%w: checkpoint table %d holds %d rows, header says %d",
				ErrWALCorrupt, tid, n, live[tid])
		}
		st.rows += n
	}
	return st, nil
}
