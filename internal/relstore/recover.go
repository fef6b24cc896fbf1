package relstore

import (
	"errors"
	"fmt"
	"path/filepath"

	"skyloader/internal/frame"
)

// Crash recovery.  Recover rebuilds a database from a WAL directory written
// by a previous (possibly killed) process: the newest checkpoint snapshot is
// loaded first, then every log segment above the checkpoint LSN is replayed —
// committed transactions' inserts applied in log order, uncommitted tails
// discarded, and a torn or corrupt tail on the newest segment tolerated,
// counted and truncated away.  The recovered database resumes the durable
// device at the next LSN, so load clients can continue appending where the
// dead process stopped.
//
// Replay runs in two passes over the post-checkpoint segments: pass one
// decodes only record headers to collect transaction outcomes (and the
// torn-tail boundary), pass two decodes each committed insert record once and
// stores its rows.  Rows from the checkpoint and from the log reach the
// tables the same way: decoded into one reused buffer, one checkpoint frame
// or log record at a time, and stored as runs of consecutive ids
// (Table.storeRun).  Each file is read whole, one at a time — the checkpoint
// once, then each segment once per pass — so replay holds the largest of the
// checkpoint file and one segment (4 MiB by default) plus one record's rows.

// ErrRecovering reports an operation attempted while the database is still
// replaying its log (between StartRecover and completion).
var ErrRecovering = errors.New("relstore: database is recovering")

// RecoveryReport describes what Recover found and applied.
type RecoveryReport struct {
	// CheckpointSeq/CheckpointLSN identify the checkpoint the recovery started
	// from (0 and -1 when the directory held none); CheckpointRows is the
	// number of rows loaded from its snapshot.
	CheckpointSeq  int64
	CheckpointLSN  int64
	CheckpointRows int64
	// SegmentsScanned/SegmentsSkipped count log segments replayed versus
	// skipped entirely because the checkpoint already covered them.
	SegmentsScanned int
	SegmentsSkipped int
	// ReplayedRecords/ReplayedBytes count post-checkpoint log records scanned
	// (including markers); ReplayedRows is the number of rows applied from
	// committed transactions.
	ReplayedRecords int64
	ReplayedRows    int64
	ReplayedBytes   int64
	// TornTailRecords is 1 when the newest segment ended in a torn or corrupt
	// frame (the crash signature), 0 otherwise; TornTailBytes is the length of
	// the discarded tail.  The tail is truncated off the file.
	TornTailRecords int64
	TornTailBytes   int64
	// CommittedTxns counts transactions whose commit marker was found;
	// DiscardedTxns counts transactions that wrote inserts but never reached a
	// durable commit (their rows are not applied).
	CommittedTxns int64
	DiscardedTxns int64
	// LastLSN is the last LSN the recovered log covers; the resumed device
	// appends from LastLSN+1.
	LastLSN int64
}

// Recover rebuilds a database for schema from the WAL directory dir, applying
// the same options Open accepts.  WithWALDir(dir) is implied.  On success the
// returned database is open for transactions with the durable device resumed.
func Recover(schema *Schema, dir string, opts ...Option) (*DB, RecoveryReport, error) {
	h, err := StartRecover(schema, dir, opts...)
	if err != nil {
		return nil, RecoveryReport{}, err
	}
	rep, err := h.Wait()
	if err != nil {
		return nil, rep, err
	}
	return h.DB(), rep, nil
}

// RecoverHandle is an in-flight recovery started by StartRecover.
type RecoverHandle struct {
	db   *DB
	done chan struct{}
	rep  RecoveryReport
	err  error
}

// DB returns the recovering database immediately.  Until Wait returns, the
// database reports Ready() == false and Begin, CreateIndexWith and DropIndex
// fail with ErrRecovering — the state the HTTP front door's /healthz surfaces
// as 503 during replay.
func (h *RecoverHandle) DB() *DB { return h.db }

// Wait blocks until replay completes and returns its report.  On error the
// database is unusable (still marked recovering).
func (h *RecoverHandle) Wait() (RecoveryReport, error) {
	<-h.done
	return h.rep, h.err
}

// StartRecover begins recovery asynchronously: the database is constructed
// and returned at once, marked recovering, while replay proceeds on a
// background goroutine.  Use Recover unless the caller needs to expose the
// not-yet-ready database (health probes) during replay.
func StartRecover(schema *Schema, dir string, opts ...Option) (*RecoverHandle, error) {
	oc := openConfig{indexPolicy: IndexImmediate}
	for _, opt := range opts {
		opt(&oc)
	}
	oc.cfg.WALDir = dir
	oc.recovering = true
	db, err := open(schema, oc)
	if err != nil {
		return nil, err
	}
	db.recovering.Store(true)
	h := &RecoverHandle{db: db, done: make(chan struct{})}
	go func() {
		defer close(h.done)
		h.rep, h.err = db.recoverReplay(dir)
		if h.err == nil {
			db.recovering.Store(false)
		}
	}()
	return h, nil
}

// recoverReplay loads the newest checkpoint, replays the post-checkpoint
// segments, truncates any torn tail and resumes the durable device.
func (db *DB) recoverReplay(dir string) (RecoveryReport, error) {
	rep := RecoveryReport{CheckpointLSN: -1}
	fs := db.fs
	if err := fs.MkdirAll(dir); err != nil {
		return rep, fmt.Errorf("relstore: recover: %w", err)
	}
	l, err := listLogDir(fs, dir)
	if err != nil {
		return rep, fmt.Errorf("relstore: recover: %w", err)
	}

	// Phase 0: newest checkpoint snapshot, if any.  A temp file orphaned by a
	// crash mid-checkpoint is dead weight — reclaim it before reading.
	removeAll(fs, dir, l.temps)
	var maxTxn int64
	if len(l.ckpts) > 0 {
		seq := l.ckpts[len(l.ckpts)-1]
		st, err := db.loadCheckpoint(filepath.Join(dir, ckptName(seq)))
		if err != nil {
			return rep, fmt.Errorf("relstore: recover checkpoint %d: %w", seq, err)
		}
		rep.CheckpointSeq, rep.CheckpointLSN, rep.CheckpointRows = seq, st.lsn, st.rows
		db.counters.rowsInserted.Add(st.rows)
		maxTxn, db.ckptSeq = st.maxTxn, seq
	}
	ckptLSN := rep.CheckpointLSN

	// Which segments need scanning: a segment whose records all sit at or
	// below the checkpoint LSN (its successor starts at or below ckptLSN+1)
	// is fully superseded and is never opened — the property the bounded-
	// replay test asserts.  The newest segment is always scanned.
	firsts := l.segs
	segNames := make([]string, len(firsts))
	var scan []int
	for i, first := range firsts {
		segNames[i] = walSegName(first)
		if i+1 < len(firsts) && firsts[i+1]-1 <= ckptLSN {
			rep.SegmentsSkipped++
			continue
		}
		scan = append(scan, i)
	}

	// Pass 1: headers only — transaction outcomes, LSN continuity, torn-tail
	// boundary.
	committed := make(map[int64]bool)
	rolledBack := make(map[int64]bool)
	insertTxns := make(map[int64]bool)
	wantLSN := int64(-1)
	tornSeg, tornOffset := -1, 0
	for si, i := range scan {
		buf, err := fs.ReadFile(filepath.Join(dir, segNames[i]))
		if err != nil {
			return rep, fmt.Errorf("relstore: recover: %w", err)
		}
		rep.SegmentsScanned++
		if si == 0 {
			start := int64(0)
			if ckptLSN >= 0 {
				if firsts[i] > ckptLSN+1 {
					return rep, fmt.Errorf("%w: log gap: checkpoint covers LSN %d, first segment starts at %d",
						ErrWALCorrupt, ckptLSN, firsts[i])
				}
				start = firsts[i]
			} else if firsts[i] != 0 {
				return rep, fmt.Errorf("%w: log starts at LSN %d with no checkpoint", ErrWALCorrupt, firsts[i])
			}
			wantLSN = max(start, 0)
		} else if firsts[i] != wantLSN {
			return rep, fmt.Errorf("%w: log gap: segment %q starts at LSN %d, expected %d",
				ErrWALCorrupt, segNames[i], firsts[i], wantLSN)
		}
		off := 0
		for len(buf) > 0 {
			payload, rest, fst := frame.Next(buf)
			if fst != frame.OK {
				if i != scan[len(scan)-1] {
					// Only the newest segment may be torn: rotation seals every
					// earlier one with a flush+fsync before opening the next.
					return rep, fmt.Errorf("%w: torn frame mid-log in %q at offset %d",
						ErrWALCorrupt, segNames[i], off)
				}
				tornSeg, tornOffset = i, off
				rep.TornTailRecords = 1
				rep.TornTailBytes = int64(len(buf))
				break
			}
			rec, err := decodeWALRecord(payload, len(db.tablesByID))
			if err != nil {
				// CRC-valid but semantically undecodable is corruption, not a
				// torn tail: the bytes were written whole and are wrong.
				return rep, fmt.Errorf("relstore: recover %q offset %d: %w", segNames[i], off, err)
			}
			if rec.lsn != wantLSN {
				return rep, fmt.Errorf("%w: LSN %d at position expecting %d in %q",
					ErrWALCorrupt, rec.lsn, wantLSN, segNames[i])
			}
			wantLSN++
			off += frame.HeaderSize + len(payload)
			if rec.txnID > maxTxn {
				maxTxn = rec.txnID
			}
			switch rec.typ {
			case walRecInsert:
				insertTxns[rec.txnID] = true
			case walRecCommit:
				if rolledBack[rec.txnID] {
					return rep, fmt.Errorf("%w: txn %d has both commit and rollback markers", ErrWALCorrupt, rec.txnID)
				}
				committed[rec.txnID] = true
			case walRecRollback:
				if committed[rec.txnID] {
					return rep, fmt.Errorf("%w: txn %d has both commit and rollback markers", ErrWALCorrupt, rec.txnID)
				}
				rolledBack[rec.txnID] = true
			}
			buf = rest
		}
		if tornSeg >= 0 {
			break
		}
	}
	rep.CommittedTxns = int64(len(committed))
	for id := range insertTxns {
		if !committed[id] {
			rep.DiscardedTxns++
		}
	}

	// Pass 2: store committed inserts in log order.
	var rb rowBuf
	for _, i := range scan {
		if tornSeg >= 0 && i > tornSeg {
			break
		}
		buf, err := fs.ReadFile(filepath.Join(dir, segNames[i]))
		if err != nil {
			return rep, fmt.Errorf("relstore: recover: %w", err)
		}
		if i == tornSeg {
			buf = buf[:tornOffset]
		}
		for len(buf) > 0 {
			payload, rest, fst := frame.Next(buf)
			if fst != frame.OK {
				return rep, fmt.Errorf("%w: frame changed under replay in %q", ErrWALCorrupt, segNames[i])
			}
			rec, err := decodeWALRecord(payload, len(db.tablesByID))
			if err != nil {
				return rep, err
			}
			buf = rest
			if rec.lsn <= ckptLSN {
				continue
			}
			rep.ReplayedRecords++
			rep.ReplayedBytes += int64(frame.HeaderSize + len(payload))
			if rec.typ != walRecInsert || !committed[rec.txnID] || rec.rowCount == 0 {
				continue
			}
			if db.faultHook != nil {
				if err := db.faultHook(FPReplay); err != nil {
					return rep, fmt.Errorf("relstore: recover replay fault: %w", err)
				}
			}
			if err := rb.addRecord(&rec); err != nil {
				return rep, err
			}
			if err := rb.store(db.tablesByID[rec.tableID]); err != nil {
				return rep, err
			}
			rep.ReplayedRows += int64(rec.rowCount)
			db.counters.rowsInserted.Add(int64(rec.rowCount))
		}
	}

	// Truncate the torn tail so the next recovery (and segment arithmetic)
	// sees only whole records, and make that durable before a fresh segment
	// follows it: a torn tail that came back would sit mid-log.
	if tornSeg >= 0 {
		// A removal is its directory's to make durable, a truncation its file's.
		path := filepath.Join(dir, segNames[tornSeg])
		if tornOffset == 0 {
			if err = fs.Remove(path); err == nil {
				err = fs.Sync(dir)
			}
		} else if err = fs.Truncate(path, int64(tornOffset)); err == nil {
			err = fs.Sync(path)
		}
		if err != nil {
			return rep, fmt.Errorf("relstore: recover truncate: %w", err)
		}
	}

	nextLSN := ckptLSN + 1
	if wantLSN >= 0 {
		nextLSN = wantLSN
	}
	rep.LastLSN = nextLSN - 1

	// Resumed transactions must never reuse the id of any transaction in the
	// log — including dead uncommitted ones, whose lingering insert records
	// would otherwise be resurrected by a recycled id's commit marker.
	db.nextTxn.Store(maxTxn)

	dev, err := startWALDevice(fs, dir, db.cfg.WALSegmentBytes, db.faultHook, nextLSN)
	if err != nil {
		return rep, err
	}
	dev.replayRecords = rep.ReplayedRecords
	dev.replayRows = rep.ReplayedRows
	dev.replayBytes = rep.ReplayedBytes
	dev.replayTornTail = rep.TornTailRecords
	// Replayed-but-not-checkpointed history counts toward the next automatic
	// checkpoint threshold.
	dev.bytesSinceCkpt = rep.ReplayedBytes
	// Atomic publish: the DB is already visible to health probes and /metrics
	// while this background replay runs (StartRecover), so Stats readers may
	// load dev concurrently with this store.
	db.wal.dev.Store(dev)
	return rep, nil
}

// rowBuf holds the rows of one log record or one checkpoint rows frame,
// decoded into one value arena that replay reuses from record to record: no
// recovered row is a []Value of its own.  A row slices the arena as it was
// when the row was decoded; growth moves later rows to a new array and leaves
// earlier ones in the old, which nothing writes again.
type rowBuf struct {
	ids  []int64
	vals []Value
	rows []Row
}

func (b *rowBuf) reset() { b.ids, b.vals, b.rows = b.ids[:0], b.vals[:0], b.rows[:0] }

// add decodes the row payload enc as row id.
func (b *rowBuf) add(id int64, enc []byte) error {
	start := len(b.vals)
	vals, err := decodeWALRow(b.vals, enc)
	b.ids, b.vals, b.rows = append(b.ids, id), vals, append(b.rows, vals[start:len(vals):len(vals)])
	return err
}

// addRecord resets the buffer to the rows of an insert record decodeWALRecord
// accepted, at ids from its first.
func (b *rowBuf) addRecord(rec *walRecord) error {
	b.reset()
	c := frame.NewCursor(rec.rows, ErrWALCorrupt)
	for i := 0; i < rec.rowCount; i++ {
		if err := b.add(rec.firstID+int64(i), c.Bytes(int(c.U32()))); err != nil {
			return err
		}
	}
	return c.Done()
}

// store stores the buffered rows in t, one run per stretch of consecutive ids.
func (b *rowBuf) store(t *Table) error {
	for i := 0; i < len(b.ids); {
		j := i + 1
		for j < len(b.ids) && b.ids[j] == b.ids[j-1]+1 {
			j++
		}
		if err := t.storeRun(b.ids[i], b.rows[i:j]); err != nil {
			return err
		}
		i = j
	}
	return nil
}

// storeRun stores recovered rows at ids first, first+1, … through the heap,
// row directory and key indexes a load stores through.  Recovery maintains no
// secondary index: a recovering database has none (index DDL waits for
// replay).  Runs arrive with gaps between them (rollbacks punched holes in the
// original id sequence) and, from logs written before every insert was logged
// under its table's lock, out of order (concurrent one-row writers appended
// their records after releasing it): a gap costs the row directory nothing, a
// run below its last run moves every run above it — O(runs) a run, so a log of
// r records all stored behind their elders replays in O(r²).  The engine
// appends a table's records in id order (TestInsertLogInIDOrder).  An id a
// run already covers is a duplicate even when its slot is dead: ids are never
// reused.  The log is outside input: a row the insert path could not have
// stored (wrong width, a value of another kind than its column, NULL in the
// primary key, a key already held) is corruption, not a panic.
func (t *Table) storeRun(first int64, rows []Row) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	last := first + int64(len(rows)) - 1
	if first < 0 || last > maxKeyRowID {
		return fmt.Errorf("%w: row ids %d..%d in table %q", ErrWALCorrupt, first, last, t.schema.Name)
	}
	if at, _, _ := t.rows.find(last); at >= 0 {
		if r := t.rows.runs[at]; int64(r.first)+int64(r.n) > first {
			return fmt.Errorf("%w: row ids %d..%d in table %q already spent", ErrWALCorrupt, first, last, t.schema.Name)
		}
	}
	for i, row := range rows {
		if len(row) != len(t.schema.Columns) {
			return fmt.Errorf("%w: row width %d for table %q", ErrWALCorrupt, len(row), t.schema.Name)
		}
		for c := range row {
			if k := row[c].Kind; k != KindNull && k != t.heap.lay.kinds[c] {
				return fmt.Errorf("%w: %s value in column %q of table %q", ErrWALCorrupt, k, t.schema.Columns[c].Name, t.schema.Name)
			}
		}
		for _, c := range t.pkCols {
			if row[c].IsNull() {
				return fmt.Errorf("%w: NULL primary key in table %q during replay", ErrWALCorrupt, t.schema.Name)
			}
		}
		if t.pk.has(row) {
			return fmt.Errorf("%w: duplicate primary key in table %q during replay", ErrWALCorrupt, t.schema.Name)
		}
		for _, u := range t.uniques {
			if u.has(row) {
				return fmt.Errorf("%w: duplicate unique key %q in table %q during replay",
					ErrWALCorrupt, u.name, t.schema.Name)
			}
		}
		id := first + int64(i)
		loc, _, _ := t.heap.append(row)
		t.rows.put(id, loc)
		t.putKeys(row, id)
	}
	t.nextRow = max(t.nextRow, last+1)
	return nil
}

// startCheckpoint applies a checkpoint's table record ahead of its rows: the
// next row id, which keeps the id gaps pre-checkpoint rollbacks punched so
// resumed inserts allocate the ids the dead process would have, and the row
// count, which sizes a tag table that will hold every key once so it never
// rehashes; a key index of one or two integer columns reserves nothing, its
// keys going to runs as they did when loaded.
func (t *Table) startCheckpoint(nextRow int64, rows int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextRow = max(t.nextRow, nextRow)
	for _, k := range append([]*keyIndex{t.pk}, t.uniques...) {
		if !k.ints {
			k.reserve(k.len() + rows)
		}
	}
}
