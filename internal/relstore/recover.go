package relstore

import (
	"errors"
	"fmt"
	"os"
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
// Replay runs in two passes over the post-checkpoint segments so memory stays
// bounded by one record, not the log: pass one decodes only record headers to
// collect transaction outcomes (and the torn-tail boundary), pass two decodes
// and applies the row payloads of committed transactions.

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
// database reports Ready() == false and Begin fails with ErrRecovering — the
// state the HTTP front door's /healthz surfaces as 503 during replay.
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
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return rep, fmt.Errorf("relstore: recover: %w", err)
	}
	widthOf := func(tid uint32) (int, bool) {
		if int(tid) >= len(db.tablesByID) {
			return 0, false
		}
		return len(db.tablesByID[tid].schema.Columns), true
	}

	// Phase 0: newest checkpoint snapshot, if any.  A temp file orphaned by a
	// crash mid-checkpoint is dead weight — reclaim it before reading.
	removeStaleCkptTemps(dir)
	ckptLSN := int64(-1)
	var maxTxn int64
	seqs, err := listCheckpoints(dir)
	if err != nil {
		return rep, fmt.Errorf("relstore: recover: %w", err)
	}
	if len(seqs) > 0 {
		seq := seqs[len(seqs)-1]
		st, err := readCheckpointFile(filepath.Join(dir, ckptName(seq)), widthOf)
		if err != nil {
			return rep, fmt.Errorf("relstore: recover checkpoint %d: %w", seq, err)
		}
		if len(st.nextRow) != len(db.tablesByID) {
			return rep, fmt.Errorf("%w: checkpoint covers %d tables, schema has %d",
				ErrWALCorrupt, len(st.nextRow), len(db.tablesByID))
		}
		var sc scratch
		for tid := range st.ids {
			t := db.tablesByID[tid]
			if err := t.replayRowsAt(&sc, st.ids[tid], st.data[tid]); err != nil {
				return rep, err
			}
			t.setNextRowFloor(st.nextRow[tid])
			rep.CheckpointRows += int64(len(st.ids[tid]))
		}
		db.counters.rowsInserted.Add(rep.CheckpointRows)
		ckptLSN = st.lsn
		maxTxn = st.maxTxn
		rep.CheckpointSeq = seq
		rep.CheckpointLSN = st.lsn
		db.ckptSeq = seq
	}

	// Which segments need scanning: a segment whose records all sit at or
	// below the checkpoint LSN (its successor starts at or below ckptLSN+1)
	// is fully superseded and is never opened — the property the bounded-
	// replay test asserts.  The newest segment is always scanned.
	segNames, err := listWALSegments(dir)
	if err != nil {
		return rep, fmt.Errorf("relstore: recover: %w", err)
	}
	firsts := make([]int64, len(segNames))
	for i, name := range segNames {
		first, ok := parseSegName(name)
		if !ok {
			return rep, fmt.Errorf("%w: segment name %q", ErrWALCorrupt, name)
		}
		firsts[i] = first
	}
	var scan []int
	for i := range segNames {
		if i+1 < len(segNames) && firsts[i+1]-1 <= ckptLSN {
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
		path := filepath.Join(dir, segNames[i])
		buf, err := os.ReadFile(path)
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
			rec, err := decodeWALRecord(payload, false, widthOf)
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

	// Pass 2: apply committed inserts in log order.
	var sc scratch
	for _, i := range scan {
		if tornSeg >= 0 && i > tornSeg {
			break
		}
		buf, err := os.ReadFile(filepath.Join(dir, segNames[i]))
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
			rec, err := decodeWALRecord(payload, false, widthOf)
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
			rec, err = decodeWALRecord(payload, true, widthOf)
			if err != nil {
				return rep, err
			}
			t := db.tablesByID[rec.tableID]
			if err := t.replayContiguous(&sc, rec.firstID, rec.rows); err != nil {
				return rep, err
			}
			rep.ReplayedRows += int64(len(rec.rows))
			db.counters.rowsInserted.Add(int64(len(rec.rows)))
		}
	}

	// Truncate the torn tail so the next recovery (and segment arithmetic)
	// sees only whole records.
	if tornSeg >= 0 {
		path := filepath.Join(dir, segNames[tornSeg])
		if tornOffset == 0 {
			if err := os.Remove(path); err != nil {
				return rep, fmt.Errorf("relstore: recover truncate: %w", err)
			}
		} else {
			if err := os.Truncate(path, int64(tornOffset)); err != nil {
				return rep, fmt.Errorf("relstore: recover truncate: %w", err)
			}
			if f, err := os.OpenFile(path, os.O_WRONLY, 0); err == nil {
				_ = f.Sync()
				_ = f.Close()
			}
		}
		_ = syncWALDir(dir)
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

	dev, err := startWALDevice(dir, db.cfg.WALSegmentBytes, db.faultHook, nextLSN)
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

// replayRowsAt stores rows at explicit (possibly non-contiguous) ids — the
// checkpoint-snapshot load path.  The snapshot knows its row count, so the
// key indexes are sized once and never rehash.
func (t *Table) replayRowsAt(sc *scratch, ids []int64, rows []Row) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.pk.reserve(t.pk.len() + len(rows))
	for _, u := range t.uniques {
		u.reserve(u.len() + len(rows))
	}
	for i := range rows {
		if err := t.replayOneLocked(sc, ids[i], rows[i]); err != nil {
			return err
		}
	}
	return nil
}

// replayContiguous stores rows at contiguous ids starting at firstID — the
// WAL insert-record path.
func (t *Table) replayContiguous(sc *scratch, firstID int64, rows []Row) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range rows {
		if err := t.replayOneLocked(sc, firstID+int64(i), rows[i]); err != nil {
			return err
		}
	}
	return nil
}

// replayOneLocked stores one recovered row at its original id, maintaining
// the heap, row directory, primary-key and unique hash indexes and any live
// secondary indexes.  Ids arrive with gaps (rollbacks punched holes in the
// original id sequence) and, from logs written before every insert was logged
// under its table's lock, out of order (concurrent one-row writers appended
// their records after releasing it): a gap costs the row directory nothing,
// an id below its last run's moves every run above it — O(runs) a record, so
// a log of r records all stored behind their elders replays in O(r²).  The
// engine appends a table's records in id order (TestInsertLogInIDOrder).  An
// id a run already covers is a duplicate even when its slot is dead: ids are
// never reused.  The log is outside input: a row the insert path could not have
// stored (wrong width, a value of another kind than its column, NULL in the
// primary key) is corruption, not a panic.  t.mu must be write-held.
func (t *Table) replayOneLocked(sc *scratch, id int64, row Row) error {
	if len(row) != len(t.schema.Columns) {
		return fmt.Errorf("%w: row width %d for table %q", ErrWALCorrupt, len(row), t.schema.Name)
	}
	for i := range row {
		if k := row[i].Kind; k != KindNull && k != t.heap.lay.kinds[i] {
			return fmt.Errorf("%w: %s value in column %q of table %q", ErrWALCorrupt, k, t.schema.Columns[i].Name, t.schema.Name)
		}
	}
	for _, c := range t.pkCols {
		if row[c].IsNull() {
			return fmt.Errorf("%w: NULL primary key in table %q during replay", ErrWALCorrupt, t.schema.Name)
		}
	}
	if _, taken := t.rows.get(id); taken {
		return fmt.Errorf("%w: duplicate row id %d in table %q", ErrWALCorrupt, id, t.schema.Name)
	}
	if id < 0 || id > maxKeyRowID {
		return fmt.Errorf("%w: row id %d in table %q", ErrWALCorrupt, id, t.schema.Name)
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

	loc, _, _ := t.heap.append(row)
	t.rows.put(id, loc)
	t.nextRow = max(t.nextRow, id+1)
	t.putKeys(row, id)
	for _, ix := range t.liveList {
		ix.tree.Insert(sc.ordKey(sc.keyOf(row, ix.colIdxs)), id)
	}
	return nil
}

// setNextRowFloor raises the table's next row id to at least n — recovering
// id gaps punched by pre-checkpoint rollbacks, so resumed inserts allocate the
// same ids the dead process would have.
func (t *Table) setNextRowFloor(n int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextRow = max(t.nextRow, n)
}
